"""The half-spectrum plan path against a full-complex-FFT reference, and the plan's cache and guards.

The reference functions below are private copies of the package's original
full-spectrum code: every product is formed on the whole complex spectrum and
the physical field is the real part of its inverse transform.  The plan path
must reproduce them, Nyquist planes included, to round-off.
"""

import dataclasses
import inspect
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nearelliptic.fields as fields
import nearelliptic.stability as stability
from nearelliptic import (
    GridSpec,
    NonlinearitySpec,
    SinePerturbation,
    SamplerConfig,
    SolveConfig,
    VectorField,
    apply_operator,
    campanato_solve,
    ellipticity_constant,
    example1_alpha,
    example1_certificate,
    hessian_estimate_check,
    identity_tensor,
    random_band_limited,
    solve_linear,
    solve_via_nearness,
    spectral_hessian,
)
from nearelliptic.errors import DegenerateSymbolError, InputError
from nearelliptic.fields import PHYSICAL, HessianPairs, half_spectrum
from nearelliptic.linear import PLAN_CACHE_SIZE, _matvec, spectral_plan
from nearelliptic.nonlinearity import evaluate_field
from nearelliptic.stability import nu_F_lower_bound
from nearelliptic.tensors import (
    DET_FLOOR_COEF,
    SymTensor4,
    random_rank_one_positive,
    symbol_determinants,
    symbol_inverse,
)

from conftest import random_sym_tensor, refuse_full_hessian

TOL = 1e-12
GRIDS = {2: 16, 3: 8}  # n -> M


# --- reference: the full complex spectrum -----------------------------------


def _axes(g):
    return tuple(range(1, g.n + 1))


def _flat_freqs(g):
    return np.stack([np.broadcast_to(k, g.shape).ravel() for k in g.freq_axes()])


def ref_hessian(u):
    g = u.grid
    coef = np.fft.fftn(u.data, axes=_axes(g)) / g.points
    freq = g.freq_axes()
    hess = np.empty((g.N, g.n, g.n) + g.shape, dtype=complex)
    for i in range(g.n):
        for j in range(g.n):
            hess[:, i, j] = coef * (-((2 * np.pi / g.L) ** 2) * freq[i] * freq[j])
    return hess


def ref_physical(coef, g, lead):
    axes = tuple(range(lead, lead + g.n))
    return (np.fft.ifftn(coef, axes=axes) * g.points).real


def ref_apply(A, u):
    g = u.grid
    coef = (np.fft.fftn(u.data, axes=_axes(g)) / g.points).reshape(g.N, g.points)
    z = _flat_freqs(g) / g.L
    out = -4 * np.pi**2 * np.einsum("abij,ik,jk,bk->ak", A.entries, z, z, coef)
    return ref_physical(out.reshape((g.N,) + g.shape), g, 1)


def ref_solve(A, f):
    """Inverts (S(k) + S(kbar)) / 2, kbar = -k mod M, the symbol whose real part ``ref_apply`` applies."""
    g = f.grid
    fhat = (np.fft.fftn(f.data, axes=_axes(g)) / g.points).reshape(g.N, g.points)
    freqs = _flat_freqs(g)
    zsq = (freqs**2).sum(axis=0) / g.L**2
    mask = zsq > 0
    unit = freqs[:, mask] / g.L / np.sqrt(zsq[mask])
    # -k mod M in fft layout: the Nyquist value -M/2 is its own partner; |kbar| = |k|
    unit_bar = np.where(freqs[:, mask] == -g.M // 2, unit, -unit)
    S = 0.5 * (
        np.einsum("abij,ik,jk->kab", A.entries, unit, unit) + np.einsum("abij,ik,jk->kab", A.entries, unit_bar, unit_bar)
    )
    det = np.linalg.det(S)
    floor = DET_FLOOR_COEF * np.maximum(np.sqrt((S**2).sum(axis=(1, 2))), np.finfo(float).tiny) ** A.N
    bad = np.abs(det) < floor
    if np.any(bad):
        k = np.unravel_index(np.flatnonzero(mask)[int(np.argmax(bad))], g.shape)
        k_int = tuple(int(v) for v in g.integer_freqs()[list(k)])
        raise DegenerateSymbolError("reference", frequency=k_int)
    uhat = np.zeros_like(fhat)
    uhat[:, mask] = -np.einsum("kab,bk->ak", np.linalg.inv(S), fhat[:, mask]) / (4 * np.pi**2 * zsq[mask])
    return ref_physical(uhat.reshape((g.N,) + g.shape), g, 1)


def ref_campanato(spec, alpha, f, iterations):
    """(metric, residual, ratio) records and final u of the near-operator iteration."""
    g = f.grid
    A = spec.tensor

    rows, cols = HessianPairs.components(g.n)

    def F(data):
        full = ref_physical(ref_hessian(VectorField(g, data)), g, 3)
        return evaluate_field(spec, HessianPairs(g, full[:, rows, cols])).data

    def norm(data):
        return np.sqrt(g.cell_volume * (data**2).sum())

    u = np.zeros((g.N,) + g.shape)
    op_prev, F_prev, d_prev, records = np.zeros_like(u), F(u), np.nan, []
    for k in range(1, iterations + 1):
        u = ref_solve(A, VectorField(g, op_prev - alpha * (F_prev - f.data)))
        op_u, F_u = ref_apply(A, VectorField(g, u)), F(u)
        d = norm(op_u - op_prev)
        records.append((d, norm(F_u - f.data), d / d_prev if k >= 2 else np.nan))
        op_prev, F_prev, d_prev = op_u, F_u, d
    return np.array(records), u


def rel_error(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


def white_noise(grid, seed):
    """Real field with content at every frequency, the Nyquist planes included."""
    rng = np.random.default_rng(seed)
    return VectorField(grid, rng.standard_normal((grid.N,) + grid.shape), PHYSICAL)


tensor_cases = st.tuples(st.sampled_from(sorted(GRIDS)), st.integers(0, 2**16))


def draw_case(case):
    n, seed = case
    A, cert = random_rank_one_positive(n, 2, seed=seed)
    return A, cert.nu, GridSpec(n=n, N=2, M=GRIDS[n])


# --- parity ------------------------------------------------------------------


class TestParity:
    @settings(max_examples=12, deadline=None)
    @given(case=tensor_cases)
    def test_linear_layer_matches_reference_on_white_noise(self, case):
        A, nu, grid = draw_case(case)
        u = white_noise(grid, case[1])
        rows, cols = HessianPairs.components(grid.n)
        want_hess = ref_physical(ref_hessian(u), grid, 3)[:, rows, cols]
        assert rel_error(spectral_hessian(u, PHYSICAL).data, want_hess) <= TOL
        assert rel_error(apply_operator(A, u).data, ref_apply(A, u)) <= TOL
        assert rel_error(solve_linear(A, u, nu=nu).u.data, ref_solve(A, u)) <= TOL
        want_ratio = nu * np.sqrt((np.abs(ref_hessian(u)) ** 2).sum()) / np.sqrt((ref_apply(A, u) ** 2).sum() / grid.points)
        assert hessian_estimate_check(A, u, nu=nu) == pytest.approx(want_ratio, rel=TOL)

    @settings(max_examples=6, deadline=None)
    @given(case=tensor_cases)
    def test_short_campanato_trace_matches_reference(self, case):
        A, nu, grid = draw_case(case)
        spec = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(0.3 * nu))
        cert = example1_certificate(spec, nu=nu)
        alpha = example1_alpha(spec)
        f = evaluate_field(spec, spectral_hessian(white_noise(grid, case[1]), PHYSICAL))
        config = SolveConfig(tol_residual=1e-300, max_iters=4)
        u, trace = campanato_solve(spec, alpha, f, cert, config)
        want, want_u = ref_campanato(spec, alpha, f, 4)
        got = np.array([(r.metric, r.residual, r.ratio) for r in trace.records])
        assert got.shape == want.shape
        # metric and residual are norms of differences of fields of the size
        # of f, so their round-off is relative to the first step and to ||f||;
        # the ratios of the shrinking metrics amplify it, up to 1e-9
        np.testing.assert_allclose(got[:, 0], want[:, 0], rtol=0.0, atol=TOL * want[0, 0])
        np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=0.0, atol=TOL * np.sqrt(f.grid.cell_volume * (f.data**2).sum()))
        np.testing.assert_allclose(got[1:, 2], want[1:, 2], rtol=1e-9, atol=0.0)
        assert rel_error(u.data, want_u) <= TOL

    @pytest.mark.parametrize(("n", "M"), [(2, 16), (2, 64), (3, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_operator_inverts_the_solve_on_white_noise(self, n, M, seed):
        # every frequency but k = 0 is inverted, the Nyquist planes included
        A, cert = random_rank_one_positive(n, 2, seed=seed)
        grid = GridSpec(n=n, N=2, M=M)
        f = white_noise(grid, seed)
        want = f.data - f.data.mean(axis=_axes(grid), keepdims=True)
        back = apply_operator(A, solve_linear(A, f, nu=cert.nu).u)
        assert np.abs(back.data - want).max() <= TOL * np.abs(want).max()
        ref_back = ref_apply(A, VectorField(grid, ref_solve(A, f), PHYSICAL))
        assert np.abs(ref_back - want).max() <= TOL * np.abs(want).max()

    @pytest.mark.parametrize("n", sorted(GRIDS))
    @pytest.mark.parametrize("seed", [5, 11])
    def test_white_noise_solve_converges(self, n, seed):
        A, cert = random_rank_one_positive(n, 2, seed=seed)
        grid = GridSpec(n=n, N=2, M=GRIDS[n])
        spec = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(0.3 * cert.nu))
        certificate = example1_certificate(spec, nu=cert.nu)
        f = evaluate_field(spec, spectral_hessian(white_noise(grid, seed), PHYSICAL))
        _, trace = campanato_solve(spec, example1_alpha(spec), f, certificate, SolveConfig(tol_residual=TOL))
        assert trace.status == "converged"
        assert all(r <= certificate.contraction for r in trace.ratios)


# --- the plan ----------------------------------------------------------------


def degenerate_tensor(eps=0.0):
    """Symbol diag(1, eps) along the first axis."""
    entries = np.zeros((2, 2, 2, 2))
    entries[0, 0] = np.eye(2)
    entries[1, 1] = np.diag([eps, 1.0])
    return SymTensor4(entries)


class TestPlan:
    def test_degenerate_tensor_raises_at_the_reference_frequency(self, grid32):
        A = degenerate_tensor()
        f = random_band_limited(grid32, band=3, seed=8)
        with pytest.raises(DegenerateSymbolError) as want:
            ref_solve(A, f)
        for _ in range(2):  # the second call uses the cached plan
            with pytest.raises(DegenerateSymbolError) as err:
                solve_linear(A, f, nu=1.0)
            assert err.value.frequency == want.value.frequency
        spec = NonlinearitySpec(tensor=A)
        cert = example1_certificate(NonlinearitySpec(tensor=identity_tensor(2, 2)))
        with pytest.raises(DegenerateSymbolError) as err:
            campanato_solve(spec, 1.0, f, cert)
        assert err.value.frequency == want.value.frequency

    def test_degeneracy_boundary(self, grid32):
        # |det S| = eps against the floor DET_FLOOR_COEF ||S||_F^N = 1e-12:
        # the unit symbol and the plan's scaled symbol get the same verdict
        A = degenerate_tensor(1e-10)
        np.testing.assert_allclose(symbol_inverse(A, np.array([1.0, 0.0])), np.diag([1.0, 1e10]), rtol=1e-14)
        assert spectral_plan(A, grid32).degenerate is None
        A = degenerate_tensor(1e-14)
        with pytest.raises(DegenerateSymbolError) as err:
            symbol_inverse(A, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(err.value.direction, [1.0, 0.0])
        assert spectral_plan(A, grid32).degenerate == (1, 0)
        # a symbol that vanishes has det 0 and floor 0, and is degenerate too
        entries = np.zeros((2, 2, 2, 2))
        entries[:, :, 1, 1] = np.eye(2)
        with pytest.raises(DegenerateSymbolError):
            symbol_inverse(SymTensor4(entries), np.array([1.0, 0.0]))
        assert spectral_plan(SymTensor4(entries), grid32).degenerate == (1, 0)
        # entries near 1e-170 square to 0: the verdict and the inverse are taken on S scaled to O(1)
        A = SymTensor4(identity_tensor(2, 2).entries * 1e-170)
        np.testing.assert_allclose(symbol_inverse(A, np.array([1.0, 0.0])), 1e170 * np.eye(2), rtol=1e-14)
        assert spectral_plan(A, grid32).degenerate is None

    def test_degenerate_direction_off_the_axes_is_named_in_the_half_spectrum(self):
        # S = diag(|z|^2, (z_1 + z_2)^2) is singular along (1, -1); the check runs in the
        # half spectrum's C order, so it names the first such frequency stored there
        grid = GridSpec(n=2, N=2, M=16)
        entries = np.zeros((2, 2, 2, 2))
        entries[0, 0] = np.eye(2)
        entries[1, 1] = np.ones((2, 2))
        A = SymTensor4(entries)
        k = spectral_plan(A, grid).degenerate
        assert k is not None and k[-1] % grid.M <= grid.M // 2
        with pytest.raises(DegenerateSymbolError):
            symbol_inverse(A, np.array(k, dtype=float))
        f = white_noise(grid, 3)
        with pytest.raises(DegenerateSymbolError) as err:
            solve_linear(A, f, nu=1.0)
        assert err.value.frequency == k
        cert = example1_certificate(NonlinearitySpec(tensor=identity_tensor(2, 2)))
        with pytest.raises(DegenerateSymbolError) as err:
            campanato_solve(NonlinearitySpec(tensor=A), 1.0, f, cert)
        assert err.value.frequency == k

    @pytest.mark.parametrize("n", sorted(GRIDS))
    def test_plan_is_built_on_the_half_spectrum_alone(self, n, monkeypatch):
        grid = GridSpec(n=n, N=2, M=GRIDS[n])
        half_spectrum(grid)

        def full_grid_table(*args):
            raise AssertionError("the plan built a full-grid table")

        monkeypatch.setattr(GridSpec, "zsq", full_grid_table)
        monkeypatch.setattr(fields, "hessian_multipliers", full_grid_table)
        A, _ = random_rank_one_positive(n, 2, seed=4321)
        plan = spectral_plan(A, grid)
        stacks = [np.moveaxis(m.reshape(2, 2, -1), -1, 0) for m in (plan.operator, plan.solve)]
        assert not stacks[1][0].any()
        product = stacks[0][1:] @ stacks[1][1:]
        np.testing.assert_allclose(product, np.broadcast_to(np.eye(2), product.shape), rtol=0.0, atol=TOL)

    @settings(max_examples=40, deadline=None)
    @given(
        S=st.integers(2, 3).flatmap(lambda N: arrays(np.float64, (N, N), elements=st.integers(-4, 4).map(float))),
        c=st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300),
    )
    @example(S=np.eye(2), c=1e-170)  # S^2 underflows to 0 unless S is scaled first
    @example(S=np.diag([1.0, 0.0]), c=1e-170)
    def test_scaled_symbol_gets_the_same_verdict(self, S, c):
        # integer S has det 0 or |det| >= 1, far from the floor, so round-off in c S cannot flip the verdict
        S = S + S.T
        assert symbol_determinants(c * S)[2] == symbol_determinants(S)[2] == (round(np.linalg.det(S)) == 0)

    def test_equal_tensors_share_one_plan(self, grid32):
        A = random_sym_tensor(2, 2, seed=21)
        twin = SymTensor4(A.entries.copy())
        assert spectral_plan(A, grid32) is spectral_plan(twin, grid32)
        other = random_sym_tensor(2, 2, seed=22)
        assert spectral_plan(other, grid32) is not spectral_plan(A, grid32)
        assert spectral_plan(A, GridSpec(n=2, N=2, M=16)) is not spectral_plan(A, grid32)

    def test_cache_keeps_only_the_most_recent_plans(self):
        grid = GridSpec(n=2, N=2, M=8)
        tensors = [random_sym_tensor(2, 2, seed=100 + k) for k in range(PLAN_CACHE_SIZE + 1)]
        first = spectral_plan(tensors[0], grid)
        for A in tensors[1:]:
            spectral_plan(A, grid)
        assert spectral_plan(tensors[0], grid) is not first

    def test_plan_arrays_are_read_only(self, grid32, identity22):
        plan = spectral_plan(identity22, grid32)
        for arr in (plan.solve, plan.operator, plan.half.hessian, plan.half.zsq):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    @pytest.mark.parametrize("n, M", [(2, 64), (3, 32)])
    def test_plan_stacks_are_complex_with_zero_imaginary_parts(self, n, M):
        # stored in the coefficients' dtype, a plan multiplies as the real stacks would, bit for bit
        grid = GridSpec(n=n, N=2, M=M)
        entries = np.zeros((2, 2, n, n))
        entries[0, 0] = np.eye(n)
        entries[1, 1] = np.diag([0.0] + [1.0] * (n - 1))
        A, _ = random_rank_one_positive(n, 2, seed=77)
        coef = half_spectrum(grid).coefficients(white_noise(grid, 5))
        for tensor in (A, SymTensor4(entries)):
            plan = spectral_plan(tensor, grid)
            assert spectral_plan(tensor, grid) is plan
            stacks = [plan.operator] if plan.degenerate else [plan.operator, plan.solve]
            for m in stacks:
                assert m.dtype == np.complex128 and not m.flags.writeable
                assert not m.imag.any()
            assert plan.apply(coef).tobytes() == _matvec(plan.operator.real, coef).tobytes()
            if plan.degenerate:
                with pytest.raises(DegenerateSymbolError):
                    plan.invert(coef)
            else:
                assert plan.invert(coef).tobytes() == _matvec(plan.solve.real, coef).tobytes()
        assert spectral_plan(SymTensor4(entries), grid).degenerate is not None

    def test_tensor_grid_mismatch(self, grid32):
        with pytest.raises(InputError):
            spectral_plan(identity_tensor(3, 2), grid32)


class TestMemoryGuard:
    def test_counts_the_real_hessian(self, monkeypatch):
        # 8 N n^2 M^n bytes: 4096 here
        monkeypatch.setattr(fields, "_DEFAULT_BUDGET", 4096)
        GridSpec(n=2, N=2, M=8)
        monkeypatch.setattr(fields, "_DEFAULT_BUDGET", 4095)
        with pytest.raises(InputError):
            GridSpec(n=2, N=2, M=8)

    def test_refuses_a_hessian_beyond_the_default_budget(self):
        # one complex vector field is 1.07 GB, but the hessian is 13.4 GB
        with pytest.raises(InputError):
            GridSpec(n=5, N=2, M=32)


# --- non-finite input ----------------------------------------------------------


def _stability_problem(grid):
    A = identity_tensor(2, 2)
    specF = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(0.3))
    certF = example1_certificate(specF)
    specG = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(0.3 + 0.1 * nu_F_lower_bound(certF)))
    return specF, specG, example1_alpha(specF), certF


def _with_bad_value(field, value):
    data = field.data.copy()
    data[(1,) + (3,) * field.grid.n] = value
    return VectorField(field.grid, data, PHYSICAL)


ENTRY_POINTS = {
    "solve_linear": lambda A, bad, good: solve_linear(A, bad, nu=1.0),
    "apply_operator": lambda A, bad, good: apply_operator(A, bad),
    "hessian_estimate_check": lambda A, bad, good: hessian_estimate_check(A, bad, nu=1.0),
    "campanato_solve": lambda A, bad, good: campanato_solve(
        NonlinearitySpec(tensor=A), 1.0, bad, example1_certificate(NonlinearitySpec(tensor=A))
    ),
    "campanato_solve initial guess": lambda A, bad, good: campanato_solve(
        NonlinearitySpec(tensor=A), 1.0, good, example1_certificate(NonlinearitySpec(tensor=A)), initial_guess=bad
    ),
    "solve_via_nearness": lambda A, bad, good: solve_via_nearness(*_stability_problem(bad.grid), bad),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_non_finite_input_is_refused(entry, value, grid32, identity22):
    good = random_band_limited(grid32, band=3, seed=30)
    with pytest.raises(InputError, match="non-finite"):
        ENTRY_POINTS[entry](identity22, _with_bad_value(good, value), good)


# --- stability loop ------------------------------------------------------------


def test_stability_loop_computes_each_hessian_once(monkeypatch):
    grid = GridSpec(n=2, N=2, M=16)
    specF, specG, alphaF, certF = _stability_problem(grid)
    g = evaluate_field(specG, spectral_hessian(random_band_limited(grid, band=3, seed=31), PHYSICAL))
    stability.empirical_nu_F(specF, grid)  # the admission's own hessians are taken before the count
    calls, inner = [], []
    hessian_pairs, iterate = fields.HalfSpectrum.hessian_pairs, stability._iterate

    def counted(half, coef, work=None, out=None):
        calls.append(sys._getframe(1).f_code.co_name)
        return hessian_pairs(half, coef, work, out)

    def solved(*args, **kwargs):
        out = iterate(*args, **kwargs)
        inner.append(out[3].iterations)
        return out

    monkeypatch.setattr(fields.HalfSpectrum, "hessian_pairs", counted)
    monkeypatch.setattr(stability, "_iterate", solved)
    refuse_full_hessian(monkeypatch)
    # the loop starts at zero and takes no hessian of zero, and no n^2 hessian at all
    _, report = solve_via_nearness(specF, specG, alphaF, certF, g)
    outer = report.outer_trace.iterations
    assert report.outer_trace.status == "converged" and outer >= 2
    assert not hasattr(stability, "spectral_hessian")
    # every hessian is an inner solve's own, one per inner iteration
    assert len(inner) == outer
    assert calls == ["_iterate"] * sum(inner)


# --- settings ------------------------------------------------------------------


SETTINGS = {
    GridSpec: {"n", "N", "M", "L"},
    SamplerConfig: {"count", "seed"},
    SolveConfig: {"tol_residual", "max_iters"},
    solve_via_nearness: {"specF", "specG", "alphaF", "certificateF", "g", "config"},
    campanato_solve: {"spec", "alpha", "f", "certificate", "config", "initial_guess"},
    ellipticity_constant: {"A"},
}


@pytest.mark.parametrize("owner", list(SETTINGS), ids=lambda owner: owner.__name__)
def test_the_pipeline_settings_are_pinned(owner):
    # every value a caller can set; a new one needs callers outside the tests that set it differently
    if dataclasses.is_dataclass(owner):
        settable = {f.name for f in dataclasses.fields(owner) if f.init}
    else:
        settable = set(inspect.signature(owner).parameters)
    assert settable == SETTINGS[owner]
