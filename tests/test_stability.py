from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

import nearelliptic.campanato as campanato_module
import nearelliptic.stability as stability
from nearelliptic import (
    CustomPerturbation,
    EllipticityCertificate,
    GridSpec,
    NonlinearitySpec,
    NormComboPerturbation,
    SinePerturbation,
    apply_operator,
    campanato_solve,
    example1_certificate,
    l2_norm,
    nu_FG_estimate,
    nu_F_lower_bound,
    random_band_limited,
    solve_via_nearness,
    spectral_hessian,
)
from nearelliptic.campanato import STAGNATION_FLOOR, IterationTrace, SolveConfig
from nearelliptic.certify import SamplerConfig, _increments
from nearelliptic.errors import DivergenceError, EvaluationError, InputError, NearnessConditionError
from nearelliptic.fields import (
    PHYSICAL,
    SPECTRAL,
    HalfSpectrum,
    HessianField,
    HessianPairs,
    VectorField,
    _band_half_spectra,
    half_spectrum,
)
from nearelliptic.nonlinearity import evaluate_field
from nearelliptic.stability import EMPIRICAL_PAIRS, EMPIRICAL_SEED, NuFGEstimate, empirical_nu_F
from nearelliptic.tensors import SymTensor4, identity_tensor

from conftest import zero_field


def outer_loop_from_zero(specF, specG, alphaF, certF, g):
    """The stability outer loop written out from u = zero_field: every hessian built, F and G taken on the grid."""
    g_phys = g.to_physical()
    gnorm = l2_norm(g_phys)
    config = SolveConfig()
    tol_abs = config.tol_residual * gnorm
    inner_config = replace(config, tol_residual=0.1 * config.tol_residual)
    u = zero_field(g.grid)
    hess = spectral_hessian(u, PHYSICAL)
    F_u, G_u = evaluate_field(specF, hess), evaluate_field(specG, hess)
    F_prev = F_u
    trace = IterationTrace()
    for _ in range(60):
        u, _ = campanato_solve(specF, alphaF, F_u - (G_u - g_phys), certF, config=inner_config, initial_guess=u)
        hess = spectral_hessian(u, PHYSICAL)
        F_u, G_u = evaluate_field(specF, hess), evaluate_field(specG, hess)
        floor = STAGNATION_FLOOR * max(1.0, l2_norm(F_u), gnorm)
        if trace.advance(l2_norm(F_u - F_prev), l2_norm(G_u - g_phys), tol_abs, floor):
            break
        F_prev = F_u
    return u, trace


@pytest.fixture(autouse=True)
def fresh_admission():
    """Each test starts with empty admission memos, so the calls it guards or counts compute."""
    nu_FG_estimate.cache_clear()
    empirical_nu_F.cache_clear()


@pytest.fixture
def drawn(monkeypatch):
    """Sizes of the standard normal and uniform draws of every generator made from here on.

    A draw into a caller's array (``out=``) counts that array's size.  The
    certify sampler draws its Gaussian values as uniforms (Box–Muller).
    """
    sizes = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, size=None, out=None):
            sizes.append(out.size if out is not None else np.prod(size))
            return self.rng.standard_normal(size, out=out)

        def random(self, size=None, dtype=np.float64, out=None):
            sizes.append(out.size if out is not None else np.prod(size))
            return self.rng.random(size, dtype, out)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    return sizes


def cert_with(beta, gamma, nu=1.0, alpha_sup=1.0):
    return EllipticityCertificate(
        nu=nu, beta=beta, gamma=gamma, lam=(1 - gamma) / 2, kappa=beta / 2,
        alpha=1.0, alpha_bounds=(alpha_sup, 1.0 / alpha_sup), lipschitz_M=1.0,
    )


class TestLowerBound:
    def test_arithmetic(self):
        assert nu_F_lower_bound(cert_with(0.125, 0.125)) == pytest.approx(0.5)

    def test_linear_limit_recovers_nu(self):
        bound = nu_F_lower_bound(cert_with(1e-6, 1e-6, nu=2.0))
        assert bound == pytest.approx(2.0, rel=1e-2)

    def test_lipschitz_class_bound_positive(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        cert = example1_certificate(spec, nu=1.0)
        assert nu_F_lower_bound(cert) > 0


class TestIncrementDistance:
    def test_same_spec_is_zero(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        est = nu_FG_estimate(spec, spec)
        assert est.sampled == 0.0
        assert est.analytic == 0.0

    def test_sine_pair_bounded_by_amplitude_gap(self, identity22):
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        specG = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.42))
        est = nu_FG_estimate(specF, specG)
        assert est.analytic == pytest.approx(0.12)
        assert est.sampled <= est.analytic + 1e-9
        assert est.sampled > 0

    def test_linear_part_difference(self, identity22):
        # tensors differ by c * identity: increment distance is c |Z:I| / |Z|
        c = 0.2
        other = SymTensor4(identity22.entries * (1 + c))
        specF = NonlinearitySpec(tensor=identity22)
        specG = NonlinearitySpec(tensor=other)
        est = nu_FG_estimate(specF, specG)
        assert est.analytic is None
        assert c <= est.sampled <= c * np.sqrt(2) + 1e-9

    @pytest.mark.parametrize("mF, mG", [(16, 8), (8, 16)])
    def test_weight_fields_on_different_grids_are_an_input_error(self, identity22, mF, mG):
        # the sampled grid points are shared, so F's and G's weights must lie on one grid
        specF = NonlinearitySpec(tensor=identity22, weight=np.ones((mF, mF)))
        specG = NonlinearitySpec(tensor=identity22, weight=np.full((mG, mG), 2.0))
        with pytest.raises(InputError, match="different grids"):
            nu_FG_estimate(specF, specG)

    def test_pairs_of_two_specs_share_the_draws_of_one(self, identity22):
        # the admission sampler is the certificate sampler: X, then Z, then the grid points
        rng = np.random.default_rng(5)
        weightF, weightG = 1.0 + rng.random((8, 8)), 2.0 + rng.random((8, 8))
        specF = NonlinearitySpec(tensor=identity22, weight=weightF)
        specG = NonlinearitySpec(tensor=identity22, weight=weightG)
        sampler = SamplerConfig(count=50, seed=3)
        # each generator checks out its own work arrays, so both may be live at once
        for one, two in zip(_increments(sampler, specF), _increments(sampler, specF, specG)):
            scale, flat, X, Z, AZ, (dF,), zz, waz = one
            assert two[0] == scale
            np.testing.assert_array_equal(two[1], flat)
            np.testing.assert_array_equal(two[2], X)
            np.testing.assert_array_equal(two[3], Z)
            for got, want in zip((two[4], two[5][0], two[6], two[7]), (AZ, dF, zz, waz)):
                assert got.tobytes() == want.tobytes()
            # G's weights are read at F's grid points: the linear increment is weight * A:Z
            np.testing.assert_allclose(two[5][1], weightG.ravel()[flat] * AZ, rtol=1e-12, atol=1e-12)

    def test_empirical_at_least_certified(self, grid32, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        cert = example1_certificate(spec, nu=1.0)
        lower = nu_F_lower_bound(cert)
        assert empirical_nu_F(spec, grid32) >= lower - 1e-9


def hermitian_extension(half, grid):
    """Full-grid coefficients (N, M, ..., M) of half-spectrum ones: c(-k) = conj(c(k)) fills k_n > M/2."""
    cut = grid.M // 2 + 1
    full = np.zeros((grid.N,) + grid.shape, dtype=complex)
    full[..., :cut] = half
    mirror = np.conj(full)
    for axis in range(1, grid.n + 1):
        mirror = np.roll(np.flip(mirror, axis=axis), 1, axis=axis)
    full[..., cut:] = mirror[..., cut:]
    return full


def hessian_distance(hw: HessianPairs, hv: HessianPairs) -> float:
    """||D^2 w - D^2 v||, the L2 norm over all n^2 components, of two packed hessians."""
    return HessianPairs(hw.grid, hw.data - hv.data).norm()


def reference_empirical_nu_F(spec, grid):
    """empirical_nu_F on its own 16 fields, through physical fields, spectral_hessian and evaluate_field."""
    band = max(1, grid.M // 4)
    coefs = [coef.copy() for coef in _band_half_spectra(grid, band, 2 * EMPIRICAL_PAIRS, EMPIRICAL_SEED)]
    fields = [VectorField(grid, hermitian_extension(coef, grid), SPECTRAL).to_physical() for coef in coefs]
    best = np.inf
    for w, v in zip(fields[::2], fields[1::2]):
        hw = spectral_hessian(w, PHYSICAL)
        hv = spectral_hessian(v, PHYSICAL)
        num = l2_norm(evaluate_field(spec, hw) - evaluate_field(spec, hv))
        den = hessian_distance(hw, hv)
        if den > 0:
            best = min(best, num / den)
    return float(best)


def admission_specs(n, M):
    A = identity_tensor(n, 2)
    weight = 1.0 + 0.5 * np.random.default_rng(40 + n).random((M,) * n)
    return {
        "sine": NonlinearitySpec(tensor=A, perturbation=SinePerturbation(amplitude=0.4)),
        "norm_combo": NonlinearitySpec(tensor=A, perturbation=NormComboPerturbation(b=0.2, c=0.1)),
        "weight_field": NonlinearitySpec(tensor=A, weight=weight, perturbation=SinePerturbation(amplitude=0.3)),
    }


class TestEmpiricalModulus:
    @pytest.mark.parametrize("n, M", [(2, 32), (3, 8)])
    @pytest.mark.parametrize("kind", ["sine", "norm_combo", "weight_field"])
    def test_half_spectrum_value_is_the_full_hessian_value(self, n, M, kind):
        grid = GridSpec(n=n, N=2, M=M)
        spec = admission_specs(n, M)[kind]
        expected = reference_empirical_nu_F(spec, grid)
        assert empirical_nu_F(spec, grid) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n, M", [(2, 32), (3, 8)])
    def test_admission_builds_no_full_hessian(self, monkeypatch, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        spec = admission_specs(n, M)["weight_field"]
        expected = reference_empirical_nu_F(spec, grid)
        half_spectrum(grid)  # its multiplier table is built once per grid, outside the guarded call

        def refuse(*args, **kwargs):
            raise AssertionError("the admission took a full-grid transform or hessian")

        # the module takes no n^2 hessian anywhere, so there is no spectral_hessian of its own to refuse
        assert not hasattr(stability, "spectral_hessian")
        for name in ("fftn", "ifftn", "rfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        for name in ("fftn", "ifftn", "rfftn"):
            monkeypatch.setattr(scipy.fft, name, refuse)
        monkeypatch.setattr(HessianField, "__post_init__", refuse)
        assert empirical_nu_F(spec, grid) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n, M", [(2, 32), (3, 8)])
    def test_a_first_call_draws_only_the_band_and_a_repeat_draws_nothing(self, drawn, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        spec = admission_specs(n, M)["sine"]
        drawn.clear()  # the specs' weight field is a uniform draw of the set-up, not of the call
        first = empirical_nu_F(spec, grid)
        band = M // 4
        per_call = 2 * 2 * EMPIRICAL_PAIRS * grid.N * (2 * band + 1) ** (n - 1) * (band + 1)
        assert sum(drawn) == per_call
        # the same spec on an equal grid: the memo answers, with no draw
        assert empirical_nu_F(spec, GridSpec(n=n, N=2, M=M)) == first
        assert sum(drawn) == per_call


def nan_off_zero(X):
    return np.where((X**2).sum(axis=(-2, -1)) > 0, np.nan, 0.0)


def weight_field(at_3_5=1.5):
    w = np.full((16, 16), 1.5)
    w[3, 5] = at_3_5
    return w


def tanh_hook(X):
    return 0.1 * np.tanh(X.sum(axis=(-2, -1)))


class TestAdmissionMemo:
    """One computation per (F, G) and per (F, grid): specs keyed by identity, grids by value."""

    grid = GridSpec(n=2, N=2, M=16)
    G = NonlinearitySpec(tensor=identity_tensor(2, 2), perturbation=SinePerturbation(amplitude=0.35))

    @staticmethod
    def spec(tensor=None, weight=1.0, perturbation=SinePerturbation(amplitude=0.3)):
        return NonlinearitySpec(tensor=tensor or identity_tensor(2, 2), weight=weight, perturbation=perturbation)

    @pytest.mark.parametrize("kind", ["sine", "norm_combo", "weight_field"])
    def test_a_repeat_with_the_same_spec_is_computed_once(self, drawn, kind):
        spec = admission_specs(2, 16)[kind]
        estimate = nu_FG_estimate(spec, self.G)
        empirical = empirical_nu_F(spec, GridSpec(n=2, N=2, M=16))
        assert sum(drawn) > 0
        drawn.clear()
        assert nu_FG_estimate(spec, self.G) is estimate
        assert empirical_nu_F(spec, GridSpec(n=2, N=2, M=16)) == empirical
        assert drawn == []

    @pytest.mark.parametrize(
        "base, changed",
        [
            ({}, {}),
            ({}, {"tensor": SymTensor4(1.25 * identity_tensor(2, 2).entries)}),
            ({}, {"weight": 1.5}),
            ({"weight": weight_field()}, {"weight": weight_field(at_3_5=2.5)}),
            ({}, {"perturbation": SinePerturbation(amplitude=0.31)}),
            ({}, {"perturbation": NormComboPerturbation(b=0.2, c=0.1)}),
            (
                {"perturbation": CustomPerturbation(fn=tanh_hook, lipschitz=0.2, name="tanh")},
                {"perturbation": CustomPerturbation(fn=lambda X: 0.5 * tanh_hook(X), lipschitz=0.1, name="tanh")},
            ),
        ],
        ids=["rebuilt-equal", "tensor", "constant-weight", "weight-field-value", "sine-amplitude", "kind", "custom-hook"],
    )
    def test_a_new_spec_object_is_computed_and_both_are_kept(self, drawn, base, changed):
        # a spec built anew, equal or with one part changed, is a new key
        first, second = self.spec(**base), self.spec(**{**base, **changed})
        for compute in (lambda s: nu_FG_estimate(s, self.G), lambda s: empirical_nu_F(s, self.grid)):
            compute(first)
            drawn.clear()
            compute(second)
            assert drawn, "the changed spec is computed"
            drawn.clear()
            compute(first)
            compute(second)
            assert drawn == [], "both values are kept"

    @pytest.mark.parametrize("grid", [GridSpec(n=2, N=2, M=32), GridSpec(n=2, N=2, M=16, L=2.0)], ids=["M", "L"])
    def test_changing_the_grid_recomputes(self, drawn, grid):
        spec = self.spec()
        empirical_nu_F(spec, self.grid)
        drawn.clear()
        empirical_nu_F(spec, grid)
        assert drawn, "the changed grid is computed"
        drawn.clear()
        empirical_nu_F(spec, self.grid)
        empirical_nu_F(spec, grid)
        assert drawn == [], "both values are kept"

    def test_a_kept_value_is_the_value_after_cache_clear_bit_for_bit(self):
        spec = admission_specs(2, 16)["sine"]
        first = nu_FG_estimate(spec, self.G), empirical_nu_F(spec, self.grid)
        kept = nu_FG_estimate(spec, self.G), empirical_nu_F(spec, self.grid)
        assert kept[0] is first[0]
        nu_FG_estimate.cache_clear()
        empirical_nu_F.cache_clear()
        fresh = nu_FG_estimate(spec, self.G), empirical_nu_F(spec, self.grid)
        assert fresh[0] is not kept[0]
        assert fresh[0].sampled.hex() == kept[0].sampled.hex()
        assert fresh[0].analytic.hex() == kept[0].analytic.hex()
        assert fresh[1].hex() == kept[1].hex()

    def test_a_hook_returning_nan_raises_on_every_call(self, drawn):
        spec = self.spec(perturbation=CustomPerturbation(fn=nan_off_zero, lipschitz=0.1, name="nan-off-zero"))
        for _ in range(2):
            drawn.clear()
            with pytest.raises(EvaluationError):
                nu_FG_estimate(spec, self.G)
            with pytest.raises(EvaluationError):
                empirical_nu_F(spec, self.grid)
            assert len(drawn) > 2, "each call draws again"

    def test_a_write_to_the_callers_weight_changes_no_kept_value(self):
        w = 1.0 + 0.5 * np.random.default_rng(41).random((16, 16))
        spec = self.spec(weight=w)
        before = nu_FG_estimate(spec, self.G), empirical_nu_F(spec, self.grid)
        w *= 3.0
        assert not np.shares_memory(spec.weight, w)
        assert (nu_FG_estimate(spec, self.G), empirical_nu_F(spec, self.grid)) == before
        nu_FG_estimate.cache_clear()
        empirical_nu_F.cache_clear()
        assert (nu_FG_estimate(spec, self.G), empirical_nu_F(spec, self.grid)) == before
        assert empirical_nu_F(self.spec(weight=w), self.grid) != before[1]


class TestCertificateSuspect:
    """The sampled modulus of F may not fall below the certified bound on it."""

    def problem(self, grid32, identity22, distance):
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF, nu=1.0)
        empirical = empirical_nu_F(specF, grid32)
        # nu forged upward until the certified bound is twice the sampled modulus
        forged = replace(certF, nu=certF.nu * 2 * empirical / nu_F_lower_bound(certF))
        specG = NonlinearitySpec(
            tensor=identity22, perturbation=SinePerturbation(amplitude=0.3 + distance * nu_F_lower_bound(forged))
        )
        g = evaluate_field(specG, spectral_hessian(random_band_limited(grid32, band=5, seed=0), PHYSICAL))
        return specF, specG, certF, forged, g, empirical

    def test_forged_certificate_is_flagged(self, grid32, identity22):
        specF, specG, certF, forged, g, empirical = self.problem(grid32, identity22, 0.01)
        _, report = solve_via_nearness(specF, specG, 1.0, forged, g)
        assert report.condition_met
        assert report.nu_F_empirical == empirical < report.nu_F_lower
        assert report.certificate_suspect is True
        assert report.as_dict()["certificate_suspect"] is True
        _, true_report = solve_via_nearness(specF, specG, 1.0, certF, g)
        assert true_report.certificate_suspect is False

    def test_refusal_report_flags_it_too(self, grid32, identity22):
        specF, specG, _, forged, g, _ = self.problem(grid32, identity22, 2.0)
        with pytest.raises(NearnessConditionError) as err:
            solve_via_nearness(specF, specG, 1.0, forged, g)
        assert err.value.report.condition_met is False
        assert err.value.report.as_dict()["certificate_suspect"] is True


class TestSolveViaNearness:
    def test_manufactured_perturbed(self, grid32, identity22):
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF, nu=1.0)
        lower = nu_F_lower_bound(certF)
        delta = 0.1 * lower
        specG = NonlinearitySpec(
            tensor=identity22, perturbation=SinePerturbation(amplitude=0.3 + delta)
        )
        ustar = random_band_limited(grid32, band=5, seed=0)
        g = evaluate_field(specG, spectral_hessian(ustar, PHYSICAL))
        u, report = solve_via_nearness(specF, specG, 1.0, certF, g)
        assert report.condition_met
        assert report.admission_margin == lower - report.nu_FG.effective > 0
        doc = report.as_dict()
        assert set(doc) == {
            "nu_F_lower", "nu_F_empirical", "nu_FG_sampled", "nu_FG_analytic",
            "condition_met", "outer_iterations", "inner_iterations", "admission_margin", "certificate_suspect",
        }
        assert doc["certificate_suspect"] is False
        assert doc["admission_margin"] == report.admission_margin
        assert doc["nu_F_lower"] == lower and doc["condition_met"] is True
        assert report.outer_trace.status == "converged"
        hs = spectral_hessian(ustar, PHYSICAL)
        rel = hessian_distance(spectral_hessian(u, PHYSICAL), hs) / hs.norm()
        assert rel <= 1e-7
        assert all(r <= 0.15 for r in report.outer_trace.ratios)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_a_cold_start_is_a_start_from_zero_bit_for_bit(self, monkeypatch, weighted):
        grid = GridSpec(n=2, N=2, M=16)
        A = identity_tensor(2, 2)
        weight = 1.0 + 0.5 * np.random.default_rng(42).random(grid.shape) if weighted else 1.0
        specF = NonlinearitySpec(tensor=A, weight=weight, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF, nu=1.0)
        amplitude = 0.3 + 0.1 * nu_F_lower_bound(certF)
        specG = NonlinearitySpec(tensor=A, weight=weight, perturbation=SinePerturbation(amplitude=amplitude))
        g = evaluate_field(specG, spectral_hessian(random_band_limited(grid, band=3, seed=43), PHYSICAL))
        alphaF = 1.0 / weight
        u_zero, trace_zero = outer_loop_from_zero(specF, specG, alphaF, certF, g)
        empirical_nu_F(specF, grid)  # the admission's own hessians are taken before the count
        hessians, inner = [], []
        hessian_pairs, iterate = HalfSpectrum.hessian_pairs, stability._iterate

        def counted(half, coef, work=None, out=None):
            hessians.append(coef)
            return hessian_pairs(half, coef, work, out)

        def solved(*args, **kwargs):
            out = iterate(*args, **kwargs)
            inner.append(out[3].iterations)
            return out

        monkeypatch.setattr(HalfSpectrum, "hessian_pairs", counted)
        monkeypatch.setattr(stability, "_iterate", solved)
        u, report = solve_via_nearness(specF, specG, alphaF, certF, g)
        assert report.outer_trace.status == trace_zero.status == "converged"
        assert u.data.tobytes() == u_zero.data.tobytes()
        assert report.outer_trace.to_csv() == trace_zero.to_csv()
        # no hessian of zero: one inner solve per outer step, and one hessian per inner
        # iteration, of that iteration's iterate
        assert len(inner) == report.outer_trace.iterations
        assert len(hessians) == sum(inner)
        assert all(np.any(coef) for coef in hessians)

    def test_outer_loop_packs_each_hessian_once(self, monkeypatch, grid32, identity22):
        # F of an outer iterate comes from its inner solve, and G is taken on that solve's last packed hessian
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF, nu=1.0)
        amplitude = 0.3 + 0.1 * nu_F_lower_bound(certF)
        specG = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=amplitude))
        g = evaluate_field(specG, spectral_hessian(random_band_limited(grid32, band=5, seed=0), PHYSICAL))
        inner_F, outer_G, solves = [], [], []
        iterate, evaluate_pairs = stability._iterate, campanato_module.evaluate_pairs

        def inner(spec, X, weight, out=None):
            values = evaluate_pairs(spec, X, weight, out)
            if X.shape[-1] == grid32.points:  # not F(., 0), which is taken at one point
                inner_F.append((spec, X, values))
            return values

        def outer(spec, hess):
            out = evaluate_field(spec, hess)
            outer_G.append((spec, hess, out))
            return out

        def solved(*args, **kwargs):
            out = iterate(*args, **kwargs)
            solves.append((out, len(inner_F)))
            return out

        empirical_nu_F(specF, grid32)  # the admission's own evaluations are made before the count
        monkeypatch.setattr(campanato_module, "evaluate_pairs", inner)
        monkeypatch.setattr(stability, "evaluate_field", outer)
        monkeypatch.setattr(stability, "_iterate", solved)
        # the start at zero takes F(., 0) and G(., 0) at one point
        _, report = solve_via_nearness(specF, specG, 1.0, certF, g)
        outer = report.outer_trace.iterations
        assert outer >= 2 and len(solves) == len(outer_G) == outer
        # F once per inner iteration, none again for the next solve's warm start
        assert len(inner_F) == sum(out[3].iterations for out, _ in solves)
        for ((_, hess, F, _), seen), (spec, G_hess, _) in zip(solves, outer_G):
            assert isinstance(hess, HessianPairs) and spec is specG
            # the solve returns the hessian and F its last iteration wrote, and G reads that same hessian
            F_spec, X, values = inner_F[seen - 1]
            assert F_spec is specF
            assert np.shares_memory(X, hess.data) and np.shares_memory(values, F.data)
            assert G_hess is hess

    def test_an_overflowing_inner_right_hand_side_is_refused(self, monkeypatch, grid32, identity22):
        # F - (G - g) of finite F and G at the edge of the float range overflows to inf
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF, nu=1.0)
        amplitude = 0.3 + 0.1 * nu_F_lower_bound(certF)
        specG = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=amplitude))
        g = evaluate_field(specG, spectral_hessian(random_band_limited(grid32, band=5, seed=0), PHYSICAL))
        at_zero = stability._at_zero_hessian

        def at_the_edge(spec, grid):
            return np.full_like(at_zero(spec, grid), 1.5e308 if spec is specF else -1.5e308)

        monkeypatch.setattr(stability, "_at_zero_hessian", at_the_edge)
        with np.errstate(over="ignore"), pytest.raises(InputError, match="right-hand side has non-finite values"):
            solve_via_nearness(specF, specG, 1.0, certF, g)

    def test_consistency_with_direct_solver(self, grid32, identity22):
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF, nu=1.0)
        ustar = random_band_limited(grid32, band=5, seed=1)
        f = evaluate_field(specF, spectral_hessian(ustar, PHYSICAL))
        u_direct, _ = campanato_solve(specF, 1.0, f, certF)
        u_outer, report = solve_via_nearness(specF, specF, 1.0, certF, f)
        assert report.outer_trace.iterations == 1
        tol_abs = 1e-8 * l2_norm(f)
        d = l2_norm(apply_operator(identity22, u_direct - u_outer))
        assert d <= 10 * tol_abs

    def test_refusal_with_report(self, grid32, identity22):
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF, nu=1.0)
        lower = nu_F_lower_bound(certF)
        specG = NonlinearitySpec(
            tensor=identity22, perturbation=SinePerturbation(amplitude=0.3 + 2 * lower)
        )
        g = random_band_limited(grid32, band=4, seed=2)
        with pytest.raises(NearnessConditionError) as err:
            solve_via_nearness(specF, specG, 1.0, certF, g)
        assert err.value.report.condition_met is False
        assert err.value.report.outer_trace is None
        doc = err.value.report.as_dict()
        assert doc["admission_margin"] == lower - err.value.report.nu_FG.effective <= 0
        assert doc["nu_F_lower"] == lower and doc["condition_met"] is False
        assert doc["certificate_suspect"] is False

    def test_increment_inequality_on_fields(self, grid32, identity22):
        # the operator-distance bound transfers to field pairs with the
        # empirical modulus computed over the same pairs
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        specG = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.35))
        est = nu_FG_estimate(specF, specG)
        pairs = []
        for seed in range(6):
            w = random_band_limited(grid32, band=5, seed=500 + seed)
            v = random_band_limited(grid32, band=5, seed=600 + seed)
            hw, hv = spectral_hessian(w, PHYSICAL), spectral_hessian(v, PHYSICAL)
            dF = evaluate_field(specF, hw) - evaluate_field(specF, hv)
            dG = evaluate_field(specG, hw) - evaluate_field(specG, hv)
            pairs.append((l2_norm(dF - dG), l2_norm(dF), hessian_distance(hw, hv)))
        nu_emp = min(dF / dh for _, dF, dh in pairs)
        for gap, dF, _ in pairs:
            assert gap <= (est.effective / nu_emp) * dF + 1e-9


class TestOuterStoppingRule:
    """The outer loop stops by the inner loop's rule: residual, round-off stall, divergence."""

    def test_admitted_divergence_raises(self, identity22, monkeypatch):
        # G = 3 A:X makes the outer map expand by 2; a forged admission lets it in
        grid = GridSpec(n=2, N=2, M=16)
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF, nu=1.0)
        specG = NonlinearitySpec(tensor=identity22, weight=3.0)
        monkeypatch.setattr(stability, "nu_FG_estimate", lambda F, G: NuFGEstimate(sampled=0.0, analytic=0.0))
        g = evaluate_field(specG, spectral_hessian(random_band_limited(grid, band=3, seed=5), PHYSICAL))
        with pytest.raises(DivergenceError) as err:
            solve_via_nearness(specF, specG, 1.0, certF, g)
        trace = err.value.trace
        assert trace.status == "diverged"
        assert trace.iterations == 6
        assert all(r > 1 for r in trace.ratios)
        assert err.value.certificate is certF

    def test_the_report_counts_the_inner_iterations_of_each_outer_step(self, identity22, monkeypatch):
        # the first inner solve's right-hand side is g = G(D^2 u*), whose mean no
        # zero-mean F-iterate matches: it stops as a stall once that is certain
        grid = GridSpec(n=2, N=2, M=16)
        specF = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF)
        specG = NonlinearitySpec(
            tensor=identity22, perturbation=SinePerturbation(amplitude=0.3 + 0.1 * nu_F_lower_bound(certF))
        )
        g = evaluate_field(specG, spectral_hessian(random_band_limited(grid, band=4, seed=12), PHYSICAL))
        traces = []
        iterate = stability._iterate

        def record(*args):
            out = iterate(*args)
            traces.append(out[3])
            return out

        monkeypatch.setattr(stability, "_iterate", record)
        _, report = solve_via_nearness(specF, specG, certF.alpha, certF, g)
        assert report.outer_trace.status == "converged"
        assert report.inner_iterations == tuple(t.iterations for t in traces)
        assert len(report.inner_iterations) == report.outer_trace.iterations
        assert report.as_dict()["inner_iterations"] == list(report.inner_iterations)
        assert traces[0].status == "max_iters"
        # without the stall bounds the first inner solve runs on to the round-off floor
        monkeypatch.setattr(campanato_module, "_reach", lambda certificate, alpha: (np.inf, np.inf))
        traces.clear()
        _, full = solve_via_nearness(specF, specG, certF.alpha, certF, g)
        assert traces[0].status == "max_iters"
        assert full.inner_iterations[0] > report.inner_iterations[0]

    def test_stall_stops_at_round_off(self):
        # the rhs is F(D^2 u*), not G(D^2 u*): its mean is out of G's reach in
        # the zero-mean gauge, so the residual stalls near 3.9e-4 and the step
        # reaches the round-off floor at outer iteration 6; the inner solves
        # stop once their own tolerance is out of reach, in 14 iterations in
        # all where running each to its round-off floor took 23
        grid = GridSpec(3, 2, 16)
        A = identity_tensor(3, 2)
        specF = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(amplitude=0.3))
        certF = example1_certificate(specF)
        lower = nu_F_lower_bound(certF)
        specG = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(amplitude=0.3 + 0.05 * lower))
        ustar = random_band_limited(grid, 4, 7)
        g = evaluate_field(specF, spectral_hessian(ustar, PHYSICAL))
        _, report = solve_via_nearness(specF, specG, 1.0, certF, g)
        trace = report.outer_trace
        assert trace.status == "max_iters"
        assert trace.iterations == 6
        assert sum(report.inner_iterations) < 23
        # the residual that 60 outer iterations reach
        assert trace.final_residual == pytest.approx(3.9162646243407834e-4, rel=1e-9)
