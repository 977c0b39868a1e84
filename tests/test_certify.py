import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearelliptic import (
    EllipticityCertificate,
    NonlinearitySpec,
    NormComboPerturbation,
    SamplerConfig,
    SinePerturbation,
    def1_from_def2,
    def2_from_def1,
    example1_certificate,
    fit_k_condition,
    identity_tensor,
    lemma1_check,
    verify_k_condition,
)
from nearelliptic import certify, fields
from nearelliptic.certify import (
    ABSORB_STEPS,
    CONSTANT_FLOOR,
    _draw_symmetric,
    _increments,
    _standard_normal,
    example1_alpha,
)
from nearelliptic.counterexamples import saturating_witness, window_constants
from nearelliptic.errors import InputError
from nearelliptic.nonlinearity import evaluate_F, evaluate_pairs
from nearelliptic.tensors import SymTensor4, contract_pairs, ellipticity_constant, random_rank_one_positive

from conftest import one_draw_box_muller

MISSING = object()
# every positive finite float, subnormals included
POSITIVE_FLOATS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def box_muller(rng, size):
    """Textbook Box–Muller on one draw of 2 ceil(size/2) uniforms: r cos theta, then r sin theta (the last dropped when size is odd)."""
    half = (size + 1) // 2
    u = rng.random(2 * half)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:half]))
    theta = 2.0 * (np.pi * (u[half:] - 0.5))
    return np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:size]


class TestVerify:
    def test_linear_always_certifies(self, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        report = verify_k_condition(spec, 1.0, beta=0.01, gamma=0.01, nu=1.0)
        assert report.certified
        assert report.worst_violation < 0

    def test_worst_sample_is_where_the_worst_violation_occurred(self, identity22):
        # a pair too small for the perturbation, so the worst sample is a real violation
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.5))
        beta, gamma = 0.01, 0.01
        report = verify_k_condition(spec, 1.0, beta, gamma, SamplerConfig(count=300, seed=2), nu=1.0)
        scale, X, Z, al = report.worst_sample
        worst = int(np.argmax(report.violations))
        assert report.worst_violation == report.violations[worst] > 0
        assert scale == report.scales[worst]
        assert X.shape == Z.shape == (2, 2, 2)
        AZ = np.trace(Z, axis1=1, axis2=2)
        diff = evaluate_F(spec, X + Z) - evaluate_F(spec, X)
        gap = ((AZ - al * diff) ** 2).sum() - beta * (Z**2).sum() - gamma * (AZ**2).sum()
        assert gap == pytest.approx(report.worst_violation, rel=1e-9)

    def test_lipschitz_class_with_weight_field(self, identity22):
        # alpha = 1/g^2 cancels the weighted linear part exactly
        rng = np.random.default_rng(0)
        weight = 0.5 + rng.random((6, 6))
        rho = 0.5
        spec = NonlinearitySpec(
            tensor=identity22,
            weight=weight,
            perturbation=SinePerturbation(amplitude=rho * weight.min()),
        )
        assert spec.lipschitz_ratio(1.0) == pytest.approx(rho)
        report = verify_k_condition(
            spec, 1.0 / weight, beta=rho**2, gamma=(1 - rho**2) / 2, nu=1.0
        )
        assert report.certified

    def test_scale_sweep_invariance_for_linear(self, identity22):
        # pure quadratic scaling: violations computed at widely different Z
        # scales stay certified for a linear map
        spec = NonlinearitySpec(tensor=identity22)
        report = verify_k_condition(spec, 1.0, beta=0.01, gamma=0.01, nu=1.0, sampler=SamplerConfig(count=500, seed=1))
        for scale in (1e-2, 1e2):
            violations = report.violations[report.scales == scale]
            assert len(violations) == 500 and violations.max() <= 0.0

    def test_exact_homogeneity_of_linear_gap(self, identity22):
        # for linear F the whole gap is exactly quadratic in Z, so rescaling
        # Z cannot change the sign of any sampled violation
        spec = NonlinearitySpec(tensor=identity22)
        rng = np.random.default_rng(17)
        beta_g = (0.05, 0.2)
        nu = 1.0
        for _ in range(20):
            Z = rng.standard_normal((2, 2, 2))
            Z = 0.5 * (Z + Z.transpose(0, 2, 1))
            X = rng.standard_normal((2, 2, 2))
            X = 0.5 * (X + X.transpose(0, 2, 1))

            def violation(Zs):
                AZ = np.trace(Zs, axis1=1, axis2=2)
                diff = evaluate_F(spec, X + Zs) - evaluate_F(spec, X)
                lhs = ((AZ - diff) ** 2).sum()
                return lhs - beta_g[0] * nu**2 * (Zs**2).sum() - beta_g[1] * (AZ**2).sum()

            base = violation(Z)
            for s in (1e-2, 1e2):
                assert violation(s * Z) == pytest.approx(s**2 * base, rel=1e-12)

    def test_norm_combo_witness_violation_outside_window(self, identity22):
        # scalar-template witness transplants to the lifted spec: first
        # component carries the witness, second stays zero
        n, b, c = 2, None, None
        from nearelliptic.counterexamples import default_parameters

        b, c = default_parameters(9)
        spec9 = NonlinearitySpec(
            tensor=identity_tensor(9, 2), perturbation=NormComboPerturbation(b=b, c=c)
        )
        alpha = 2.4  # far outside the admissible window for these parameters
        gamma, beta = window_constants(alpha, b, c)
        Z0 = saturating_witness(9, alpha, b, c)
        Z = np.zeros((2, 9, 9))
        Z[0] = Z0
        X = np.zeros((2, 9, 9))
        AZ = np.trace(Z, axis1=1, axis2=2)
        diff = evaluate_F(spec9, X + Z) - evaluate_F(spec9, X)
        lhs = ((AZ - alpha * diff) ** 2).sum()
        rhs_feasible = (beta * (Z**2).sum() + gamma * (AZ**2).sum()) / (beta + gamma)
        assert beta + gamma >= 1
        assert lhs >= rhs_feasible - 1e-12

    def test_rejects_nonpositive_constants(self, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        with pytest.raises(InputError):
            verify_k_condition(spec, 1.0, beta=0.0, gamma=0.5, nu=1.0)

    def test_an_alpha_field_needs_a_weight_field(self, identity22):
        # the samples draw grid points only for a spatially varying weight; with none, an alpha field has no points
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        with pytest.raises(InputError, match="spatially varying alpha requires a spatially varying weight grid"):
            verify_k_condition(spec, np.ones((8, 8)), 0.09, 0.455, SamplerConfig(count=50, seed=1), nu=1.0)


class TestSampler:
    @pytest.mark.parametrize(
        "kwargs",
        [{"count": 0}, {"count": -3}, {"count": 2.5}, {"count": True}],
    )
    def test_a_malformed_plan_is_an_input_error(self, kwargs):
        with pytest.raises(InputError, match="sampler"):
            SamplerConfig(**kwargs)

    @pytest.mark.parametrize("n, N", [(2, 2), (3, 2), (4, 3)])
    def test_packed_draw_is_the_distinct_entries_with_off_diagonal_slots_scaled(self, n, N):
        rng, ref = np.random.default_rng(23), np.random.default_rng(23)
        shape = (N, n * (n + 1) // 2, 40)
        got = _draw_symmetric(rng, np.empty(shape), n)
        want = box_muller(ref, got.size).reshape(shape)
        rows, cols = np.triu_indices(n)
        want[:, rows != cols] *= np.sqrt(0.5)
        assert got.shape == want.shape and got.dtype == np.float64 and got.flags.c_contiguous
        # the same uniforms; cos and sin come from a half-angle tangent, so they agree to round-off
        np.testing.assert_allclose(got, want, rtol=1e-12)
        # the stream goes on where the packed draw left it
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (2, 1999), (3, 1999)])
    def test_every_entry_of_an_array_of_any_size_is_drawn(self, shape):
        # lemma 1 draws eta (N, count) and a (n, count), whose sizes may be odd
        out = np.full(shape, np.nan)
        _standard_normal(np.random.default_rng(5), out)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.ravel(), box_muller(np.random.default_rng(5), out.size), rtol=1e-12)

    @pytest.mark.parametrize(
        "size",
        [1, 2, 3] + [certify.NORMAL_TILE + d for d in (-1, 0, 1)] + [2 * certify.NORMAL_TILE + d for d in (-1, 0, 1, 3)],
    )
    def test_the_streamed_draw_is_the_one_draw_bit_for_bit(self, size):
        # the angle uniforms go through the tile in order, so values and stream are those of one draw of them all;
        # sizes 2 tile - 1 on take ceil(size/2) >= tile angles, so the tile wraps
        rng, ref = np.random.default_rng(size), np.random.default_rng(size)
        got = _standard_normal(rng, np.full(size, np.nan))
        assert got.tobytes() == one_draw_box_muller(ref, np.empty(size)).tobytes()
        assert rng.random() == ref.random()

    def test_the_draw_passes_a_kolmogorov_smirnov_test_against_the_standard_normal(self):
        values = _standard_normal(np.random.default_rng(31), np.empty(300_001))
        assert scipy.stats.kstest(values, "norm").pvalue > 1e-3

    def test_packed_draw_has_the_law_of_the_symmetrized_draw(self):
        # upper triangle of 0.5 (X + X^T): diagonal N(0, 1), off-diagonal N(0, 1/2), independent
        X = _draw_symmetric(np.random.default_rng(2024), np.empty((2, 6, 200_000)), 3).reshape(12, -1)
        rows, cols = np.triu_indices(3)
        variance = np.tile(np.where(rows == cols, 1.0, 0.5), 2)
        assert np.abs(X.mean(axis=1)).max() < 0.01
        np.testing.assert_allclose(X.var(axis=1), variance, rtol=0.01)
        correlation = np.corrcoef(X)
        assert np.abs(correlation[~np.eye(12, dtype=bool)]).max() < 0.01

    def test_every_scale_reads_one_ray(self, identity22):
        # X, then Z0, then the grid points, each drawn once; scale s reads Z = s * Z0
        weight = 1.0 + np.random.default_rng(4).random((6, 6))
        spec = NonlinearitySpec(tensor=identity22, weight=weight)
        sampler = SamplerConfig(count=64, seed=9)
        rng = np.random.default_rng(9)
        X0 = _draw_symmetric(rng, np.empty((2, 3, 64)), 2)
        Z0 = _draw_symmetric(rng, np.empty((2, 3, 64)), 2)
        flat0 = rng.integers(0, weight.size, size=64)
        w = weight.ravel()[flat0]
        multiplicity = np.array([1.0, 2.0, 1.0])  # slots (0, 0), (0, 1), (1, 1)
        scales = []
        # the yielded X and Z0 are work arrays, valid until the generator finishes, so each is checked as it comes
        for scale, flat, X, direction, AZ, (D,), zz, waz in _increments(sampler, spec):
            scales.append(scale)
            np.testing.assert_array_equal(X, X0)
            np.testing.assert_array_equal(flat, flat0)
            assert direction.tobytes() == Z0.tobytes()
            # A:Z, |Z|^2 and |A:Z|^2 are those of Z = s * Z0, bit for bit
            assert AZ.tobytes() == contract_pairs(identity22, scale * Z0).tobytes()
            assert zz.tobytes() == (multiplicity @ (scale * Z0) ** 2).sum(axis=0).tobytes()
            assert waz.tobytes() == (AZ**2).sum(axis=0).tobytes()
            # the weight is read at the drawn grid points: F is linear, so its increment is w A:Z
            np.testing.assert_allclose(D, w * AZ, rtol=1e-12, atol=1e-12 * scale)
        assert scales == list(certify.SCALES) == [1e-2, 1.0, 1e2]

    def test_a_verify_evaluates_F_once_at_X_and_once_per_scale(self, identity22, monkeypatch):
        calls = []

        def counted(spec, X, weight, out=None):
            calls.append(X.shape)
            return evaluate_pairs(spec, X, weight, out)

        monkeypatch.setattr(certify, "evaluate_pairs", counted)
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        monkeypatch.setattr(certify, "SCALES", (1e-2, 1.0, 1e2, 1e3))
        verify_k_condition(spec, 1.0, 0.09, 0.455, SamplerConfig(count=50, seed=4), nu=1.0)
        assert calls == [(2, 3, 50)] * (1 + 4)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3]),
        norm_combo=st.booleans(),
    )
    def test_fitted_constants_pass_verify_on_the_fitted_samples(self, seed, n, norm_combo):
        A = random_rank_one_positive(n, 2, seed=seed)[0]
        nu = ellipticity_constant(A).nu
        pert = NormComboPerturbation(0.2 * nu, 0.1 * nu) if norm_combo else SinePerturbation(0.3 * nu)
        spec = NonlinearitySpec(tensor=A, perturbation=pert)
        sampler = SamplerConfig(count=200, seed=seed)
        cert = fit_k_condition(spec, sampler, nu=nu)
        report = verify_k_condition(spec, cert.alpha, cert.beta, cert.gamma, sampler, nu=nu)
        # fit and verify read one set of sampled increments, so they see the same worst sample
        assert report.worst_violation == cert.worst_violation <= 0


@pytest.fixture
def workspaces(monkeypatch):
    """An empty store of kept work arrays for this test, restored after it."""
    store = {}
    monkeypatch.setattr(certify, "_workspaces", store)
    return store


def sine3(amplitude=0.3):
    return NonlinearitySpec(tensor=identity_tensor(3, 2), perturbation=SinePerturbation(amplitude))


class TestWorkspace:
    def test_a_second_verify_leaves_the_first_reports_arrays_as_they_were(self, workspaces):
        spec = sine3(0.6)
        first = verify_k_condition(spec, 1.0, 0.01, 0.01, SamplerConfig(count=500, seed=1), nu=1.0)
        kept = [first.violations.tobytes(), first.scales.tobytes()] + [x.tobytes() for x in first.worst_sample[1:3]]
        verify_k_condition(spec, 1.0, 0.01, 0.01, SamplerConfig(count=500, seed=2), nu=1.0)
        assert (500, 2, 3) in workspaces
        again = [first.violations.tobytes(), first.scales.tobytes()] + [x.tobytes() for x in first.worst_sample[1:3]]
        assert again == kept

    def test_no_report_or_increment_shares_memory_with_the_work_arrays(self, workspaces):
        spec = sine3()
        sampler = SamplerConfig(count=300, seed=4)
        report = verify_k_condition(spec, 1.0, 0.09, 0.455, sampler, nu=1.0)
        kept = [report.violations, report.scales, *report.worst_sample[1:3]]
        for _, _, _, _, AZ, D, zz, waz in _increments(sampler, spec):
            kept += [AZ, *D, zz, waz]
        fit_k_condition(spec, sampler, nu=1.0)
        work = workspaces[(300, 2, 3)]
        assert not any(np.shares_memory(array, work) for array in kept)

    def test_a_verify_after_a_lemma1_check_reads_as_in_a_fresh_workspace(self, workspaces):
        spec = sine3()
        sampler = SamplerConfig(count=400, seed=6)
        fresh = verify_k_condition(spec, 1.0, 0.09, 0.455, sampler, nu=1.0)
        lemma1_check(spec, lam=0.4, kappa=0.1, alpha=1.0, count=400, seed=7, nu=1.0)
        after = verify_k_condition(spec, 1.0, 0.09, 0.455, sampler, nu=1.0)
        assert after.violations.tobytes() == fresh.violations.tobytes()
        assert after.worst_violation == fresh.worst_violation
        assert [x.tobytes() for x in after.worst_sample[1:3]] == [x.tobytes() for x in fresh.worst_sample[1:3]]

    def test_every_uniform_is_drawn_into_the_work_arrays_or_one_small_tile(self, workspaces, monkeypatch):
        outs = []
        default_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, size=None, dtype=np.float64, out=None):
                outs.append(out)
                return self.rng.random(size, dtype, out)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        spec = sine3()
        verify_k_condition(spec, 1.0, 0.09, 0.455, SamplerConfig(count=301, seed=4), nu=1.0)
        lemma1_check(spec, lam=0.4, kappa=0.1, alpha=1.0, count=301, seed=5, nu=1.0)
        work = workspaces[(301, 2, 3)]
        # verify's X and Z0, then lemma 1's X, eta and a (3 x 301 values, an odd count): each draws its radius
        # uniforms into the work block and its angle uniforms, fewer than a tile here, into the tile
        assert all(out is not None for out in outs)
        assert [np.shares_memory(out, work) for out in outs] == [True, False] * 5
        assert all(out.size <= certify.NORMAL_TILE for out in outs[1::2])

    def test_the_kept_block_is_three_sample_arrays(self, workspaces):
        verify_k_condition(sine3(), 1.0, 0.09, 0.455, SamplerConfig(count=300, seed=1), nu=1.0)
        lemma1_check(NonlinearitySpec(tensor=identity_tensor(2, 3)), lam=0.4, kappa=0.1, alpha=1.0, count=70, nu=1.0)
        # X, Z0 and the array each scale forms Z and X + Z in
        assert {key: work.shape for key, work in workspaces.items()} == {(300, 2, 3): (3, 2, 6, 300), (70, 3, 2): (3, 3, 3, 70)}

    def test_two_live_generators_of_one_key_yield_distinct_arrays(self, workspaces):
        spec = sine3()
        sampler = SamplerConfig(count=200, seed=8)
        verify_k_condition(spec, 1.0, 0.09, 0.455, sampler, nu=1.0)
        assert (200, 2, 3) in workspaces  # kept, so the first generator is handed the kept arrays
        one, two = _increments(sampler, spec), _increments(sampler, spec)
        for a, b in zip(one, two):
            X, Z = a[2], a[3]
            assert not np.shares_memory(X, b[2]) and not np.shares_memory(Z, b[3])
            np.testing.assert_array_equal(X, b[2])
            np.testing.assert_array_equal(Z, b[3])

    def test_the_arrays_of_the_last_few_keys_are_kept(self, workspaces):
        spec = sine3()
        counts = range(10, 10 + certify.WORKSPACE_CACHE_SIZE + 2)
        for count in counts:
            verify_k_condition(spec, 1.0, 0.09, 0.455, SamplerConfig(count=count, seed=1), nu=1.0)
        assert list(workspaces) == [(count, 2, 3) for count in counts[-certify.WORKSPACE_CACHE_SIZE :]]

    @pytest.mark.parametrize("check", ["verify", "lemma1"])
    def test_the_work_block_is_held_to_the_memory_budget(self, workspaces, monkeypatch, check):
        # the three (N, n(n+1)/2, count) float64 arrays at N=2, n=3: 24 * 2 * 6 * count bytes
        count = 300
        block = 24 * 2 * 6 * count
        call = {
            "verify": lambda: verify_k_condition(sine3(), 1.0, 0.09, 0.455, SamplerConfig(count=count), nu=1.0),
            "lemma1": lambda: lemma1_check(sine3(), lam=0.4, kappa=0.1, alpha=1.0, count=count, nu=1.0),
        }[check]
        monkeypatch.setattr(fields, "_DEFAULT_BUDGET", block)
        call()
        assert workspaces[(count, 2, 3)].nbytes == block
        workspaces.clear()
        monkeypatch.setattr(fields, "_DEFAULT_BUDGET", block - 1)
        with pytest.raises(InputError, match=f"^{count} samples need a {block}-byte work block, over the memory"):
            call()
        assert not workspaces

    def test_a_count_past_the_budget_is_an_input_error_not_a_memory_error(self, workspaces):
        # 10**14 samples would need a 2.88e16-byte block: refused before it is allocated
        spec, count = sine3(), 10**14
        with pytest.raises(InputError, match="memory budget"):
            verify_k_condition(spec, 1.0, 0.09, 0.455, SamplerConfig(count=count), nu=1.0)
        with pytest.raises(InputError, match="memory budget"):
            lemma1_check(spec, lam=0.4, kappa=0.1, alpha=1.0, count=count, nu=1.0)
        with pytest.raises(InputError, match="memory budget"):
            fit_k_condition(spec, SamplerConfig(count=count), nu=1.0)

    @pytest.mark.parametrize("check", ["verify", "lemma1"])
    def test_a_warm_call_allocates_under_three_sample_arrays(self, workspaces, check):
        # count 15000 at N=2, n=3: one (N, n(n+1)/2, count) array is 1.44 MB
        count = 15000
        spec = sine3()
        calls = {
            "verify": lambda: verify_k_condition(spec, 1.0, 0.09, 0.455, SamplerConfig(count=count, seed=3), nu=1.0),
            "lemma1": lambda: lemma1_check(spec, lam=0.4, kappa=0.1, alpha=1.0, count=count, seed=3, nu=1.0),
        }
        calls[check]()
        tracemalloc.start()
        try:
            calls[check]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (2 * 6 * count * 8)

    def test_a_warm_verify_forms_each_scale_in_place(self, workspaces):
        # a sampler that drew into a fourth array and formed each scale's F(X + Z) - F(X) and gap out of place
        # peaked at 2.64 MiB (2768696 bytes) here; this one holds each scale's arrays once, in place
        spec, sampler = sine3(), SamplerConfig(count=15000, seed=3)
        verify_k_condition(spec, 1.0, 0.09, 0.455, sampler, nu=1.0)
        tracemalloc.start()
        try:
            verify_k_condition(spec, 1.0, 0.09, 0.455, sampler, nu=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.64 * 2**20


GAMMA_GRID = np.unique(np.concatenate([np.geomspace(CONSTANT_FLOOR, 0.99, 60), np.linspace(0.01, 0.99, 50)]))


def fit_with_full_matrix(spec, sampler, nu):
    """(alpha, beta, gamma, worst_violation) of fit_k_condition, its search forming the whole (samples x gammas) matrix."""
    alpha_grid = (1.0 / float(np.median(spec.weight))) * np.geomspace(0.1, 10.0, 41)
    batches = [(AZ, D, zz, waz) for _, _, _, _, AZ, (D,), zz, waz in _increments(sampler, spec)]
    AZ, D, zz, waz = (np.concatenate(part, axis=-1) for part in zip(*batches))
    best = None
    for alpha in alpha_grid:
        lhs = ((AZ - alpha * D) ** 2).sum(axis=0)
        needed = (lhs[:, None] - GAMMA_GRID[None, :] * waz[:, None]) / (nu**2 * zz[:, None])
        beta_req = np.maximum(needed.max(axis=0), CONSTANT_FLOOR)
        sums = beta_req + GAMMA_GRID
        k = int(np.argmin(sums))
        if best is None or sums[k] < best[0]:
            best = (float(sums[k]), float(alpha), float(beta_req[k]), float(GAMMA_GRID[k]))
    _, alpha, beta, gamma = best
    lhs = ((AZ - alpha * D) ** 2).sum(axis=0)
    margin = lhs - beta * nu**2 * zz - gamma * waz
    for _ in range(ABSORB_STEPS):
        k = int(np.argmax(margin))
        if margin[k] <= 0:
            break
        beta = max(beta + float(margin[k]) / (nu**2 * float(zz[k])), float(np.nextafter(beta, np.inf)))
        margin = lhs - beta * nu**2 * zz - gamma * waz
    return alpha, beta, gamma, float(margin.max())


class TestFit:
    @pytest.mark.parametrize("norm_combo", [False, True])
    def test_blocked_search_matches_the_full_matrix_bit_for_bit(self, norm_combo):
        A = random_rank_one_positive(3, 2, seed=7)[0]
        nu = ellipticity_constant(A).nu
        pert = NormComboPerturbation(0.2 * nu, 0.1 * nu) if norm_combo else SinePerturbation(0.3 * nu)
        spec = NonlinearitySpec(tensor=A, perturbation=pert)
        # 3 x 1500 samples: several whole blocks and a partial one
        sampler = SamplerConfig(count=1500, seed=4)
        cert = fit_k_condition(spec, sampler, nu=nu)
        got = (cert.alpha, cert.beta, cert.gamma, cert.worst_violation)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in fit_with_full_matrix(spec, sampler, nu)]

    def test_fit_does_not_hold_the_samples_by_gammas_matrix(self):
        A = random_rank_one_positive(3, 2, seed=7)[0]
        nu = ellipticity_constant(A).nu
        spec = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(0.3 * nu))
        sampler = SamplerConfig(count=5000, seed=1)
        fit_k_condition(spec, sampler, nu=nu)
        tracemalloc.start()
        try:
            fit_k_condition(spec, sampler, nu=nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = len(certify.SCALES) * sampler.count * len(GAMMA_GRID) * 8
        assert peak < matrix_bytes / 2

    def test_linear_returns_floor_pair(self, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        cert = fit_k_condition(spec, nu=1.0)
        assert cert.beta == pytest.approx(CONSTANT_FLOOR)
        assert cert.gamma == pytest.approx(CONSTANT_FLOOR)
        assert cert.worst_violation <= 0
        assert cert.feasible

    def test_lipschitz_class_beats_analytic_bound(self, identity22):
        rho = 0.5
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=rho))
        cert = fit_k_condition(spec, nu=1.0)
        analytic_sum = rho**2 + (1 - rho**2) / 2
        assert cert.feasible
        assert cert.beta + cert.gamma <= analytic_sum + 0.05
        assert cert.worst_violation <= 0

    def test_fitted_pair_certifies_its_own_samples(self):
        # one absorption step of the round-off left this pair violated by 1.6e-21
        A = random_rank_one_positive(3, 2, seed=2372138281)[0]
        nu = ellipticity_constant(A).nu
        spec = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(0.3 * nu))
        sampler = SamplerConfig(count=1500, seed=1273987060)
        cert = fit_k_condition(spec, sampler, nu=nu)
        assert cert.worst_violation <= 0
        report = verify_k_condition(spec, cert.alpha, cert.beta, cert.gamma, sampler, nu=nu)
        assert report.worst_violation <= 0

    def test_norm_combo_fit_feasible(self):
        # the scalar-template map in dimension nine admits a certificate
        from nearelliptic.counterexamples import default_parameters

        b, c = default_parameters(9)
        spec = NonlinearitySpec(
            tensor=identity_tensor(9, 2), perturbation=NormComboPerturbation(b=b, c=c)
        )
        cert = fit_k_condition(spec, nu=1.0, sampler=SamplerConfig(count=800, seed=2))
        assert cert.feasible
        assert cert.beta + cert.gamma < 1.0
        assert 0.5 < cert.alpha < 2.0

    def test_infeasible_spec_reported_not_raised(self, identity22):
        # perturbation three times the anchor modulus: no pair can certify
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=3.0))
        cert = fit_k_condition(spec, nu=1.0)
        assert not cert.feasible
        assert cert.beta + cert.gamma >= 1.0
        with pytest.raises(InputError):
            cert.require_feasible()

    def test_violations_csv(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        report = verify_k_condition(
            spec, 1.0, beta=0.09, gamma=0.455, nu=1.0, sampler=SamplerConfig(count=50, seed=9)
        )
        lines = report.violations_csv().splitlines()
        assert lines[0] == "scale,violation"
        assert len(lines) == 1 + report.sample_count
        assert max(float(ln.split(",")[1]) for ln in lines[1:]) == pytest.approx(
            report.worst_violation
        )

    def test_certificate_serialization(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.2))
        cert = fit_k_condition(spec, nu=1.0, sampler=SamplerConfig(count=300, seed=3))
        again = EllipticityCertificate.from_dict(cert.as_dict())
        assert again.beta == cert.beta and again.gamma == cert.gamma and again.nu == cert.nu


    @pytest.mark.parametrize(
        "edit",
        [
            {"beta": MISSING},
            {"beta": "x"},
            {"beta": True},
            {"nu": float("nan")},
            {"lambda": float("inf")},
            {"alpha": "x"},
            {"alpha_bounds": 5},
            {"alpha_bounds": [1.0]},
            {"alpha_bounds": [1.0, "x"]},
            {"alpha_bounds": [0.0, 1.0]},
            {"alpha_bounds": [-2, 1]},
            {"worst_violation": "x"},
            {"sample_count": "abc"},
            {"sample_count": -5},
            {"sample_count": 2.5},
            {"sample_count": float("nan")},
            {"sample_count": [1]},
            {"sample_count": True},
        ],
    )
    def test_malformed_certificate_is_an_input_error(self, identity22, edit):
        doc = dict(example1_certificate(NonlinearitySpec(tensor=identity22)).as_dict(), **edit)
        doc = {key: value for key, value in doc.items() if value is not MISSING}
        with pytest.raises(InputError):
            EllipticityCertificate.from_dict(doc)

    @pytest.mark.parametrize("count, expected", [(MISSING, 0), (0, 0), (1500, 1500)])
    def test_sample_count_reads_as_given_and_as_0_when_absent(self, identity22, count, expected):
        doc = dict(example1_certificate(NonlinearitySpec(tensor=identity22)).as_dict(), sample_count=count)
        doc = {key: value for key, value in doc.items() if value is not MISSING}
        assert EllipticityCertificate.from_dict(doc).sample_count == expected

    def test_certificate_document_must_be_a_mapping(self):
        with pytest.raises(InputError):
            EllipticityCertificate.from_dict([0.1, 0.2])


class TestForgedCertificate:
    # beta = rho^2 is tight for the sine perturbation (its Lipschitz constant is
    # reached at X = 0), so every beta below it is false; the verifier at 15000
    # samples must catch these, and may only get better at it
    @pytest.mark.parametrize("n, factor", [(2, 0.5), (3, 0.3)])
    def test_a_forged_beta_is_caught(self, n, factor):
        A, constant = random_rank_one_positive(n, 2, seed=5)
        nu = constant.nu
        spec = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(0.3 * nu))
        cert = example1_certificate(spec, nu=nu)
        alpha = example1_alpha(spec)
        sampler = SamplerConfig(count=15000, seed=1)
        assert verify_k_condition(spec, alpha, cert.beta, cert.gamma, sampler, nu=nu).certified
        forged = verify_k_condition(spec, alpha, factor * cert.beta, cert.gamma, sampler, nu=nu)
        assert not forged.certified


class TestConversions:
    def test_def1_from_def2_values(self):
        assert def1_from_def2(0.2, 0.3) == pytest.approx((0.35, 0.1))

    def test_def1_gap_algebra(self):
        beta, gamma = 0.37, 0.41
        lam, kappa = def1_from_def2(beta, gamma)
        assert lam - kappa == pytest.approx((1 - (beta + gamma)) / 2)

    def test_def1_near_boundary(self):
        lam, kappa = def1_from_def2(0.5, 0.49)
        assert (lam, kappa) == pytest.approx((0.255, 0.25))
        assert lam > kappa

    def test_def1_rejects_infeasible(self):
        with pytest.raises(InputError):
            def1_from_def2(0.6, 0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["lam", "kappa", "M", "alpha_sup", "nu"])
    def test_def2_refuses_a_constant_that_is_not_finite(self, name, value):
        # nu = inf once gave a non-anomalous conversion, and nu = nan or M = nan an anomaly
        args = dict(lam=0.4, kappa=0.1, M=1.0, alpha_sup=1.0, nu=1.0)
        args[name] = value
        with pytest.raises(InputError, match="must be a finite number"):
            def2_from_def1(**args)

    def test_def2_m_zero_sigma_floor_is_two(self):
        conv = def2_from_def1(1.0, 0.5, M=0.0, alpha_sup=1.0, nu=1.0)
        assert conv.sigma_floor == 2.0
        assert conv.beta + conv.gamma < 1.0
        # closed form: beta + gamma = 1 - (2/sigma)(1 - kappa/lambda)
        expected = 1 - (2 / conv.sigma) * (1 - 0.5)
        assert conv.beta + conv.gamma == pytest.approx(expected)

    def test_def2_generic_point(self):
        conv = def2_from_def1(1.0, 0.5, M=1.0, alpha_sup=1.0, nu=1.0)
        beta = (2 / conv.sigma) * (0.5 + (1 / (2 * conv.sigma)))
        gamma = 1 - 2 / conv.sigma
        assert conv.beta == pytest.approx(beta)
        assert conv.gamma == pytest.approx(gamma)
        assert beta + gamma < 1

    def test_def2_sigma_floor_grows_toward_degenerate_gap(self):
        # fixed positive Lipschitz bound: the smallest workable sigma blows up
        # as kappa approaches lambda
        floors = [
            def2_from_def1(1.0, ratio, M=1.0, alpha_sup=1.0, nu=1.0).sigma_floor
            for ratio in (0.9, 0.99, 0.999)
        ]
        assert floors[0] < floors[1] < floors[2]
        assert floors[2] > 100

    def test_round_trip_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            beta, gamma = rng.uniform(0.05, 0.4, size=2)
            lam, kappa = def1_from_def2(beta, gamma)
            conv = def2_from_def1(lam, kappa, M=rng.uniform(0, 2), alpha_sup=1.0, nu=1.0)
            assert not conv.anomaly
            assert conv.beta + conv.gamma < 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (dict(lam=0.4, kappa=0.4), "need lambda > kappa > 0"),
            (dict(lam=0.3, kappa=0.4), "need lambda > kappa > 0"),
            (dict(kappa=0.0), "need lambda > kappa > 0"),
            (dict(kappa=-0.1), "need lambda > kappa > 0"),
            (dict(M=-1.0), "need M >= 0, alpha_sup > 0, nu > 0"),
            (dict(alpha_sup=0.0), "need M >= 0, alpha_sup > 0, nu > 0"),
            (dict(nu=0.0), "need M >= 0, alpha_sup > 0, nu > 0"),
            (dict(nu=-1.0), "need M >= 0, alpha_sup > 0, nu > 0"),
        ],
    )
    def test_def2_refuses_constants_out_of_range(self, args, message):
        with pytest.raises(InputError, match=message):
            def2_from_def1(**dict(dict(lam=0.4, kappa=0.1, M=1.0, alpha_sup=1.0, nu=1.0), **args))

    @pytest.mark.parametrize("M, kappa, sigma_floor", [(1.0, 1 - 1e-9, 5e8), (1.0, 1 - 1e-12, 5e11), (1e9, 0.5, 1e18)])
    def test_def2_without_a_feasible_float_pair_is_an_anomaly(self, M, kappa, sigma_floor):
        # every margin 2d/sigma - q/sigma^2 is below 2 eps here, at most d^2/q: no float pair has beta + gamma < 1
        conv = def2_from_def1(1.0, kappa, M=M, alpha_sup=1.0, nu=1.0)
        assert conv.anomaly
        assert np.isnan([conv.sigma, conv.beta, conv.gamma, conv.alpha_scale, conv.margin]).all()
        assert conv.sigma_floor == pytest.approx(sigma_floor, rel=1e-3)

    @pytest.mark.parametrize("lam, kappa, M", [(1.0, 0.5, 3.0), (2.0, 1.9, 1.0), (0.3, 0.01, 5.0), (1.0, 1 - 1e-6, 1.0)])
    def test_def2_sigma_is_where_the_exact_margin_first_reaches_the_floor(self, lam, kappa, M):
        # the margin of real arithmetic, 2d/sigma - q/sigma^2, from the float inputs; the root is
        # computed in floating point, so the margin at it is the floor up to that rounding
        conv = def2_from_def1(lam, kappa, M=M, alpha_sup=1.0, nu=1.0)
        q, d = (Fraction(M) / Fraction(lam)) ** 2, 1 - Fraction(kappa) / Fraction(lam)

        def margin(sigma):
            return 2 * d / Fraction(sigma) - q / Fraction(sigma) ** 2

        assert conv.sigma > conv.sigma_floor > 2
        assert 0.5 * certify.MARGIN_FLOOR < margin(conv.sigma) < 1.5 * certify.MARGIN_FLOOR
        assert margin(conv.sigma * (1 - 1e-6)) < certify.MARGIN_FLOOR
        assert conv.margin > 0 and conv.beta + conv.gamma < 1

    @pytest.mark.parametrize(
        "lam, kappa, M, alpha_sup, nu",
        [
            (1.0, 0.5, 1e200, 1.0, 1.0),  # q = (M alpha_sup / (lambda nu))^2 past the float range
            (1e-200, 1e-201, 1.0, 1.0, 1e-200),  # lambda nu below it
            (1e10, 1e-320, 0.0, 1.0, 1.0),  # kappa / lambda below it: beta would be 0
            (1.0, 5e-324, 0.0, 1.0, 1.0),  # beta the least subnormal, whose half, def1_from_def2's kappa, is 0
        ],
    )
    def test_def2_past_the_float_range_is_an_anomaly(self, lam, kappa, M, alpha_sup, nu):
        conv = def2_from_def1(lam, kappa, M, alpha_sup=alpha_sup, nu=nu)
        assert conv.anomaly
        assert np.isnan([conv.sigma, conv.beta, conv.gamma, conv.alpha_scale, conv.margin]).all()

    @settings(max_examples=300, deadline=None)
    @given(
        pair=st.lists(POSITIVE_FLOATS, min_size=2, max_size=2, unique=True),
        M=st.one_of(st.just(0.0), POSITIVE_FLOATS),
        alpha_sup=POSITIVE_FLOATS,
        nu=POSITIVE_FLOATS,
    )
    @example(pair=[1.0, 0.5], M=1e200, alpha_sup=1.0, nu=1.0)
    @example(pair=[1e-200, 1e-201], M=1.0, alpha_sup=1.0, nu=1e-200)
    @example(pair=[1e10, 1e-320], M=0.0, alpha_sup=1.0, nu=1.0)
    @example(pair=[1.0, 5e-324], M=0.0, alpha_sup=1.0, nu=1.0)
    def test_def2_is_an_anomaly_or_a_feasible_pair(self, pair, M, alpha_sup, nu):
        kappa, lam = sorted(pair)
        conv = def2_from_def1(lam, kappa, M, alpha_sup=alpha_sup, nu=nu)
        if conv.anomaly:
            assert np.isnan([conv.sigma, conv.beta, conv.gamma]).all()
            return
        assert conv.sigma >= conv.sigma_floor
        assert conv.beta + conv.gamma < 1
        lam2, kappa2 = def1_from_def2(conv.beta, conv.gamma)
        assert lam2 > kappa2 > 0


class TestLemma1:
    @pytest.mark.parametrize("count", [0, -2, 2.5, True, float("nan")])
    def test_a_malformed_count_is_an_input_error(self, identity22, count):
        spec = NonlinearitySpec(tensor=identity22)
        with pytest.raises(InputError, match="lemma-1 sample count"):
            lemma1_check(spec, lam=0.4, kappa=0.1, alpha=1.0, count=count, nu=1.0)

    def test_linear_identity_margin(self, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        margin = lemma1_check(spec, lam=0.4, kappa=0.1, alpha=1.0, count=2000, seed=5, nu=1.0)
        assert margin >= -1e-9

    def test_zero_eta_trivial(self, identity22):
        # both sides vanish at eta = 0: direct evaluation of the inequality
        spec = NonlinearitySpec(tensor=identity22)
        a = np.array([1.0, 2.0])
        Z = np.einsum("a,i,j->aij", np.zeros(2), a, a)
        diff = evaluate_F(spec, Z) - evaluate_F(spec, np.zeros((2, 2, 2)))
        assert np.abs(diff).max() == 0.0

    def test_lipschitz_class_margin(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        cert = example1_certificate(spec, nu=1.0)
        margin = lemma1_check(
            spec, lam=cert.lam, kappa=cert.kappa, alpha=example1_alpha(spec),
            count=10000, seed=6, nu=1.0,
        )
        assert margin >= -1e-9


class TestExample1Certificate:
    def test_constants(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.5))
        cert = example1_certificate(spec, nu=1.0)
        assert cert.beta == pytest.approx(0.25)
        assert cert.gamma == pytest.approx(0.375)
        assert cert.feasible
        report = verify_k_condition(spec, example1_alpha(spec), cert.beta, cert.gamma, nu=1.0)
        assert report.certified

    def test_ratio_above_one_rejected(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=1.5))
        with pytest.raises(InputError):
            example1_certificate(spec, nu=1.0)

    def test_round_trip_through_def1(self, identity22):
        # quadratic-bound -> signed-form -> quadratic-bound stays feasible
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.4))
        cert = example1_certificate(spec, nu=1.0)
        conv = def2_from_def1(
            cert.lam, cert.kappa, M=cert.lipschitz_M, alpha_sup=cert.alpha_sup, nu=cert.nu
        )
        assert conv.beta + conv.gamma < 1


CERTIFY_CALLS = {
    "verify": lambda spec, nu: verify_k_condition(spec, 1.0, 0.09, 0.4, SamplerConfig(count=50), nu=nu),
    "fit": lambda spec, nu: fit_k_condition(spec, SamplerConfig(count=50), nu=nu),
    "lemma1": lambda spec, nu: lemma1_check(spec, lam=0.4, kappa=0.1, alpha=1.0, count=50, nu=nu),
    "example1": lambda spec, nu: example1_certificate(spec, nu=nu),
}


class TestPassedNu:
    # one rule for every certify function, the linear solver's: a passed nu is finite and positive,
    # a searched one positive
    @pytest.mark.parametrize("call", sorted(CERTIFY_CALLS))
    @pytest.mark.parametrize("nu", [float("nan"), float("inf"), -1.0, 0.0])
    def test_a_passed_nu_that_is_not_finite_and_positive_is_an_input_error(self, identity22, call, nu):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        with pytest.raises(InputError, match="nu must be finite and positive"):
            CERTIFY_CALLS[call](spec, nu)

    @pytest.mark.parametrize("call", sorted(CERTIFY_CALLS))
    def test_a_searched_nu_that_is_not_positive_is_an_input_error(self, identity22, call):
        spec = NonlinearitySpec(tensor=SymTensor4(-identity22.entries), perturbation=SinePerturbation(amplitude=0.3))
        with pytest.raises(InputError, match="not rank-one positive"):
            CERTIFY_CALLS[call](spec, None)
