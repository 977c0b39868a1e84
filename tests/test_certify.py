import numpy as np
import pytest
from hypothesis import given, settings
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
from nearelliptic.certify import CONSTANT_FLOOR, example1_alpha, symmetric_gaussian
from nearelliptic.counterexamples import saturating_witness, window_constants
from nearelliptic.errors import InputError
from nearelliptic.nonlinearity import evaluate_F
from nearelliptic.tensors import ellipticity_constant, random_rank_one_positive

MISSING = object()


class TestVerify:
    def test_linear_always_certifies(self, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        report = verify_k_condition(spec, 1.0, beta=0.01, gamma=0.01, nu=1.0)
        assert report.certified
        assert report.worst_violation < 0

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
        for scale in (1e-2, 1e2):
            report = verify_k_condition(
                spec, 1.0, beta=0.01, gamma=0.01, nu=1.0,
                sampler=SamplerConfig(count=500, seed=1, scales=(scale,)),
            )
            assert report.certified

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


class TestSampler:
    @pytest.mark.parametrize(
        "kwargs",
        [{"count": 0}, {"count": -3}, {"count": 2.5}, {"count": True}, {"scales": ()}, {"scales": (1.0, 0.0)},
         {"scales": (-1.0,)}, {"scales": (float("nan"),)}, {"scales": (1.0, float("inf"))}],
    )
    def test_a_malformed_plan_is_an_input_error(self, kwargs):
        with pytest.raises(InputError, match="sampler"):
            SamplerConfig(**kwargs)

    @pytest.mark.parametrize("n, N", [(2, 2), (3, 2), (4, 3)])
    def test_packed_draw_is_the_upper_triangle_of_the_symmetrized_draw(self, n, N):
        rng, ref = np.random.default_rng(23), np.random.default_rng(23)
        got = symmetric_gaussian(rng, 40, N, n)
        raw = ref.standard_normal((40, N, n, n))
        full = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        rows, cols = np.triu_indices(n)
        want = np.ascontiguousarray(np.moveaxis(full[..., rows, cols], 0, -1))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # the stream goes on where the full draw left it
        assert rng.standard_normal() == ref.standard_normal()

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


class TestFit:
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
            {"worst_violation": "x"},
        ],
    )
    def test_malformed_certificate_is_an_input_error(self, identity22, edit):
        doc = dict(example1_certificate(NonlinearitySpec(tensor=identity22)).as_dict(), **edit)
        doc = {key: value for key, value in doc.items() if value is not MISSING}
        with pytest.raises(InputError):
            EllipticityCertificate.from_dict(doc)

    def test_certificate_document_must_be_a_mapping(self):
        with pytest.raises(InputError):
            EllipticityCertificate.from_dict([0.1, 0.2])


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


class TestLemma1:
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
