import numpy as np
import pytest
import scipy.fft

import nearelliptic.stability as stability
from nearelliptic import (
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
from nearelliptic.certify import SamplerConfig, _draw_pairs
from nearelliptic.errors import DivergenceError, InputError, NearnessConditionError
from nearelliptic.fields import PHYSICAL, HessianField, half_spectrum
from nearelliptic.nonlinearity import evaluate_field
from nearelliptic.stability import NuFGEstimate, empirical_nu_F
from nearelliptic.tensors import SymTensor4, identity_tensor


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
        for one, two in zip(_draw_pairs(sampler, specF), _draw_pairs(sampler, specF, specG)):
            scale, flat, (wF,), X, Z = one
            assert two[0] == scale
            np.testing.assert_array_equal(two[1], flat)
            np.testing.assert_array_equal(two[3], X)
            np.testing.assert_array_equal(two[4], Z)
            np.testing.assert_array_equal(two[2][0], wF)
            np.testing.assert_array_equal(two[2][1], weightG.ravel()[flat])

    def test_empirical_at_least_certified(self, grid32, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        cert = example1_certificate(spec, nu=1.0)
        lower = nu_F_lower_bound(cert)
        assert empirical_nu_F(spec, grid32) >= lower - 1e-9


def reference_empirical_nu_F(spec, grid):
    """empirical_nu_F through physical fields and the full n^2 hessian, as it was first written."""
    band = max(1, grid.M // 4)
    best = np.inf
    for j in range(8):
        w = random_band_limited(grid, band, 11 + 2 * j)
        v = random_band_limited(grid, band, 12 + 2 * j)
        hw = spectral_hessian(w, PHYSICAL)
        hv = spectral_hessian(v, PHYSICAL)
        num = l2_norm(evaluate_field(spec, hw) - evaluate_field(spec, hv))
        den = l2_norm(hw - hv)
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

        monkeypatch.setattr(stability, "spectral_hessian", refuse)
        for name in ("fftn", "ifftn", "rfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        for name in ("fftn", "ifftn", "rfftn"):
            monkeypatch.setattr(scipy.fft, name, refuse)
        monkeypatch.setattr(HessianField, "__post_init__", refuse)
        assert empirical_nu_F(spec, grid) == pytest.approx(expected, rel=1e-12)


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
            "condition_met", "outer_iterations", "admission_margin",
        }
        assert doc["admission_margin"] == report.admission_margin
        assert doc["nu_F_lower"] == lower and doc["condition_met"] is True
        assert report.outer_trace.status == "converged"
        hs = spectral_hessian(ustar, PHYSICAL)
        rel = l2_norm(spectral_hessian(u, PHYSICAL) - hs) / l2_norm(hs)
        assert rel <= 1e-7
        assert all(r <= 0.15 for r in report.outer_trace.ratios)

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
            pairs.append((l2_norm(dF - dG), l2_norm(dF), l2_norm(hw - hv)))
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

    def test_stall_stops_at_round_off(self):
        # the rhs is F(D^2 u*), not G(D^2 u*): its mean is out of G's reach in
        # the zero-mean gauge, so the residual stalls near 3.9e-4 and the step
        # reaches the round-off floor at outer iteration 5
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
        assert trace.iterations == 5
        # the residual that 60 outer iterations reach
        assert trace.final_residual == pytest.approx(3.9162646243407834e-4, rel=1e-9)
