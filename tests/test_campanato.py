import time

import numpy as np
import pytest

import nearelliptic.fields as fields_module

from nearelliptic import (
    EllipticityCertificate,
    GridSpec,
    NonlinearitySpec,
    SinePerturbation,
    SolveConfig,
    apply_operator,
    campanato_solve,
    contraction_bound,
    example1_certificate,
    identity_tensor,
    l2_norm,
    random_band_limited,
    solve_linear,
    spectral_hessian,
    uniqueness_constant,
    verify_comparison,
)
from nearelliptic.campanato import IterationTrace, zero_field
from nearelliptic.errors import DivergenceError, InputError
from nearelliptic.fields import PHYSICAL, HalfSpectrum, VectorField
from nearelliptic.linear import spectral_plan
from nearelliptic.nonlinearity import evaluate_field


def sine_spec(tensor, rho):
    return NonlinearitySpec(tensor=tensor, perturbation=SinePerturbation(amplitude=rho))


def manufactured(spec, grid, band, seed):
    ustar = random_band_limited(grid, band=band, seed=seed)
    f = evaluate_field(spec, spectral_hessian(ustar, PHYSICAL))
    return ustar, f


def fake_certificate(beta=0.1, gamma=0.1, nu=1.0):
    return EllipticityCertificate(
        nu=nu, beta=beta, gamma=gamma, lam=(1 - gamma) / 2, kappa=beta / 2,
        alpha=1.0, alpha_bounds=(1.0, 1.0), lipschitz_M=1.0,
    )


class TestCampanatoSolve:
    def test_linear_converges_in_one_iteration(self, grid32, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        _, f = manufactured(spec, grid32, band=5, seed=0)
        cert = fake_certificate()
        u, trace = campanato_solve(spec, 1.0, f, cert)
        assert trace.status == "converged"
        assert trace.iterations == 1
        linear = solve_linear(identity22, f, nu=1.0).u
        assert np.abs(u.data - linear.data).max() <= 1e-12

    def test_zero_rhs(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        f = zero_field(grid32)
        u, trace = campanato_solve(spec, 1.0, f, cert)
        assert trace.iterations == 1
        assert np.abs(u.data).max() == 0.0

    def test_manufactured_recovery(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        ustar, f = manufactured(spec, grid32, band=6, seed=1)
        u, trace = campanato_solve(spec, 1.0, f, cert)
        assert trace.status == "converged"
        hs = spectral_hessian(ustar, PHYSICAL)
        rel = l2_norm(spectral_hessian(u, PHYSICAL) - hs) / l2_norm(hs)
        assert rel <= 1e-8
        K = cert.contraction
        assert all(r <= K + 0.05 for r in trace.ratios)
        bound = int(np.ceil(np.log(1e-8) / np.log(K))) + 5
        assert trace.iterations <= bound

    def test_initial_guess_independence(self, grid32, identity22):
        spec = sine_spec(identity22, 0.4)
        cert = example1_certificate(spec, nu=1.0)
        _, f = manufactured(spec, grid32, band=5, seed=2)
        u_a, _ = campanato_solve(spec, 1.0, f, cert)
        start = random_band_limited(grid32, band=5, seed=99)
        u_b, _ = campanato_solve(spec, 1.0, f, cert, initial_guess=start)
        tol_abs = 1e-8 * l2_norm(f)
        d = l2_norm(apply_operator(identity22, u_a - u_b))
        assert d <= 10 * tol_abs

    def test_gauge_preserved(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        _, f = manufactured(spec, grid32, band=4, seed=3)
        u, _ = campanato_solve(spec, 1.0, f, cert)
        assert np.abs(u.mean()).max() <= 1e-13

    def test_fixed_point_consistency(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        _, f = manufactured(spec, grid32, band=4, seed=4)
        u, _ = campanato_solve(spec, 1.0, f, cert)
        F_u = evaluate_field(spec, spectral_hessian(u, PHYSICAL))
        rhs = apply_operator(identity22, u) - (F_u - f.to_physical())
        Tu = solve_linear(identity22, rhs, nu=1.0).u
        d = l2_norm(apply_operator(identity22, Tu - u))
        fnorm = l2_norm(f)
        assert d <= 1e-8 * (1.0 + fnorm)

    def test_divergence_raises_and_cites_certificate(self, grid32, identity22):
        # weight 3 with alpha = 1 makes the fixed-point map expand by 2
        spec = NonlinearitySpec(tensor=identity22, weight=3.0)
        cert = fake_certificate()
        _, f = manufactured(spec, grid32, band=4, seed=5)
        with pytest.raises(DivergenceError) as err:
            campanato_solve(spec, 1.0, f, cert)
        assert err.value.certificate is cert
        assert err.value.trace.status == "diverged"
        late = [r for r in err.value.trace.ratios][-3:]
        assert all(r > 1 for r in late)

    def test_infeasible_certificate_rejected(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        bad = fake_certificate(beta=0.6, gamma=0.5)
        _, f = manufactured(spec, grid32, band=4, seed=6)
        with pytest.raises(InputError):
            campanato_solve(spec, 1.0, f, bad)

    def test_an_alpha_other_than_the_certificates_is_refused(self, grid32, identity22):
        spec = NonlinearitySpec(tensor=identity22, weight=2.0)
        cert = example1_certificate(spec, nu=1.0)  # holds for alpha = 1/weight only
        _, f = manufactured(spec, grid32, band=4, seed=5)
        with pytest.raises(InputError, match="alpha=1 is not the alpha=0.5"):
            campanato_solve(spec, 1.0, f, cert)
        _, trace = campanato_solve(spec, 0.5 * (1 + 1e-13), f, cert)
        assert trace.status == "converged"

    def test_trace_csv(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        _, f = manufactured(spec, grid32, band=4, seed=7)
        _, trace = campanato_solve(spec, 1.0, f, cert)
        lines = trace.to_csv().splitlines()
        assert lines[0] == "iter,metric,residual,ratio"
        assert len(lines) == 1 + trace.iterations

    def test_the_loop_transforms_one_work_buffer_and_repeats_bit_for_bit(self, monkeypatch):
        grid = GridSpec(n=3, N=2, M=8)
        spec = sine_spec(identity_tensor(3, 2), 0.5)
        cert = example1_certificate(spec, nu=1.0)
        _, f = manufactured(spec, grid, band=2, seed=8)
        plan = spectral_plan(spec.tensor, grid)
        transformed, coefs, fields = [], [], []
        in_hessian = []
        irfftn = fields_module.scipy.fft.irfftn
        hessian_pairs = HalfSpectrum.hessian_pairs
        post_init = VectorField.__post_init__

        def record_irfftn(x, *args, **kwargs):
            if in_hessian:
                transformed.append(x)
            return irfftn(x, *args, **kwargs)

        def record_hessian_pairs(self, coef, *args, **kwargs):
            coefs.append(coef)
            in_hessian.append(True)
            try:
                return hessian_pairs(self, coef, *args, **kwargs)
            finally:
                in_hessian.pop()

        def record_field(self):
            post_init(self)
            fields.append(self.data)

        monkeypatch.setattr(fields_module.scipy.fft, "irfftn", record_irfftn)
        monkeypatch.setattr(HalfSpectrum, "hessian_pairs", record_hessian_pairs)
        monkeypatch.setattr(VectorField, "__post_init__", record_field)
        u, trace = campanato_solve(spec, 1.0, f, cert)
        assert trace.status == "converged" and trace.iterations >= 3
        # one hessian transform per iteration, each of the one work buffer
        assert len(transformed) == len(coefs) == trace.iterations
        work = transformed[0]
        assert all(x.__array_interface__["data"][0] == work.__array_interface__["data"][0] for x in transformed)
        half = plan.half
        shared = [f.data, u.data, half.zsq, half.gauge, half.weights, half.hessian, plan.solve, plan.operator]
        for arr in shared + coefs + fields:
            assert not np.shares_memory(work, arr)
        # a second solve on the same grid starts from a fresh buffer
        u_again, trace_again = campanato_solve(spec, 1.0, f, cert)
        assert u_again.data.tobytes() == u.data.tobytes()
        assert trace_again.to_csv() == trace.to_csv()


class TestConstants:
    def test_contraction_bound_value(self):
        assert contraction_bound(fake_certificate(beta=0.04, gamma=0.12)) == pytest.approx(0.4)

    def test_contraction_bound_small(self):
        assert contraction_bound(fake_certificate(beta=1e-6, gamma=1e-6)) <= 2e-3

    def test_uniqueness_constant_value(self):
        cert = fake_certificate(beta=0.125, gamma=0.125)  # K = 0.5
        assert uniqueness_constant(cert) == pytest.approx(2.0)

    def test_uniqueness_constant_blows_up_near_one(self):
        near = fake_certificate(beta=0.5, gamma=0.49999)
        far = fake_certificate(beta=0.1, gamma=0.1)
        assert uniqueness_constant(near) > 100 * uniqueness_constant(far)

    def test_infeasible_rejected(self):
        with pytest.raises(InputError):
            contraction_bound(fake_certificate(beta=0.7, gamma=0.4))


class TestComparison:
    def test_equal_fields_margin_zero(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        w = random_band_limited(grid32, band=5, seed=8)
        assert verify_comparison(spec, cert, w, w) == pytest.approx(0.0, abs=1e-15)

    def test_linear_pairs(self, grid32, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        cert = fake_certificate(beta=1e-6, gamma=1e-6)
        for seed in range(5):
            w = random_band_limited(grid32, band=6, seed=100 + seed)
            v = random_band_limited(grid32, band=6, seed=200 + seed)
            margin = verify_comparison(spec, cert, w, v)
            scale = l2_norm(spectral_hessian(w, PHYSICAL)) + l2_norm(spectral_hessian(v, PHYSICAL))
            assert margin <= 1e-9 * scale

    def test_lipschitz_class_pairs(self, grid32, identity22):
        spec = sine_spec(identity22, 0.5)
        cert = example1_certificate(spec, nu=1.0)
        for seed in range(10):
            w = random_band_limited(grid32, band=6, seed=300 + seed)
            v = random_band_limited(grid32, band=6, seed=400 + seed)
            margin = verify_comparison(spec, cert, w, v)
            scale = l2_norm(spectral_hessian(w, PHYSICAL)) + l2_norm(spectral_hessian(v, PHYSICAL))
            assert margin <= 1e-9 * scale


class TestStoppingRule:
    """IterationTrace.advance, the stopping rule of both fixed-point loops."""

    @staticmethod
    def run(metrics, residual=1.0, tol_abs=0.0, floor=0.0):
        """Advance a fresh trace through ``metrics``; the stop flag of each call."""
        trace = IterationTrace()
        return trace, [trace.advance(m, residual, tol_abs, floor) for m in metrics]

    def test_records_index_and_ratio(self):
        trace, stops = self.run([4.0, 2.0, 0.5])
        assert stops == [False, False, False]
        assert [r.index for r in trace.records] == [1, 2, 3]
        assert np.isnan(trace.records[0].ratio)
        assert trace.ratios == [0.5, 0.25]
        assert trace.status == "running"

    def test_records_the_wall_time_of_each_step(self):
        before = time.perf_counter()
        trace = IterationTrace()
        for metric in (4.0, 2.0):
            time.sleep(0.01)
            trace.advance(metric, 1.0, 0.0, 0.0)
        seconds = [r.seconds for r in trace.records]
        assert all(s >= 0.01 for s in seconds)
        assert sum(seconds) <= time.perf_counter() - before

    def test_converged_wins_over_the_floor(self):
        trace, stops = self.run([1e-20], residual=1e-10, tol_abs=1e-8, floor=1e-13)
        assert stops == [True]
        assert trace.status == "converged"

    def test_floor_stops_a_stall(self):
        trace, stops = self.run([1.0, 1e-14], residual=1e-3, tol_abs=1e-8, floor=1e-13)
        assert stops == [False, True]
        assert trace.status == "max_iters"

    def test_nan_first_ratio_does_not_reset_the_count(self):
        # ratios nan, 2, 2, 2, 2, 2: the fifth ratio above 1 stops the loop
        trace, stops = self.run([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        assert stops == [False] * 5 + [True]
        assert trace.status == "diverged"

    def test_undefined_ratio_inside_a_run_is_skipped(self):
        # a zero step leaves the next ratio undefined: 0 resets, nan does not
        # (a negative floor keeps the zero step from counting as a stall)
        trace, stops = self.run([1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0], floor=-1.0)
        assert np.isnan(trace.records[2].ratio)
        assert stops == [False] * 7 + [True]

    def test_ratio_at_most_one_resets_the_count(self):
        # four rises, a ratio of exactly 1, then five more rises
        metrics = [1.0, 2.0, 4.0, 8.0, 16.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
        trace, stops = self.run(metrics)
        assert stops == [False] * 10 + [True]
        assert trace.records[5].ratio == 1.0

    def test_finish_marks_an_exhausted_loop(self):
        trace, _ = self.run([1.0, 0.5])
        trace.finish(fake_certificate())
        assert trace.status == "max_iters"

    def test_finish_raises_on_divergence(self):
        trace, _ = self.run([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        cert = fake_certificate()
        with pytest.raises(DivergenceError) as err:
            trace.finish(cert)
        assert err.value.trace is trace
        assert err.value.certificate is cert
