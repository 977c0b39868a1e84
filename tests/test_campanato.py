import math
import time
import tracemalloc
from dataclasses import replace
from itertools import takewhile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearelliptic.fields as fields_module

from nearelliptic import (
    EllipticityCertificate,
    GridSpec,
    NonlinearitySpec,
    CustomPerturbation,
    SinePerturbation,
    SolveConfig,
    apply_operator,
    campanato_solve,
    example1_certificate,
    identity_tensor,
    l2_norm,
    random_band_limited,
    solve_linear,
    solve_via_nearness,
    spectral_hessian,
    uniqueness_constant,
    verify_comparison,
)
import nearelliptic.campanato as campanato_module
from nearelliptic.campanato import DIVERGENCE_PATIENCE, IterationTrace
from nearelliptic.errors import DivergenceError, InputError
from nearelliptic.fields import PHYSICAL, HalfSpectrum, HessianPairs, VectorField
from nearelliptic.linear import spectral_plan
from nearelliptic.nonlinearity import evaluate_field
from nearelliptic.stability import nu_F_lower_bound
from conftest import refuse_full_hessian, zero_field


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
        rel = HessianPairs(grid32, spectral_hessian(u, PHYSICAL).data - hs.data).norm() / hs.norm()
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

    @staticmethod
    def cold_start_cases(grid):
        A = identity_tensor(grid.n, grid.N)
        weight = 1.0 + 0.5 * np.random.default_rng(41).random(grid.shape)
        hook = CustomPerturbation(
            fn=lambda X: 1e-15 + 0.1 * np.sin(X).sum(axis=(-2, -1)), lipschitz=0.2, name="offset-sine"
        )
        # (spec, alpha, scale of the right-hand side); on the last, f is small enough
        # that G(0) shows in the bits of alpha (F(., 0) - f), and the solve stalls at round-off
        return {
            "sine": (sine_spec(A, 0.4), 1.0, 1.0),
            "weight_field": (
                NonlinearitySpec(tensor=A, weight=weight, perturbation=SinePerturbation(0.3)), 1.0 / weight, 1.0
            ),
            "offset_hook": (NonlinearitySpec(tensor=A, perturbation=hook), 1.0, 1.0),
            "offset_hook_small_rhs": (NonlinearitySpec(tensor=A, weight=weight, perturbation=hook), 1.0 / weight, 1e-3),
        }

    @pytest.mark.parametrize("case", ["sine", "weight_field", "offset_hook", "offset_hook_small_rhs"])
    def test_a_cold_start_is_a_start_from_zero_bit_for_bit(self, monkeypatch, case):
        grid = GridSpec(n=2, N=2, M=16)
        spec, alpha, scale = self.cold_start_cases(grid)[case]
        cert = example1_certificate(spec, nu=1.0)
        f = manufactured(spec, grid, band=3, seed=21)[1] * scale
        u_zero, trace_zero = campanato_solve(spec, alpha, f, cert, initial_guess=zero_field(grid))
        points = []
        evaluate_pairs = campanato_module.evaluate_pairs

        def record(spec, X, weight, out=None):
            points.append(X.shape[-1])
            return evaluate_pairs(spec, X, weight, out)

        monkeypatch.setattr(campanato_module, "evaluate_pairs", record)
        u, trace = campanato_solve(spec, alpha, f, cert)
        assert trace.status == trace_zero.status == ("converged" if scale == 1.0 else "max_iters")
        assert u.data.tobytes() == u_zero.data.tobytes()
        assert trace.to_csv() == trace_zero.to_csv()
        # F(., 0) is taken at one point, not over the grid; then F once per iteration
        assert points == [1] + [grid.points] * trace.iterations

    def test_a_cold_start_checks_the_weight_field_against_the_grid(self):
        spec = self.cold_start_cases(GridSpec(n=2, N=2, M=16))["weight_field"][0]
        grid = GridSpec(n=2, N=2, M=8)
        _, f = manufactured(sine_spec(identity_tensor(2, 2), 0.3), grid, band=2, seed=22)
        with pytest.raises(InputError, match="weight field has shape"):
            campanato_solve(spec, 1.0, f, fake_certificate())

    @pytest.mark.parametrize("case", ["sine", "weight_field"])
    def test_a_warm_start_is_the_cores_kept_state_bit_for_bit(self, case):
        # the stability loop continues from the core's kept (uhat, F) where it once
        # warm-started campanato_solve from the field that campanato_solve returns
        grid = GridSpec(n=2, N=2, M=16)
        spec, alpha, _ = self.cold_start_cases(grid)[case]
        cert = example1_certificate(spec, nu=1.0)
        config = SolveConfig(tol_residual=1e-9)
        f1, f2 = (manufactured(spec, grid, band=3, seed=seed)[1] for seed in (23, 24))
        checked = campanato_module._checked_alpha(spec, alpha, grid, cert)
        half = fields_module.half_spectrum(grid)
        uhat, hess, F, trace = campanato_module._iterate(spec, checked, f1, cert, config)
        u, public_trace = campanato_solve(spec, alpha, f1, cert, config)
        assert half.coefficients(u).tobytes() == uhat.tobytes()
        assert u.data.tobytes() == half.inverse(uhat).tobytes()
        assert trace.to_csv() == public_trace.to_csv()
        # the kept hessian and F are those of the last iterate
        assert hess.data.tobytes() == half.hessian_pairs(uhat).data.tobytes()
        assert F.data.tobytes() == evaluate_field(spec, hess).data.tobytes()
        warm, warm_trace = campanato_solve(spec, alpha, f2, cert, config, initial_guess=u)
        uhat2, _, _, trace2 = campanato_module._iterate(spec, checked, f2, cert, config, (uhat, F))
        assert warm.data.tobytes() == half.inverse(uhat2).tobytes()
        assert warm_trace.to_csv() == trace2.to_csv()
        assert trace2.status == "converged" and trace2.iterations >= 2

    def test_a_second_solve_leaves_the_first_solves_outputs_as_they_were(self):
        # each call allocates its own arrays and hands them over with its outputs
        grid = GridSpec(n=2, N=2, M=16)
        spec = sine_spec(identity_tensor(2, 2), 0.4)
        cert = example1_certificate(spec, nu=1.0)
        config = SolveConfig()
        f1, f2 = (manufactured(spec, grid, band=3, seed=seed)[1] for seed in (25, 26))
        checked = campanato_module._checked_alpha(spec, 1.0, grid, cert)
        uhat, hess, F, _ = campanato_module._iterate(spec, checked, f1, cert, config)
        u, _ = campanato_solve(spec, 1.0, f1, cert, config)
        first = (uhat, hess.data, F.data, u.data)
        kept = [arr.tobytes() for arr in first]
        assert not any(arr.flags.writeable for arr in (hess.data, F.data, u.data))
        later = [
            campanato_module._iterate(spec, checked, f2, cert, config),
            campanato_module._iterate(spec, checked, f2, cert, config, (uhat, F)),
        ]
        u2, _ = campanato_solve(spec, 1.0, f2, cert, config)
        assert [arr.tobytes() for arr in first] == kept
        for uhat2, hess2, F2, _ in later:
            for a, b in zip(first, (uhat2, hess2.data, F2.data, u2.data)):
                assert not np.shares_memory(a, b)

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

    @pytest.mark.parametrize("n, N", [(3, 2), (2, 3)])
    def test_a_spec_of_other_dimensions_than_the_grid_is_refused(self, identity22, n, N):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec)
        f = random_band_limited(GridSpec(n=n, N=N, M=8), band=2, seed=1)
        with pytest.raises(InputError, match="spec dimensions do not match the grid"):
            campanato_solve(spec, cert.alpha, f, cert)

    def test_infeasible_certificate_rejected(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        bad = fake_certificate(beta=0.6, gamma=0.5)
        _, f = manufactured(spec, grid32, band=4, seed=6)
        with pytest.raises(InputError):
            campanato_solve(spec, 1.0, f, bad)

    def test_a_right_hand_side_whose_norm_overflows_is_refused(self, identity22):
        # every value finite, but ||f||_2 overflows: a tolerance relative to it would be inf
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        grid = GridSpec(n=2, N=2, M=16)
        data = random_band_limited(grid, band=4, seed=2).data.copy()
        data[0, 3, 5] = 1e300
        f = VectorField(grid, data, PHYSICAL)
        specG = sine_spec(identity22, 0.3 + 0.1 * nu_F_lower_bound(cert))
        with np.errstate(over="ignore"):
            with pytest.raises(InputError, match="right-hand side has L2 norm inf"):
                campanato_solve(spec, 1.0, f, cert)
            with pytest.raises(InputError, match="right-hand side has L2 norm inf"):
                solve_via_nearness(spec, specG, 1.0, cert, f)

    def test_an_alpha_other_than_the_certificates_is_refused(self, grid32, identity22):
        spec = NonlinearitySpec(tensor=identity22, weight=2.0)
        cert = example1_certificate(spec, nu=1.0)  # holds for alpha = 1/weight only
        _, f = manufactured(spec, grid32, band=4, seed=5)
        with pytest.raises(InputError, match="alpha=1 is not the alpha=0.5"):
            campanato_solve(spec, 1.0, f, cert)
        _, trace = campanato_solve(spec, 0.5 * (1 + 1e-13), f, cert)
        assert trace.status == "converged"

    @pytest.mark.parametrize("shape", [(16, 16), (2, 32, 32), (32,)])
    def test_an_alpha_field_off_the_grid_is_refused_naming_both_shapes(self, grid32, identity22, shape):
        spec = sine_spec(identity22, 0.3)
        _, f = manufactured(spec, grid32, band=4, seed=8)
        expected = rf"alpha field must have grid shape \(32, 32\), got \({', '.join(map(str, shape))},?\)"
        with pytest.raises(InputError, match=expected):
            campanato_solve(spec, np.ones(shape), f, fake_certificate())

    @pytest.mark.parametrize(
        "value, message",
        [
            (np.nan, "alpha must be finite and strictly positive"),
            (-1.0, "alpha must be finite and strictly positive"),
            (0.0, "alpha must be finite and strictly positive"),
            (1.0 + 1e-9, r"sup alpha = 1.000000001, above the certificate's bound sup alpha <= 1.0"),
            (1.0 - 1e-9, r"sup 1/alpha = 1.000000001\d*, above the certificate's bound sup 1/alpha <= 1.0"),
        ],
    )
    def test_an_alpha_field_outside_the_certificates_bounds_is_refused_naming_the_bound(self, value, message):
        # example 1 at weight 1 holds for alpha_bounds (1, 1): sup alpha <= 1 and sup 1/alpha <= 1
        grid = GridSpec(n=2, N=2, M=16)
        spec = sine_spec(identity_tensor(2, 2), 0.3)
        cert = example1_certificate(spec, nu=1.0)
        _, f = manufactured(spec, grid, band=3, seed=8)
        with pytest.raises(InputError, match=message):
            campanato_solve(spec, np.full(grid.shape, value), f, cert)
        _, trace = campanato_solve(spec, np.full(grid.shape, 1.0 + 1e-13), f, cert)
        assert trace.status == "converged"

    @pytest.mark.parametrize("n, M", [(2, 32), (3, 8)])
    def test_a_constant_alpha_field_solves_as_its_constant_bit_for_bit(self, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        spec = NonlinearitySpec(tensor=identity_tensor(n, 2), weight=2.0, perturbation=SinePerturbation(amplitude=0.3))
        cert = example1_certificate(spec, nu=1.0)  # alpha = 1/weight = 0.5
        _, f = manufactured(spec, grid, band=3, seed=9)
        alpha = np.full(grid.shape, cert.alpha)
        u_field, trace_field = campanato_solve(spec, alpha, f, cert)
        u_const, trace_const = campanato_solve(spec, cert.alpha, f, cert)
        assert trace_const.status == "converged"
        np.testing.assert_array_equal(u_field.data, u_const.data)
        assert trace_field.to_csv() == trace_const.to_csv()
        np.testing.assert_array_equal(alpha, cert.alpha)  # the caller's field is read, not scaled

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
        # the inputs of the transforms made inside each hessian_pairs call, one list per call
        transformed, coefs, outs, fields = [], [], [], []
        evaluated = []  # (X, out) of each evaluation of F over the grid
        in_hessian = []
        hessian_pairs = HalfSpectrum.hessian_pairs
        evaluate_pairs = campanato_module.evaluate_pairs
        post_init = VectorField.__post_init__

        def recording(transform):
            def record(x, *args, **kwargs):
                if in_hessian:
                    transformed[-1].append((transform.__name__, x))
                return transform(x, *args, **kwargs)

            return record

        def record_hessian_pairs(self, coef, work=None, out=None):
            coefs.append(coef)
            outs.append(out)
            transformed.append([])
            in_hessian.append(True)
            try:
                return hessian_pairs(self, coef, work, out)
            finally:
                in_hessian.pop()

        def record_evaluate_pairs(spec, X, weight, out=None):
            if X.shape[-1] == grid.points:
                evaluated.append((X, out))
            return evaluate_pairs(spec, X, weight, out)

        def record_field(self):
            post_init(self)
            fields.append(self.data)

        for name in ("ifft", "irfft", "irfftn"):
            monkeypatch.setattr(fields_module.scipy.fft, name, recording(getattr(fields_module.scipy.fft, name)))
        monkeypatch.setattr(fields_module.np.fft, "irfft", recording(fields_module.np.fft.irfft))
        monkeypatch.setattr(HalfSpectrum, "hessian_pairs", record_hessian_pairs)
        monkeypatch.setattr(campanato_module, "evaluate_pairs", record_evaluate_pairs)
        monkeypatch.setattr(VectorField, "__post_init__", record_field)
        u, trace = campanato_solve(spec, 1.0, f, cert)
        assert trace.status == "converged" and trace.iterations >= 3
        # one hessian transform per iteration, each of the one work buffer, one
        # component at a time: an ifft of each leading grid axis in place, then
        # one irfft of the last
        assert len(transformed) == len(coefs) == trace.iterations
        per_component = ["ifft"] * (grid.n - 1) + ["irfft"]
        assert all([name for name, _ in calls] == per_component * grid.N for calls in transformed)
        work = transformed[0][0][1]
        address = work.__array_interface__["data"][0]
        assert all(x.__array_interface__["data"][0] == address for calls in transformed for _, x in calls)
        # every iteration writes its hessian into one array, and F, from that array, into one other
        assert len(evaluated) == trace.iterations
        hessian, F = outs[0], evaluated[0][1]
        assert isinstance(hessian, np.ndarray) and isinstance(F, np.ndarray)
        assert all(out is hessian for out in outs)
        assert all(np.shares_memory(X, hessian) for X, _ in evaluated)
        assert all(out.__array_interface__["data"][0] == F.__array_interface__["data"][0] for _, out in evaluated)
        half = plan.half
        shared = [f.data, u.data, half.zsq, half.laplacian, half.hessian, plan.solve, plan.operator]
        for buffer in (work, hessian, F):
            for arr in shared + coefs:
                assert not np.shares_memory(buffer, arr)
        assert not np.shares_memory(hessian, F)
        # the one field made on the call's arrays is the F the core returns, once, at the end
        on_buffers = [data for data in fields if any(np.shares_memory(data, b) for b in (work, hessian, F))]
        assert len(on_buffers) == 1 and on_buffers[0] is F.base
        # a second solve on the same grid starts from fresh buffers
        u_again, trace_again = campanato_solve(spec, 1.0, f, cert)
        assert u_again.data.tobytes() == u.data.tobytes()
        assert trace_again.to_csv() == trace.to_csv()

    def test_a_cold_solve_holds_the_calls_arrays_and_one_steps_temporaries(self, monkeypatch):
        n, N, M = 3, 2, 16
        grid = GridSpec(n=n, N=N, M=M)
        spec = sine_spec(identity_tensor(n, N), 0.5)
        cert = example1_certificate(spec, nu=1.0)
        _, f = manufactured(spec, grid, band=3, seed=8)
        campanato_solve(spec, 1.0, f, cert)  # builds the plan and the half spectrum, which outlive a solve

        def peak():
            tracemalloc.start()
            try:
                campanato_solve(spec, 1.0, f, cert)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        S, half, points = n * (n + 1) // 2, M ** (n - 1) * (M // 2 + 1), M**n
        # the campanato Memory notes: the work buffer, the packed hessian, F and F - f, the image and the step
        per_call = 16 * S * half + 8 * N * S * points + 2 * 8 * N * points + 2 * 16 * N * half
        # one step: its new coefficients and the three (N, M^n) work arrays of the sine perturbation's F
        step = 16 * N * half + 3 * 8 * N * points
        # numpy's ufunc iteration buffers (a broadcast multiply's is about 110 KiB) and the trace's rows
        slack = 128 * 1024
        assert peak() <= per_call + step + slack
        # a work buffer as large as (N, S) + half shape, the one of every component, fails the pin
        work_buffer = HalfSpectrum.work_buffer
        monkeypatch.setattr(HalfSpectrum, "work_buffer", lambda half: np.stack([work_buffer(half)] * N)[0])
        assert peak() > per_call + step + slack


def rows(trace):
    """The trace's rows as its CSV writes them: by repr, so two nan ratios compare equal."""
    return trace.to_csv().splitlines()[1:]


def without_the_reach_rule():
    """The stall bound switched off: with T = inf, only the round-off floor stops a stall."""
    return mock.patch.object(campanato_module, "_reach", lambda certificate: math.inf)


class TestReachStall:
    """The stall rule of ``_iterate``: stop once no later iterate can pass the tolerance."""

    @staticmethod
    def g_problem():
        # F-solve of G(D^2 u*): the k = 0 mean of g is out of reach of the F-iterates
        grid = GridSpec(n=2, N=2, M=16)
        A = identity_tensor(2, 2)
        specF = sine_spec(A, 0.3)
        cert = example1_certificate(specF)
        specG = sine_spec(A, 0.3 + 0.1 * nu_F_lower_bound(cert))
        g = manufactured(specG, grid, band=4, seed=31)[1]
        return specF, cert, g

    @staticmethod
    def weighted_problem():
        # the same kind of problem with a weight field, and alpha = 1/weight
        grid = GridSpec(n=2, N=2, M=16)
        A = identity_tensor(2, 2)
        weight = 1.0 + 0.5 * np.random.default_rng(3).random(grid.shape)
        spec, specG = (
            NonlinearitySpec(tensor=A, weight=weight, perturbation=SinePerturbation(amplitude=rho))
            for rho in (0.1, 0.12)
        )
        cert = example1_certificate(spec, nu=1.0)
        return spec, 1.0 / weight, cert, manufactured(specG, grid, band=4, seed=31)[1]

    @pytest.mark.parametrize("weighted", [False, True])
    def test_the_mean_bound_stops_at_its_first_step(self, weighted):
        if weighted:
            spec, alpha, cert, f = self.weighted_problem()
        else:
            spec, cert, f = self.g_problem()
            alpha = cert.alpha
        config = SolveConfig(tol_residual=1e-9)
        _, trace = campanato_solve(spec, alpha, f, cert, config)
        checked = campanato_module._checked_alpha(spec, alpha, f.grid, cert)
        with without_the_reach_rule():
            _, full = campanato_solve(spec, alpha, f, cert, config)
            # F of iterate j, from the same run cut at step j
            Fs = [
                campanato_module._iterate(spec, checked, f, cert, replace(config, max_iters=j))[2]
                for j in range(1, full.iterations + 1)
            ]
        assert trace.status == full.status == "max_iters"
        k = trace.iterations
        assert k < full.iterations
        assert rows(trace) == rows(full)[:k]
        grid, records = f.grid, full.records
        K = cert.contraction
        alpha_rms = np.sqrt(np.mean(np.square(alpha)))  # ||alpha||_2 / sqrt(L^n)
        tol_abs = config.tol_residual * l2_norm(f)

        def lower(j, tail):
            # (p_j - tail d_{j+1}) / alpha_rms, p_j the norm of the mean part of alpha (F_j - f)
            mean = VectorField(grid, alpha * (Fs[j - 1].data - f.data)).mean()
            return (np.sqrt(grid.volume * np.sum(mean**2)) - tail * records[j].metric) / alpha_rms

        # the bound, applied to the rows of the run without the rule: its first step is the stop
        tail = K / (1 - K) * (1 + campanato_module.REACH_SLACK)
        meets = [
            records[j - 1].ratio <= K and records[j].metric <= K * records[j - 1].metric and lower(j, tail) > tol_abs
            for j in range(1, len(records))
        ]
        assert meets.index(True) == k - 1
        # r_k - B d_k > tol, a bound on the residual's own moves, holds at none of those steps: the stop needs the mean
        B = float(1.0 / np.min(checked)) * (1 + K) * K / (1 - K) * (1 + campanato_module.REACH_SLACK)
        assert not any(r.ratio <= K and r.residual - B * r.metric > tol_abs for r in records[:k])
        # and what it claims holds: no later residual of the run without the rule falls below it
        assert min(r.residual for r in records[k - 1 :]) >= lower(k, K / (1 - K)) > tol_abs

    def test_a_stalled_solve_bounds_its_distance_by_the_next_step(self):
        # d_{k+1}/(1 - K), from the next step the loop made, is below K/(1 - K) d_k and bounds
        # ||A : D^2(u* - u)||, u* taken as where the run without the rule stops, at the round-off floor
        spec, cert, g = self.g_problem()
        config = SolveConfig(tol_residual=1e-9)
        u, trace = campanato_solve(spec, cert.alpha, g, cert, config)
        with without_the_reach_rule():
            u_full, full = campanato_solve(spec, cert.alpha, g, cert, config)
        assert trace.status == "max_iters" and trace.iterations < full.iterations
        K = cert.contraction
        assert trace.distance_bound == full.records[trace.iterations].metric / (1 - K)
        assert trace.distance_bound < K / (1 - K) * trace.records[-1].metric
        assert 0 < l2_norm(apply_operator(spec.tensor, u_full - u)) <= trace.distance_bound

    @staticmethod
    def offset_sine(offset, amplitude):
        return CustomPerturbation(
            fn=lambda X: offset + amplitude * np.sin(X).sum(axis=(-2, -1)), lipschitz=2 * amplitude, name="offset-sine"
        )

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.sampled_from([1e-3, 1e-2, 1.0, 30.0]),
        offset=st.sampled_from([0.0, 1e-15, -1e-15, 1e-14]),
        rhs_amplitude=st.sampled_from([0.1, 0.1, 0.11]),
        weighted=st.booleans(),
        seed=st.integers(0, 3),
        tol=st.sampled_from([1e-10, 1e-6, 1e-4, 1e-3]),
    )
    def test_the_rule_never_stops_a_solve_that_converges(self, scale, offset, rhs_amplitude, weighted, seed, tol):
        # f is F(D^2 u*), or G(D^2 u*) of a G a little off F, whose mean F cannot match;
        # scaled, so that a tiny f lets the hook's offset show in its bits
        grid = GridSpec(n=2, N=2, M=8)
        A = identity_tensor(2, 2)
        weight = 1.0 + 0.5 * np.random.default_rng(seed).random(grid.shape) if weighted else 1.0
        spec = NonlinearitySpec(tensor=A, weight=weight, perturbation=self.offset_sine(offset, 0.1))
        specG = NonlinearitySpec(tensor=A, weight=weight, perturbation=self.offset_sine(offset, rhs_amplitude))
        cert = example1_certificate(spec, nu=1.0)
        alpha = 1.0 / weight
        f = manufactured(specG, grid, band=3, seed=40 + seed)[1] * scale
        config = SolveConfig(tol_residual=tol)
        u, trace = campanato_solve(spec, alpha, f, cert, config)
        with without_the_reach_rule():
            u_full, full = campanato_solve(spec, alpha, f, cert, config)
        if full.status == "converged":
            assert trace.status == "converged"
            assert u.data.tobytes() == u_full.data.tobytes()
        assert rows(trace) == rows(full)[: trace.iterations]


class TestSolveConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_iters": 2.5}, "max_iters must be a non-negative integer"),
            ({"max_iters": True}, "max_iters must be a non-negative integer"),
            ({"max_iters": 0}, "max_iters must be >= 1"),
            ({"tol_residual": math.nan}, "tol_residual must be a finite number"),
            ({"tol_residual": math.inf}, "tol_residual must be a finite number"),
            ({"tol_residual": 0.0}, "tol_residual must be positive"),
        ],
    )
    def test_a_value_that_breaks_the_stopping_rule_is_an_input_error(self, kwargs, match):
        # 2.5 used to fail mid-solve, nan to run to max_iters and inf to stop at once as converged
        with pytest.raises(InputError, match=match):
            SolveConfig(**kwargs)

    def test_numpy_scalars_are_numbers(self):
        config = SolveConfig(tol_residual=np.float64(1e-6), max_iters=np.int64(3))
        assert (config.tol_residual, config.max_iters) == (1e-6, 3)


class TestConstants:
    def test_contraction_bound_value(self):
        assert fake_certificate(beta=0.04, gamma=0.12).require_feasible().contraction == pytest.approx(0.4)

    def test_contraction_bound_small(self):
        assert fake_certificate(beta=1e-6, gamma=1e-6).require_feasible().contraction <= 2e-3

    def test_uniqueness_constant_value(self):
        cert = fake_certificate(beta=0.125, gamma=0.125)  # K = 0.5
        assert uniqueness_constant(cert) == pytest.approx(2.0)

    def test_uniqueness_constant_blows_up_near_one(self):
        near = fake_certificate(beta=0.5, gamma=0.49999)
        far = fake_certificate(beta=0.1, gamma=0.1)
        assert uniqueness_constant(near) > 100 * uniqueness_constant(far)

    def test_infeasible_rejected(self):
        with pytest.raises(InputError):
            fake_certificate(beta=0.7, gamma=0.4).require_feasible()


class TestComparison:
    def test_equal_fields_margin_zero(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        w = random_band_limited(grid32, band=5, seed=8)
        assert verify_comparison(spec, cert, w, w) == pytest.approx(0.0, abs=1e-15)

    def test_builds_no_full_hessian(self, monkeypatch, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        w, v = (random_band_limited(grid32, band=6, seed=seed) for seed in (9, 10))
        expected = verify_comparison(spec, cert, w, v)
        refuse_full_hessian(monkeypatch)
        assert verify_comparison(spec, cert, w, v) == expected

    def test_fields_of_two_grids_are_an_input_error(self, grid32, identity22):
        spec = sine_spec(identity22, 0.3)
        cert = example1_certificate(spec, nu=1.0)
        w = random_band_limited(grid32, band=6, seed=9)
        v = random_band_limited(GridSpec(n=2, N=2, M=16), band=3, seed=10)
        with pytest.raises(InputError, match="share a grid"):
            verify_comparison(spec, cert, w, v)

    def test_linear_pairs(self, grid32, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        cert = fake_certificate(beta=1e-6, gamma=1e-6)
        for seed in range(5):
            w = random_band_limited(grid32, band=6, seed=100 + seed)
            v = random_band_limited(grid32, band=6, seed=200 + seed)
            margin = verify_comparison(spec, cert, w, v)
            scale = spectral_hessian(w, PHYSICAL).norm() + spectral_hessian(v, PHYSICAL).norm()
            assert margin <= 1e-9 * scale

    def test_lipschitz_class_pairs(self, grid32, identity22):
        spec = sine_spec(identity22, 0.5)
        cert = example1_certificate(spec, nu=1.0)
        for seed in range(10):
            w = random_band_limited(grid32, band=6, seed=300 + seed)
            v = random_band_limited(grid32, band=6, seed=400 + seed)
            margin = verify_comparison(spec, cert, w, v)
            scale = spectral_hessian(w, PHYSICAL).norm() + spectral_hessian(v, PHYSICAL).norm()
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

    @settings(max_examples=300, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.0, 3.0, 0.0, math.inf, math.nan]), st.integers(0, 9)),
            min_size=1,
            max_size=40,
        ),
        floor=st.sampled_from([-1.0, 0.1]),
    )
    # four rises, then an inf ratio, which does not make the fifth; four rises, two nan ratios, one more rise
    @example(events=[(1.0, 1)] + [(2.0, 1)] * 4 + [(math.inf, 1)], floor=-1.0)
    @example(events=[(1.0, 1)] + [(2.0, 1)] * 4 + [(math.nan, 1), (1.0, 1), (2.0, 1)], floor=-1.0)
    def test_the_run_count_is_the_takewhile_rule(self, events, floor):
        # each finite positive event is the ratio to the last metric (exactly 1 repeats it), 0, inf and
        # nan are the metric itself, so ratios come out nan, inf, exactly 1, above and below 1; a step
        # whose draw is 0 passes the tolerance.  The rule as first written: the trailing run of finite
        # ratios above 1, by takewhile over the finite ratios so far
        trace = IterationTrace()
        prev, finite, status = math.nan, [], "running"
        for event, draw in events:
            grows = 0.0 < event < math.inf and 0.0 < prev < math.inf
            metric = prev * event if grows else event
            stop = trace.advance(metric, 1.0 if draw else 0.0, 0.5, floor)
            ratio = metric / prev if prev > 0 else math.nan
            if np.isfinite(ratio):
                finite.append(ratio)
            if not draw:
                status = "converged"
            elif metric <= floor:
                status = "max_iters"
            elif len(list(takewhile(lambda r: r > 1.0, reversed(finite)))) >= DIVERGENCE_PATIENCE:
                status = "diverged"
            assert (trace.status, stop) == (status, status != "running")
            prev = metric

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
