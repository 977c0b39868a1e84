import numpy as np
import pytest
import scipy.fft

from nearelliptic import (
    GridSpec,
    VectorField,
    apply_operator,
    hessian_estimate_check,
    l2_norm,
    random_band_limited,
    solve_linear,
    spectral_hessian,
)
from nearelliptic.errors import DegenerateSymbolError, EstimateBreachError, InputError
from nearelliptic.fields import PHYSICAL, HessianPairs, half_spectrum
from nearelliptic.linear import MEAN_TOLERANCE, spectral_plan
from nearelliptic.tensors import SymTensor4, random_rank_one_positive

from conftest import pairing_spectrum, random_sym_tensor


def hessian_error(u, v):
    """Relative hessian-seminorm distance."""
    hu = spectral_hessian(u, PHYSICAL)
    hv = spectral_hessian(v, PHYSICAL)
    return HessianPairs(hu.grid, hu.data - hv.data).norm() / hv.norm()


def single_mode(grid):
    coords = np.meshgrid(*grid.axes(), indexing="ij")
    data = np.zeros((grid.N,) + grid.shape)
    data[0] = np.sin(2 * np.pi * coords[0] / grid.L)
    return VectorField(grid, data, PHYSICAL)


class TestApplyOperator:
    def test_identity_is_componentwise_laplacian(self, grid32, identity22):
        u = random_band_limited(grid32, band=5, seed=0)
        hess = spectral_hessian(u, PHYSICAL)
        lap = hess.data[:, 0] + hess.data[:, 2]  # packed slots (0, 0) and (1, 1)
        np.testing.assert_allclose(apply_operator(identity22, u).data, lap, atol=1e-10)

    def test_single_mode_analytic(self, grid32, identity22):
        u = single_mode(grid32)
        out = apply_operator(identity22, u)
        np.testing.assert_allclose(out.data, -((2 * np.pi) ** 2) * u.data, atol=1e-9)

    def test_matches_finite_difference_contraction(self, block_m8):
        # second-difference oracle contracted against the tensor by hand;
        # the gap is pure O(h^2) truncation and contracts accordingly
        rel = {}
        for M in (64, 128):
            grid = GridSpec(n=2, N=2, M=M)
            u = random_band_limited(grid, band=3, seed=1)
            h = grid.spacing
            fd_hess = np.empty((2, 2, 2) + grid.shape)
            for i in range(2):
                fd_hess[:, i, i] = (
                    np.roll(u.data, -1, 1 + i) - 2 * u.data + np.roll(u.data, 1, 1 + i)
                ) / h**2
            cross = (
                np.roll(np.roll(u.data, -1, 1), -1, 2)
                - np.roll(np.roll(u.data, -1, 1), 1, 2)
                - np.roll(np.roll(u.data, 1, 1), -1, 2)
                + np.roll(np.roll(u.data, 1, 1), 1, 2)
            ) / (4 * h**2)
            fd_hess[:, 0, 1] = fd_hess[:, 1, 0] = cross
            fd_apply = np.einsum("abij,bij...->a...", block_m8.entries, fd_hess)
            exact = apply_operator(block_m8, u).data
            rel[M] = np.abs(fd_apply - exact).max() / np.abs(exact).max()
        assert rel[64] <= 5e-2
        assert rel[128] <= rel[64] / 3.0

    def test_dimension_mismatch(self, grid32):
        A3 = random_sym_tensor(3, 2, seed=2)
        with pytest.raises(InputError):
            apply_operator(A3, random_band_limited(grid32, 2, seed=3))


class TestSolveLinear:
    def test_single_mode_exact(self, grid32, identity22):
        u_exact = single_mode(grid32)
        f = VectorField(grid32, -((2 * np.pi) ** 2) * u_exact.data, PHYSICAL)
        result = solve_linear(identity22, f)
        assert np.abs(result.u.data - u_exact.data).max() <= 1e-12
        assert result.residual_l2 <= 1e-10 * result.rhs_l2

    def test_zero_rhs(self, grid32, block_m8):
        f = VectorField(grid32, np.zeros((2, 32, 32)), PHYSICAL)
        result = solve_linear(block_m8, f)
        assert np.abs(result.u.data).max() == 0.0

    def test_manufactured_round_trip(self, grid32, block_m8):
        ustar = random_band_limited(grid32, band=6, seed=4)
        f = apply_operator(block_m8, ustar)
        result = solve_linear(block_m8, f)
        assert hessian_error(result.u, ustar) <= 1e-10

    def test_left_inverse_property(self, grid32):
        A, cert = random_rank_one_positive(2, 2, seed=5)
        u = random_band_limited(grid32, band=7, seed=6)
        result = solve_linear(A, apply_operator(A, u), nu=cert.nu)
        assert hessian_error(result.u, u) <= 1e-10

    def test_gauge_and_dropped_mean(self, grid32, identity22):
        ustar = random_band_limited(grid32, band=4, seed=7)
        f = apply_operator(identity22, ustar)
        shift = np.zeros((2, 32, 32))
        shift[0] = 0.75
        f_shifted = VectorField(grid32, f.data + shift, PHYSICAL)
        result = solve_linear(identity22, f_shifted)
        np.testing.assert_allclose(result.dropped_mean, [0.75, 0.0], atol=1e-12)
        assert result.mean_warning
        assert np.abs(result.u.mean()).max() <= 1e-14
        # residual is measured against the mean-free part
        assert result.residual_l2 <= 1e-9 * result.rhs_l2

    def test_hessian_ratio_bound(self, grid32, block_m8):
        nu = 1.0
        for seed in range(5):
            f = random_band_limited(grid32, band=8, seed=seed)
            result = solve_linear(block_m8, f, nu=nu)
            assert result.hessian_ratio <= 1 / nu + 1e-9
            # a priori bound: ||D^2 u|| <= ||f - mean|| / nu
            assert result.hessian_l2 <= result.rhs_l2 / nu + 1e-9

    def test_degenerate_symbol_reports_frequency(self, grid32):
        entries = np.zeros((2, 2, 2, 2))
        entries[0, 0] = np.eye(2)
        entries[1, 1] = np.diag([0.0, 1.0])
        A = SymTensor4(entries)
        f = random_band_limited(grid32, band=3, seed=8)
        with pytest.raises(DegenerateSymbolError) as err:
            solve_linear(A, f, nu=1.0)  # caller-supplied nu skips the positivity gate
        assert err.value.frequency is not None

    def test_not_positive_rejected(self, grid32):
        A = SymTensor4(-np.einsum("ab,ij->abij", np.eye(2), np.eye(2)))
        with pytest.raises(InputError):
            solve_linear(A, random_band_limited(grid32, 2, seed=9))


class TestRegularization:
    def test_epsilon_schedule_monotone(self, grid32, block_m8):
        ustar = random_band_limited(grid32, band=6, seed=10)
        f = apply_operator(block_m8, ustar)
        exact = solve_linear(block_m8, f, nu=1.0).u
        errors = []
        for eps in (1e-2, 1e-4, 1e-6):
            result = solve_linear(block_m8, f, epsilon=eps, nu=1.0)
            lo, hi = result.multiplier_bounds
            assert 0.0 <= lo <= hi <= 1.0
            assert result.multiplier_identity_error <= 1e-8 * result.rhs_l2
            errors.append(l2_norm(result.u - exact))
        assert errors[0] > errors[1] > errors[2]

    def test_regularized_operator_identity(self, grid32, identity22):
        # A : D^2 u_eps matches the damped rhs coefficient-by-coefficient
        f = random_band_limited(grid32, band=5, seed=11)
        result = solve_linear(identity22, f, epsilon=1e-3, nu=1.0)
        assert result.multiplier_identity_error <= 1e-10 * result.rhs_l2

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_bad_epsilon(self, grid32, identity22, epsilon):
        with pytest.raises(InputError, match="epsilon"):
            solve_linear(identity22, random_band_limited(grid32, 2, seed=12), epsilon=epsilon, nu=1.0)


BAD_NU = [-1.0, 0.0, np.nan, np.inf, -np.inf]


class TestCallerNu:
    @pytest.mark.parametrize("nu", BAD_NU)
    def test_solve_linear_refuses_a_nu_that_is_not_finite_and_positive(self, grid32, identity22, nu):
        with pytest.raises(InputError, match="nu"):
            solve_linear(identity22, random_band_limited(grid32, 2, seed=12), nu=nu)

    @pytest.mark.parametrize("nu", BAD_NU)
    def test_hessian_estimate_refuses_a_nu_that_is_not_finite_and_positive(self, grid32, identity22, nu):
        with pytest.raises(InputError, match="nu"):
            hessian_estimate_check(identity22, random_band_limited(grid32, 2, seed=12), nu=nu)

    def test_hessian_estimate_refuses_a_tensor_that_is_not_positive(self, grid32):
        A = SymTensor4(-np.einsum("ab,ij->abij", np.eye(2), np.eye(2)))
        with pytest.raises(InputError, match="not rank-one positive"):
            hessian_estimate_check(A, random_band_limited(grid32, 2, seed=9))


class TestHessianEstimate:
    def test_single_mode_saturates(self, grid32, identity22):
        ratio = hessian_estimate_check(identity22, single_mode(grid32), nu=1.0)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_zero_field_convention(self, grid32, identity22):
        u = VectorField(grid32, np.zeros((2, 32, 32)), PHYSICAL)
        assert hessian_estimate_check(identity22, u, nu=1.0) == 0.0

    def test_random_fields_bounded(self, grid32, block_m8):
        worst = 0.0
        for seed in range(50):
            u = random_band_limited(grid32, band=8, seed=seed)
            worst = max(worst, hessian_estimate_check(block_m8, u, nu=1.0))
        assert worst <= 1.0 + 1e-9

    def test_breach_detection(self, grid32):
        # a tensor that annihilates the second component while u lives there
        entries = np.zeros((2, 2, 2, 2))
        entries[0, 0] = np.eye(2)
        A = SymTensor4(entries)
        data = np.zeros((2, 32, 32))
        coords = np.meshgrid(*grid32.axes(), indexing="ij")
        data[1] = np.sin(2 * np.pi * coords[0])
        u = VectorField(grid32, data, PHYSICAL)
        with pytest.raises(EstimateBreachError):
            hessian_estimate_check(A, u, nu=1.0)


class TestPairingSpectrum:
    def test_solved_pairing_real_nonnegative(self, grid32, block_m8):
        f = random_band_limited(grid32, band=6, seed=13)
        result = solve_linear(block_m8, f, nu=1.0)
        values = pairing_spectrum(result.u, f)
        scale = np.abs(values).max()
        assert np.abs(values.imag).max() <= 1e-9 * scale
        assert values.real.min() >= -1e-9 * scale

    def test_fields_of_two_grids_are_an_input_error(self, grid32):
        u = random_band_limited(grid32, 4, seed=14)
        f = random_band_limited(GridSpec(n=2, N=2, M=16), 4, seed=15)
        for a, b in ((u, f), (f, u)):
            with pytest.raises(InputError):
                pairing_spectrum(a, b)


def reference_report(A, f, epsilon, nu):
    """The report of ``solve_linear`` and the bytes of its u, by the formulas of its first release.

    These build every check from full-array temporaries and boolean masks,
    and rebuild 4 pi^2 |z|^2 on every call.
    """
    g = f.grid
    plan = spectral_plan(A, g)
    half = plan.half
    fhat = scipy.fft.rfftn(f.data, axes=half.axes, norm="forward")
    fnorm = half.norm(fhat)
    dropped = fhat[(slice(None),) + (0,) * g.n].real.copy()
    mean_warning = bool(np.linalg.norm(dropped) > MEAN_TOLERANCE * max(fnorm, np.finfo(float).tiny))
    gauge = half.zsq > 0
    uhat = plan.invert(fhat)
    if epsilon is None:
        multiplier = gauge.astype(float)
        regularization = "exact"
    else:
        multiplier = half.zsq / (half.zsq + epsilon)
        uhat *= multiplier
        regularization = f"epsilon={epsilon:g}"
    u = scipy.fft.irfftn(uhat, s=g.shape, axes=half.axes, norm="forward")
    op_coef = plan.apply(uhat)
    hessian_l2 = half.norm(4 * np.pi**2 * half.zsq * uhat)
    operator_l2 = half.norm(op_coef)
    bounds = multiplier[gauge]
    report = {
        "residual_l2": half.norm(np.where(gauge, op_coef - fhat, 0.0)),
        "hessian_ratio": hessian_l2 / operator_l2 if operator_l2 > 0 else 0.0,
        "regularization": regularization,
        "dropped_mean": dropped.tolist(),
        "nu": nu,
        "rhs_l2": fnorm,
        "hessian_l2": hessian_l2,
        "operator_l2": operator_l2,
        "multiplier_bounds": [float(bounds.min()), float(bounds.max())],
        "multiplier_identity_error": float(np.abs(op_coef - multiplier * fhat)[:, gauge].max()),
        "mean_warning": mean_warning,
    }
    return report, u.tobytes()


def reference_ratio(A, u, nu):
    """``hessian_estimate_check`` by the formulas of its first release."""
    plan = spectral_plan(A, u.grid)
    half = plan.half
    coef = scipy.fft.rfftn(u.data, axes=half.axes, norm="forward")
    return float(nu * half.norm(4 * np.pi**2 * half.zsq * coef) / half.norm(plan.apply(coef)))


class TestChecksInPlace:
    @pytest.mark.parametrize("n, M", [(2, 16), (2, 32), (3, 8), (3, 16)])
    @pytest.mark.parametrize("epsilon", [None, 1e-3, 0.5])
    def test_reports_and_ratios_are_those_of_the_first_formulas_bit_for_bit(self, n, M, epsilon):
        grid = GridSpec(n=n, N=2, M=M)
        for seed in range(3):
            A, cert = random_rank_one_positive(n, 2, seed=40 + seed)
            u = random_band_limited(grid, M // 4, seed=50 + seed)
            # a mean in f, so that the gauge entry the checks drop is not zero
            f = VectorField(grid, apply_operator(A, u).data + 0.25 * (seed - 1), PHYSICAL)
            result = solve_linear(A, f, epsilon=epsilon, nu=cert.nu)
            report, u_bytes = reference_report(A, f, epsilon, cert.nu)
            assert result.report() == report
            assert result.u.data.tobytes() == u_bytes
            # the first, second (kept) and later requests for u's spectrum
            expected = reference_ratio(A, u, cert.nu)
            for _ in range(3):
                assert hessian_estimate_check(A, u, nu=cert.nu) == expected

    @pytest.mark.parametrize("k", [1, 5])
    def test_a_sweep_transforms_a_reused_field_twice(self, monkeypatch, k):
        grid = GridSpec(n=2, N=2, M=16)
        sweep = [random_rank_one_positive(2, 2, seed=60 + j) for j in range(k)]
        u = random_band_limited(grid, 4, seed=61)
        counts = {"rfftn": 0, "irfftn": 0}
        for name in counts:
            transform = getattr(scipy.fft, name)

            def counted(*args, _transform=transform, _name=name, **kwargs):
                counts[_name] += 1
                return _transform(*args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counted)
        for A, cert in sweep:
            f = apply_operator(A, u)
            solve_linear(A, f, nu=cert.nu)
            hessian_estimate_check(A, u, nu=cert.nu)
        # u twice (apply, then the estimate, which keeps it); each f and u* keep the spectrum they are made
        # from, so only A : D^2 u and u* go back per tensor
        assert counts == {"rfftn": 2, "irfftn": 2 * k}
