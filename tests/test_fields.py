import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearelliptic import (
    GridSpec,
    NonlinearitySpec,
    SinePerturbation,
    SolveConfig,
    campanato_solve,
    example1_certificate,
    VectorField,
    l2_norm,
    random_band_limited,
    spectral_hessian,
    w22star_norms,
)
from nearelliptic import fields as fields_module
from nearelliptic.errors import InputError
from nearelliptic.fields import (
    _HEADER,
    _MAGIC,
    PHYSICAL,
    SPECTRAL,
    HessianPairs,
    _band_half_spectra,
    _conjugate_reflect,
    band_limited_coefficients,
    half_spectrum,
    load_field,
    save_field,
)
from nearelliptic.linear import apply_operator, solve_linear
from nearelliptic.nonlinearity import evaluate_field
from nearelliptic.tensors import identity_tensor, random_rank_one_positive
from conftest import pairing_spectrum, refuse_full_hessian

NUMPY_TRANSFORMS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"
)


def single_mode_field(grid, component=0, axis=0):
    coords = np.meshgrid(*grid.axes(), indexing="ij")
    data = np.zeros((grid.N,) + grid.shape)
    data[component] = np.sin(2 * np.pi * coords[axis] / grid.L)
    return VectorField(grid, data, PHYSICAL)


class TestGridSpec:
    def test_rejects_odd_m(self):
        with pytest.raises(InputError):
            GridSpec(n=2, N=2, M=33)

    def test_rejects_tiny_m(self):
        with pytest.raises(InputError):
            GridSpec(n=2, N=2, M=2)

    def test_rejects_non_finite_period(self):
        for L in (np.inf, np.nan):
            with pytest.raises(InputError):
                GridSpec(n=2, N=2, M=4, L=L)

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setattr(fields_module, "_DEFAULT_BUDGET", 1024)
        with pytest.raises(InputError):
            GridSpec(n=3, N=2, M=64)

    def test_volumes(self, grid32):
        assert grid32.cell_volume == pytest.approx((1.0 / 32) ** 2)
        assert grid32.volume == 1.0

    def test_the_budget_is_not_part_of_the_grid(self, monkeypatch):
        # the guard reads the module budget at construction; the grid keeps no trace of it
        plain = GridSpec(n=2, N=2, M=8)
        monkeypatch.setattr(fields_module, "_DEFAULT_BUDGET", 10**6)
        roomy = GridSpec(n=2, N=2, M=8)
        assert plain == roomy and hash(plain) == hash(roomy) and repr(plain) == repr(roomy)
        assert half_spectrum(plain) is half_spectrum(roomy)
        u = single_mode_field(plain)
        total = u + single_mode_field(roomy)
        np.testing.assert_array_equal(total.data, 2 * u.data)

    @pytest.mark.parametrize("n, M", [(10**6, 64), (2, 10**4000), (10**4000, 4)])
    def test_a_grid_too_large_to_count_is_refused_naming_n_and_m(self, n, M):
        with pytest.raises(InputError, match=f"n={n}, N=2, M={M}"):
            GridSpec(n=n, N=2, M=M)

    @pytest.mark.parametrize("n, L", [(2, 1e-300), (2, 1e-160), (2, 1e160), (2, 1e300), (2, 1e-52), (3, 1e34)])
    def test_a_period_beyond_the_float_range_is_refused(self, n, L):
        # the volume L^n, the cell volume (L/M)^n or a multiplier (2 pi k / L)^2 passes 1e+-100
        with pytest.raises(InputError, match="period"):
            GridSpec(n=n, N=2, M=8, L=L)

    @pytest.mark.parametrize("n, L", [(2, 1e-45), (2, 1e45), (3, 1e-31), (3, 1e32)])
    def test_a_period_inside_the_float_range_solves(self, n, L):
        grid = GridSpec(n=n, N=2, M=8, L=L)
        u = random_band_limited(grid, band=2, seed=1)
        A = identity_tensor(n, 2)
        v = solve_linear(A, apply_operator(A, u)).u
        assert l2_norm(v - u) <= 1e-10 * l2_norm(u)


class TestTransforms:
    def test_single_mode_coefficients(self, grid32):
        u = single_mode_field(grid32)
        coef = u.to_spectral().data
        # k = +e1 carries -i/2, k = -e1 carries +i/2, everything else vanishes
        assert coef[0, 1, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert coef[0, -1, 0] == pytest.approx(0.5j, abs=1e-14)
        coef_rest = coef.copy()
        coef_rest[0, 1, 0] = coef_rest[0, -1, 0] = 0.0
        assert np.abs(coef_rest).max() < 1e-14

    def test_constant_field(self, grid32):
        u = VectorField(grid32, np.full((2, 32, 32), 3.25), PHYSICAL)
        coef = u.to_spectral().data
        assert coef[0, 0, 0] == pytest.approx(3.25)
        assert coef[1, 0, 0] == pytest.approx(3.25)
        off = coef.copy()
        off[:, 0, 0] = 0
        assert np.abs(off).max() < 1e-13

    def test_round_trip(self, grid32):
        rng = np.random.default_rng(0)
        u = VectorField(grid32, rng.standard_normal((2, 32, 32)), PHYSICAL)
        back = u.to_spectral().to_physical()
        scale = np.abs(u.data).max()
        assert np.abs(back.data - u.data).max() <= 1e-12 * scale

    def test_plancherel(self, grid32):
        rng = np.random.default_rng(2)
        for k in range(100):
            u = VectorField(grid32, rng.standard_normal((2, 32, 32)), PHYSICAL)
            phys = l2_norm(u)
            spec = l2_norm(u.to_spectral())
            assert abs(phys**2 - spec**2) <= 1e-11 * phys**2


class TestOneTransformLibrary:
    def test_numpy_fft_serves_only_the_last_axis_real_pair(self, monkeypatch, identity22, tmp_path):
        # numpy.fft's rfft and irfft write into a given array; every other transform is scipy.fft's
        grid = GridSpec(n=2, N=2, M=16)
        u = random_band_limited(grid, 4, seed=23)
        path = tmp_path / "h.field"
        path.write_bytes(hessian_file(grid, full_hessian(spectral_hessian(u)), SPECTRAL, transform=True))
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        f = evaluate_field(spec, spectral_hessian(u))

        def refuse(*args, **kwargs):
            raise AssertionError("the package called a numpy.fft transform other than rfft and irfft")

        for name in NUMPY_TRANSFORMS:
            if name not in ("rfft", "irfft"):
                monkeypatch.setattr(np.fft, name, refuse)
        campanato_solve(spec, 1.0, f, example1_certificate(spec, nu=1.0))
        coef = u.to_spectral()
        coef.to_physical()
        for field in (u, coef):
            spectral_hessian(field)
        load_field(path)
        w22star_norms(random_band_limited(GridSpec(n=5, N=2, M=4), 1, seed=24))
        pairing_spectrum(solve_linear(identity22, u).u, u)

    @pytest.mark.parametrize("n, M", [(2, 32), (3, 8)])
    def test_full_grid_transforms_keep_the_numpy_normalization(self, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        data = np.random.default_rng(25).standard_normal((2,) + grid.shape)
        axes = tuple(range(1, n + 1))
        coef = VectorField(grid, data, PHYSICAL).to_spectral().data
        reference = np.fft.fftn(data, axes=axes) / grid.points
        assert np.abs(coef - reference).max() <= 1e-15 * np.abs(reference).max()
        back = VectorField(grid, reference, SPECTRAL).to_physical().data
        np.testing.assert_allclose(back, (np.fft.ifftn(reference, axes=axes) * grid.points).real, rtol=0, atol=1e-14)


class TestSpectralHessian:
    @pytest.mark.parametrize("representation", ["bogus", SPECTRAL])
    def test_a_representation_other_than_physical_is_an_input_error(self, grid32, representation):
        with pytest.raises(InputError, match=representation):
            spectral_hessian(single_mode_field(grid32), representation)

    @pytest.mark.parametrize("n, M", [(2, 16), (3, 8)])
    def test_a_spectral_input_gives_the_hessian_of_its_physical_field(self, n, M):
        # white noise, so that every mode and the Nyquist planes carry data
        grid = GridSpec(n=n, N=2, M=M)
        u = VectorField(grid, np.random.default_rng(26).standard_normal((2,) + grid.shape), PHYSICAL)
        expected = spectral_hessian(u).data
        scale = np.abs(expected).max()
        assert np.abs(spectral_hessian(u.to_spectral()).data - expected).max() <= 1e-12 * scale

    def test_single_mode_analytic(self, grid32):
        u = single_mode_field(grid32)
        hess = spectral_hessian(u)
        coords = np.meshgrid(*grid32.axes(), indexing="ij")
        expected = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * coords[0])
        # packed slots at n=2: (0, 0), (0, 1), (1, 1)
        np.testing.assert_allclose(hess.data[0, 0], expected, atol=1e-10)
        assert np.abs(hess.data[0, 1]).max() < 1e-12
        assert np.abs(hess.data[0, 2]).max() < 1e-12
        assert np.abs(hess.data[1]).max() < 1e-12

    def test_constant_field(self, grid32):
        u = VectorField(grid32, np.ones((2, 32, 32)), PHYSICAL)
        assert np.abs(spectral_hessian(u).data).max() < 1e-13

    def test_matches_finite_differences(self):
        # independent second-difference oracle; error contracts like h^2
        errors = {}
        for M in (32, 64):
            grid = GridSpec(n=2, N=2, M=M)
            u = random_band_limited(grid, band=2, seed=3)
            hess = spectral_hessian(u).data
            h = grid.spacing
            fd = np.empty_like(hess)
            for i, slot in ((0, 0), (1, 2)):
                fd[:, slot] = (np.roll(u.data, -1, 1 + i) - 2 * u.data + np.roll(u.data, 1, 1 + i)) / h**2
            fd[:, 1] = (
                np.roll(np.roll(u.data, -1, 1), -1, 2)
                - np.roll(np.roll(u.data, -1, 1), 1, 2)
                - np.roll(np.roll(u.data, 1, 1), -1, 2)
                + np.roll(np.roll(u.data, 1, 1), 1, 2)
            ) / (4 * h**2)
            errors[M] = np.abs(fd - hess).max() / np.abs(hess).max()
        assert errors[64] <= 1e-2
        assert errors[64] <= errors[32] / 3.0  # second order

    def test_symmetry_exact(self, grid32, tmp_path):
        u = random_band_limited(grid32, band=6, seed=4)
        path = tmp_path / "h.field"
        save_field(path, spectral_hessian(u))
        hess = file_payload(path, grid32, PHYSICAL)
        np.testing.assert_array_equal(hess[:, 0, 1], hess[:, 1, 0])

    def test_zero_mean_mode(self, grid32):
        u = VectorField(grid32, np.random.default_rng(5).standard_normal((2, 32, 32)), PHYSICAL)
        half = half_spectrum(grid32)
        coef = half.coefficients(u)[:, None] * half.hessian
        assert np.abs(coef[..., 0, 0]).max() == 0.0

    def test_frequencywise_positivity(self, grid32):
        # at every nonzero mode the rank-one hermitian pairing of a certified
        # tensor with the field coefficients is real and above nu |u^|^2 |z|^2
        A, cert = random_rank_one_positive(2, 2, seed=6)
        u = random_band_limited(grid32, band=8, seed=7)
        coef = u.to_spectral().data
        freqs = grid32.freq_axes()
        z1 = np.broadcast_to(freqs[0], grid32.shape) / grid32.L
        z2 = np.broadcast_to(freqs[1], grid32.shape) / grid32.L
        value = np.zeros(grid32.shape, dtype=complex)
        zvecs = np.stack([z1, z2])
        for a in range(2):
            for b in range(2):
                for i in range(2):
                    for j in range(2):
                        value += (
                            A.entries[a, b, i, j]
                            * coef[a]
                            * zvecs[i]
                            * np.conj(coef[b])
                            * zvecs[j]
                        )
        value *= 4 * np.pi**2
        mask = (z1**2 + z2**2) > 0
        scale = np.abs(value[mask]).max()
        assert np.abs(value[mask].imag).max() <= 1e-10 * scale
        floor = (
            cert.nu * 4 * np.pi**2 * (np.abs(coef) ** 2).sum(axis=0) * (z1**2 + z2**2)
        )
        assert (value[mask].real >= floor[mask] - 1e-9).all()


class TestNorms:
    def test_zero_field(self, grid32):
        u = VectorField(grid32, np.zeros((2, 32, 32)), PHYSICAL)
        report = w22star_norms(u)
        assert report.l2 == 0.0 and report.w22star == 0.0

    def test_single_mode_l2(self, grid32):
        assert l2_norm(single_mode_field(grid32)) == pytest.approx(1 / np.sqrt(2))

    def test_low_dimension_has_no_surrogates(self, grid32):
        report = w22star_norms(single_mode_field(grid32))
        assert report.grad_l2star_surrogate is None
        assert report.u_l2starstar_surrogate is None
        assert report.w22star > 0

    @pytest.mark.parametrize("n, M", [(2, 16), (3, 8), (5, 4)])
    def test_builds_no_full_hessian(self, monkeypatch, n, M):
        u = random_band_limited(GridSpec(n=n, N=2, M=M), band=1, seed=8)
        refuse_full_hessian(monkeypatch)
        hess_l2 = spectral_hessian(u).norm()
        report = w22star_norms(u)
        surrogates = (report.u_l2starstar_surrogate or 0.0) + (report.grad_l2star_surrogate or 0.0)
        assert report.w22star - surrogates == pytest.approx(hess_l2, rel=1e-12)

    @staticmethod
    def plancherel(grid, coef):
        """sqrt(L^n sum w |c|^2) over the half spectrum, weight 1 on k_n = 0 and M/2, 2 elsewhere."""
        weights = np.full(coef.shape[-1], 2.0)
        weights[0] = weights[-1] = 1.0
        return math.sqrt(grid.volume * (weights * np.abs(coef) ** 2).sum())

    @pytest.mark.parametrize("n, M", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("planes_only", [False, True])
    def test_one_pass_norms_are_the_weighted_plancherel_sum(self, n, M, planes_only):
        grid = GridSpec(n=n, N=2, M=M, L=0.7)
        rng = np.random.default_rng(23)
        half = half_spectrum(grid)
        if planes_only:
            # a + (-1)^j b along the last axis: power on k_n = 0 and k_n = M/2 only
            edge = grid.shape[:-1] + (1,)
            data = rng.standard_normal((2,) + edge) + rng.standard_normal((2,) + edge) * (-1.0) ** np.arange(M)
        else:
            data = rng.standard_normal((2,) + grid.shape)
        coef = half.forward(data)
        if planes_only:
            assert np.abs(coef[..., 1:-1]).max() <= 1e-15 * np.abs(coef).max()
        expected = self.plancherel(grid, coef)
        u = VectorField(grid, data, PHYSICAL)
        for value in (half.norm(coef), l2_norm(u), l2_norm(u.to_spectral())):
            assert value == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n, M", [(2, 16), (3, 8)])
    def test_one_pass_norms_of_zero_are_zero(self, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        half = half_spectrum(grid)
        u = VectorField(grid, np.zeros((2,) + grid.shape), PHYSICAL)
        assert half.norm(half.coefficients(u)) == 0.0
        assert l2_norm(u) == 0.0 and l2_norm(u.to_spectral()) == 0.0

    def test_a_power_past_the_float_range_still_overflows(self):
        grid = GridSpec(n=2, N=2, M=8)
        half = half_spectrum(grid)
        u = VectorField(grid, np.full((2,) + grid.shape, 1e200), PHYSICAL)
        for norm in (lambda: l2_norm(u), lambda: l2_norm(u.to_spectral()), lambda: half.norm(half.coefficients(u))):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                norm()

    def test_a_norm_past_the_float_range_is_inf(self):
        # the half-spectrum norm takes two powers; past the float range it must not form inf - inf
        grid = GridSpec(n=2, N=2, M=8)
        half = half_spectrum(grid)
        u = VectorField(grid, np.full((2,) + grid.shape, 1e200), PHYSICAL)
        with np.errstate(over="ignore"):
            assert l2_norm(u) == l2_norm(u.to_spectral()) == half.norm(half.coefficients(u)) == math.inf

    def test_high_dimension_surrogates(self):
        grid = GridSpec(n=5, N=2, M=6)
        u = random_band_limited(grid, band=1, seed=8)
        report = w22star_norms(u)
        assert report.grad_l2star_surrogate > 0
        assert report.u_l2starstar_surrogate > 0
        assert report.w22star >= report.grad_l2star_surrogate


class TestRandomBandLimited:
    def test_zero_band(self, grid32):
        assert np.abs(random_band_limited(grid32, 0, seed=9).data).max() == 0.0

    def test_deterministic(self, grid32):
        a = random_band_limited(grid32, 5, seed=10)
        b = random_band_limited(grid32, 5, seed=10)
        np.testing.assert_array_equal(a.data, b.data)

    def test_support(self, grid32):
        u = random_band_limited(grid32, 2, seed=11)
        coef = u.to_spectral().data
        k = grid32.integer_freqs()
        outside = (np.abs(k[:, None]) > 2) | (np.abs(k[None, :]) > 2)
        assert np.abs(coef[:, outside]).max() < 1e-15
        assert np.abs(coef).max() > 0

    def test_zero_mean_and_real(self, grid32):
        u = random_band_limited(grid32, 4, seed=12)
        assert np.abs(u.mean()).max() < 1e-15
        assert u.data.dtype == np.float64

    def test_band_out_of_range(self, grid32):
        with pytest.raises(InputError):
            random_band_limited(grid32, 16, seed=0)
        with pytest.raises(InputError):
            band_limited_coefficients(grid32, 16, seed=0)

    @pytest.mark.parametrize("n, M, band, seed", [(2, 32, 8, 11), (3, 8, 2, 12), (2, 16, 0, 3)])
    def test_field_is_the_one_built_from_its_coefficients(self, n, M, band, seed):
        # reference: the draws, band mask and hermitian average written out, to pin both bit for bit
        grid = GridSpec(n=n, N=2, M=M)
        rng = np.random.default_rng(seed)
        shape = (grid.N,) + grid.shape
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mask = np.ones(grid.shape, dtype=bool)
        for ka in grid.freq_axes():
            mask &= np.abs(ka) <= band
        coef = np.where(mask, raw, 0.0)
        coef = 0.5 * (coef + _conjugate_reflect(coef, 1, grid.n))
        coef[(slice(None),) + (0,) * grid.n] = 0.0
        expected = VectorField(grid, coef, SPECTRAL).to_physical().data
        np.testing.assert_array_equal(band_limited_coefficients(grid, band, seed), coef)
        np.testing.assert_array_equal(random_band_limited(grid, band, seed).data, expected)

    def test_coefficients_restrict_to_the_half_spectrum(self, grid32):
        # exactly hermitian, so the first M/2 + 1 planes of the last axis are the rfftn of the field
        coef = band_limited_coefficients(grid32, 7, seed=14)
        np.testing.assert_array_equal(coef, _conjugate_reflect(coef, 1, grid32.n))
        half = half_spectrum(grid32)
        field = random_band_limited(grid32, 7, seed=14)
        np.testing.assert_allclose(coef[..., : half.shape[-1]], half.coefficients(field), rtol=0, atol=1e-15)


def nonzero_band(grid, band):
    """The modes 0 < max_i |k_i| <= band of the half spectrum."""
    sizes = half_spectrum(grid).shape
    inside = np.ones(sizes, dtype=bool)
    for axis, size in enumerate(sizes):
        shape = [1] * grid.n
        shape[axis] = size
        inside &= np.abs(grid.integer_freqs()[:size]).reshape(shape) <= band
    inside[(0,) * grid.n] = False
    return inside


class TestBandHalfSpectra:
    """The stability admission's fields: the band's half spectrum, drawn alone, with the law of the full draw."""

    CASES = [(2, 32), (3, 8)]

    @staticmethod
    def draw(grid, count=6, seed=5):
        return np.array([coef.copy() for coef in _band_half_spectra(grid, grid.M // 4, count, seed)])

    @pytest.mark.parametrize("n, M", CASES)
    def test_plane_is_hermitian_and_mean_zero(self, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        coefs = self.draw(grid)
        plane = coefs[..., 0]
        np.testing.assert_array_equal(plane, _conjugate_reflect(plane, 2, n - 1))
        assert np.all(coefs[(slice(None), slice(None)) + (0,) * n] == 0.0)
        assert np.abs(coefs).max() > 0

    @pytest.mark.parametrize("n, M", CASES)
    def test_support_is_the_band(self, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        band = M // 4
        coefs = self.draw(grid)
        inside = nonzero_band(grid, band)
        assert np.all(coefs[..., ~inside] == 0.0)
        assert np.all(coefs[..., inside] != 0.0)

    @pytest.mark.parametrize("n, M", CASES)
    def test_round_trip_through_physical_space(self, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        half = half_spectrum(grid)
        for coef in self.draw(grid):
            np.testing.assert_allclose(half.forward(half.inverse(coef)), coef, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n, M", CASES)
    def test_law_is_that_of_the_full_draw(self, n, M):
        # real and imaginary parts of variance 1/2 at every k != 0 of the band, as for band_limited_coefficients
        grid = GridSpec(n=n, N=2, M=M)
        band = M // 4
        count = 200
        full = np.array([band_limited_coefficients(grid, band, seed)[..., : M // 2 + 1] for seed in range(count)])
        inside = nonzero_band(grid, band)
        for coefs in (self.draw(grid, count=count), full):
            modes = coefs[..., inside]
            assert modes.real.var() == pytest.approx(0.5, abs=0.02)
            assert modes.imag.var() == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("n, M", CASES)
    def test_band_out_of_range(self, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        with pytest.raises(InputError):
            _band_half_spectra(grid, M // 2, 2, seed=0)


class TestSerialization:
    def test_binary_round_trip(self, grid32, tmp_path):
        u = random_band_limited(grid32, 4, seed=13)
        path = tmp_path / "u.field"
        save_field(path, u)
        v = load_field(path)
        assert v.grid == u.grid and v.representation == u.representation
        np.testing.assert_array_equal(v.data, u.data)

    def test_spectral_round_trip(self, grid32, tmp_path):
        u = random_band_limited(grid32, 4, seed=14).to_spectral()
        path = tmp_path / "u.field"
        save_field(path, u)
        np.testing.assert_array_equal(load_field(path).data, u.data)

    @pytest.mark.parametrize("n, M", [(2, 16), (3, 8)])
    def test_packed_hessian_round_trip(self, n, M, tmp_path):
        hess = spectral_hessian(random_band_limited(GridSpec(n=n, N=2, M=M), M // 4, seed=41))
        path = tmp_path / "h.field"
        save_field(path, hess)
        loaded = load_field(path)
        assert isinstance(loaded, HessianPairs) and loaded.grid == hess.grid
        assert loaded.data.tobytes() == hess.data.tobytes()

    @pytest.mark.parametrize("n, M", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("representation", [PHYSICAL, SPECTRAL])
    def test_a_full_hessian_file_loads_to_its_physical_upper_triangle(self, n, M, representation, tmp_path):
        # the n^2 layout as any writer of the format lays it out, spectral files as fftn / M^n
        grid = GridSpec(n=n, N=2, M=M)
        full = full_hessian(spectral_hessian(random_band_limited(grid, M // 4, seed=42)))
        path = tmp_path / "h.field"
        path.write_bytes(hessian_file(grid, full, representation, transform=representation == SPECTRAL))
        payload = file_payload(path, grid, representation)
        if representation == SPECTRAL:
            payload = scipy.fft.ifftn(payload, axes=tuple(range(3, 3 + n)), norm="forward").real
        rows, cols = HessianPairs.components(n)
        loaded = load_field(path)
        assert isinstance(loaded, HessianPairs)
        assert loaded.data.tobytes() == np.ascontiguousarray(payload[:, rows, cols]).tobytes()

    @pytest.mark.parametrize("representation", [PHYSICAL, SPECTRAL])
    def test_an_asymmetric_hessian_file_is_an_input_error(self, representation, tmp_path):
        grid = GridSpec(n=2, N=2, M=8)
        full = full_hessian(spectral_hessian(random_band_limited(grid, 2, seed=43))).copy()
        full[1, 0, 1, 3, 4] += 1e-6
        path = tmp_path / "h.field"
        path.write_bytes(hessian_file(grid, full, representation, transform=representation == SPECTRAL))
        with pytest.raises(InputError, match="asymmetric"):
            load_field(path)

    def test_round_off_asymmetry_is_accepted(self, tmp_path):
        grid = GridSpec(n=2, N=2, M=8)
        full = full_hessian(spectral_hessian(random_band_limited(grid, 2, seed=44))).copy()
        scale = max(1.0, np.abs(full).max())
        full[0, 1, 0] += 0.5e-12 * scale
        path = tmp_path / "h.field"
        path.write_bytes(hessian_file(grid, full, PHYSICAL))
        np.testing.assert_array_equal(load_field(path).data[0, 1], full[0, 0, 1])


def full_hessian(hess: HessianPairs) -> np.ndarray:
    """The n^2 physical hessian (N, n, n) + grid of a packed one: component (j, i) repeats (i, j)."""
    return hess.data[:, HessianPairs.slot_index(hess.grid.n)]


def hessian_file(grid, full, representation, transform=False) -> bytes:
    """A hessian field file (kind 1) with payload ``full`` (N, n, n) + grid, written by hand.

    With ``transform``, ``full`` is physical and its coefficients fftn / M^n are written.
    """
    if transform:
        full = np.fft.fftn(full, axes=tuple(range(3, 3 + grid.n))) / grid.points
    code = {PHYSICAL: 0, SPECTRAL: 1}[representation]
    data = np.ascontiguousarray(full, dtype=float if representation == PHYSICAL else complex)
    return _HEADER.pack(_MAGIC, grid.n, grid.N, grid.M, grid.L, code, 1) + data.tobytes()


def file_payload(path, grid, representation) -> np.ndarray:
    """The raw (N, n, n) + grid payload of a hessian field file."""
    dtype = float if representation == PHYSICAL else complex
    return np.frombuffer(Path(path).read_bytes(), dtype=dtype, offset=_HEADER.size).reshape(
        (grid.N, grid.n, grid.n) + grid.shape
    )


def payload_bytes(loaded, rep_code: int) -> int:
    """The payload size of the file ``loaded`` was read from, whose representation code is ``rep_code``."""
    if isinstance(loaded, VectorField):
        return loaded.data.nbytes
    g = loaded.grid
    return (8 if rep_code == 0 else 16) * g.N * g.n**2 * g.points


def small_files() -> dict[str, bytes]:
    """One small field file of each kind and representation, as bytes."""
    grid = GridSpec(n=2, N=2, M=4)
    u = random_band_limited(grid, 1, seed=15)
    hess = spectral_hessian(u)
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.field"
        for name, field in (("vector-physical", u), ("vector-spectral", u.to_spectral()), ("hessian-physical", hess)):
            save_field(path, field)
            files[name] = path.read_bytes()
    files["hessian-spectral"] = hessian_file(grid, full_hessian(hess), SPECTRAL, transform=True)
    return files


SMALL_FILES = small_files()


class TestCorruptFiles:
    @pytest.mark.parametrize("name", sorted(SMALL_FILES))
    def test_every_truncation_is_an_input_error(self, name, tmp_path):
        path = tmp_path / "f.field"
        raw = SMALL_FILES[name]
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(InputError):
                load_field(path)

    def test_padded_payload_is_an_input_error(self, tmp_path):
        path = tmp_path / "f.field"
        path.write_bytes(SMALL_FILES["vector-physical"] + bytes(8))
        with pytest.raises(InputError):
            load_field(path)

    @pytest.mark.parametrize("offset", [_HEADER.size - 2, _HEADER.size - 1])
    def test_unknown_code_is_an_input_error(self, offset, tmp_path):
        path = tmp_path / "f.field"
        raw = bytearray(SMALL_FILES["vector-physical"])
        raw[offset] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError):
            load_field(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_is_an_input_error(self, value, tmp_path):
        path = tmp_path / "f.field"
        path.write_bytes(SMALL_FILES["vector-physical"])
        u = load_field(path)
        data = u.data.copy()
        data[1, 2, 3] = value
        save_field(path, VectorField(u.grid, data))
        with pytest.raises(InputError):
            load_field(path)

    @staticmethod
    def load_flipped(path, raw, bit):
        """Load the file ``raw`` with one bit flipped: a finite field or an InputError."""
        raw = bytearray(raw)
        raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            loaded = load_field(path)
        except InputError:
            return
        assert np.all(np.isfinite(loaded.data))

    @pytest.mark.parametrize("name", sorted(SMALL_FILES))
    def test_every_header_bit_flip_loads_or_is_an_input_error(self, name, tmp_path):
        for bit in range(8 * _HEADER.size):
            self.load_flipped(tmp_path / "f.field", SMALL_FILES[name], bit)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(SMALL_FILES)), position=st.floats(0.0, 1.0, exclude_max=True))
    def test_any_bit_flip_loads_or_is_an_input_error(self, tmp_path_factory, name, position):
        raw = SMALL_FILES[name]
        bits = 8 * len(raw)
        self.load_flipped(tmp_path_factory.getbasetemp() / "flipped.field", raw, int(position * bits))

    @staticmethod
    def load_bytes(path, raw):
        """Load ``raw`` as a field file: the field, or None when it is an InputError.

        Any other exception (struct, numpy, OverflowError) escapes and fails the test.
        """
        path.write_bytes(raw)
        try:
            return load_field(path)
        except InputError:
            return None

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(SMALL_FILES)),
        keep=st.floats(0.0, 1.0),
        flips=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4),
    )
    def test_a_truncated_and_flipped_file_loads_or_is_an_input_error(self, tmp_path_factory, name, keep, flips):
        path = tmp_path_factory.getbasetemp() / "cut.field"
        whole = SMALL_FILES[name]
        raw = bytearray(whole[: int(keep * (len(whole) + 1))])
        for position in flips if raw else []:
            bit = int(position * 8 * len(raw))
            raw[bit // 8] ^= 1 << (bit % 8)
        loaded = self.load_bytes(path, bytes(raw))
        if loaded is not None:
            rep_code = _HEADER.unpack_from(raw, 0)[5]
            assert payload_bytes(loaded, rep_code) == len(raw) - _HEADER.size and np.all(np.isfinite(loaded.data))

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.tuples(
            st.one_of(st.integers(-2, 6), st.integers(-(2**31), 2**31 - 1)),
            st.one_of(st.integers(-2, 5), st.integers(-(2**31), 2**31 - 1)),
            st.one_of(st.integers(-2, 12), st.integers(-(2**31), 2**31 - 1)),
            st.floats(),
            st.integers(0, 1),
            st.integers(0, 1),
        ),
        matching=st.booleans(),
        extra=st.integers(-17, 17),
    )
    @example(header=(2, 3, 4, 0.5, 1, 1), matching=True, extra=0)
    def test_a_mis_sized_file_loads_or_is_an_input_error(self, tmp_path_factory, header, matching, extra):
        # any header over a zero payload: of the size the header needs, give or take extra bytes, or of extra bytes
        n, N, M, L, rep, kind = header
        values = N * (n * n if kind else 1) * M**n if 0 <= n <= 6 and 0 <= N <= 5 and 0 <= M <= 12 else 0
        size = values * (8 if rep == 0 else 16) + extra if matching and values <= 10**5 else abs(extra)
        raw = _HEADER.pack(_MAGIC, n, N, M, L, rep, kind) + bytes(max(size, 0))
        loaded = self.load_bytes(tmp_path_factory.getbasetemp() / "sized.field", raw)
        well_formed = n >= 2 and N >= 2 and M >= 4 and M % 2 == 0 and math.isfinite(L) and L > 0
        if well_formed and matching and extra == 0 and 0 < values <= 10**5:
            assert loaded is not None
        if loaded is not None:
            assert (loaded.grid.n, loaded.grid.N, loaded.grid.M, loaded.grid.L) == (n, N, M, L)
            assert payload_bytes(loaded, rep) == len(raw) - _HEADER.size


class TestHessianPairs:
    def test_a_saved_hessian_holds_every_component_in_slot_order(self, tmp_path):
        grid = GridSpec(n=3, N=2, M=4)
        pairs = spectral_hessian(random_band_limited(grid, 1, seed=16))
        assert pairs.data.shape == (2, 6) + grid.shape
        path = tmp_path / "h.field"
        save_field(path, pairs)
        hess = file_payload(path, grid, PHYSICAL)
        for slot, (i, j) in enumerate([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]):
            np.testing.assert_array_equal(hess[:, i, j], pairs.data[:, slot])
            np.testing.assert_array_equal(hess[:, j, i], pairs.data[:, slot])
        assert not pairs.data.flags.writeable

    def test_rejects_a_wrong_shape(self, grid32):
        with pytest.raises(InputError):
            HessianPairs(grid32, np.zeros((2, 4) + grid32.shape))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_layout_is_built_once_and_read_only(self, n):
        rows, cols = HessianPairs.components(n)
        again = HessianPairs.components(n)
        assert again[0] is rows and again[1] is cols
        expected_rows, expected_cols = np.triu_indices(n)
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(cols, expected_cols)
        for arr in (rows, cols):
            with pytest.raises(ValueError):
                arr[0] = 1
        # slot_index and multiplicity as they were computed from a fresh triu_indices
        index = np.empty((n, n), dtype=np.intp)
        index[expected_rows, expected_cols] = index[expected_cols, expected_rows] = np.arange(len(expected_rows))
        np.testing.assert_array_equal(HessianPairs.slot_index(n), index)
        np.testing.assert_array_equal(
            HessianPairs.multiplicity(n), np.where(expected_rows == expected_cols, 1.0, 2.0)
        )
        counts = HessianPairs.multiplicity(n)
        assert counts is HessianPairs.multiplicity(n)
        with pytest.raises(ValueError):
            counts[0] = 3.0

    @pytest.mark.parametrize("n, M", [(2, 16), (3, 8)])
    def test_a_reused_work_buffer_gives_the_bytes_of_a_fresh_product(self, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        half = half_spectrum(grid)
        work = half.work_buffer()
        for seed in (18, 19):
            coef = half.coefficients(random_band_limited(grid, M // 4, seed=seed))
            kept = coef.copy()
            expected = half.hessian_pairs(coef).data.tobytes()
            for _ in range(2):
                assert half.hessian_pairs(coef, work).data.tobytes() == expected
            assert coef.tobytes() == kept.tobytes()
            half.inverse(coef)
            assert coef.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("n, M", [(2, 16), (2, 64), (3, 8), (3, 32), (4, 8)])
    def test_the_in_place_transform_is_irfftn_bit_for_bit(self, n, M):
        for N in (2, 3):
            grid = GridSpec(n=n, N=N, M=M)
            half = half_spectrum(grid)
            coef = half.coefficients(random_band_limited(grid, M // 4, seed=24))
            kept = coef.copy()
            expected = scipy.fft.irfftn(coef[:, None] * half.hessian, s=grid.shape, axes=half.axes, norm="forward")
            # the work buffer holds one component's slots: the components are transformed one at a time
            work = half.work_buffer()
            assert work.dtype == complex and work.shape == (n * (n + 1) // 2,) + half.shape
            out = np.full(expected.shape, np.nan)
            for given in ({}, {"work": work}, {"out": out}, {"work": work, "out": out}):
                assert half.hessian_pairs(coef, **given).data.tobytes() == expected.tobytes()
            assert coef.tobytes() == kept.tobytes()

    def test_a_work_buffer_of_the_wrong_shape_or_dtype_is_an_input_error(self):
        grid = GridSpec(n=2, N=2, M=16)
        half = half_spectrum(grid)
        coef = half.coefficients(random_band_limited(grid, 4, seed=20))
        good = half.work_buffer()
        for work in (
            np.empty((2, 3) + half.shape, dtype=complex),  # the (N, n(n+1)/2) + shape buffer of every component
            np.empty((2, 2) + half.shape, dtype=complex),
            np.empty((2, 3) + grid.shape, dtype=complex),
            np.empty((2,) + half.shape, dtype=complex),
            np.empty((3,) + grid.shape, dtype=complex),
            np.empty((3, 3) + half.shape, dtype=complex),
            np.empty(good.shape),
            np.empty(good.shape, dtype=np.complex64),
        ):
            with pytest.raises(InputError, match=rf"must be complex \(3, 16, 9\), got .* {re.escape(str(work.shape))}"):
                half.hessian_pairs(coef, work)

    def test_coefficients_of_the_wrong_shape_are_an_input_error(self):
        grid = GridSpec(n=2, N=2, M=16)
        half = half_spectrum(grid)
        coef = half.coefficients(random_band_limited(grid, 4, seed=20))
        for bad in (coef[:1], np.concatenate([coef, coef]), coef[..., :-1]):
            with pytest.raises(InputError, match=r"shape \(2, 16, 9\)"):
                half.hessian_pairs(bad)

    def test_norm_is_the_norm_of_the_full_hessian(self):
        grid = GridSpec(n=3, N=2, M=8)
        pairs = spectral_hessian(random_band_limited(grid, 2, seed=17))
        full = full_hessian(pairs)
        assert pairs.norm() == pytest.approx(math.sqrt(grid.cell_volume * (full**2).sum()), rel=1e-14)


class TestOutputArrays:
    """``forward`` and ``hessian_pairs`` write into a given array the bytes they would return."""

    @pytest.mark.parametrize("M", [4, 6, 8, 32])
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_forward_into_out_is_rfftn_bit_for_bit(self, n, N, M):
        grid = GridSpec(n=n, N=N, M=M)
        half = half_spectrum(grid)
        data = np.random.default_rng(26).standard_normal((N,) + grid.shape)
        kept = data.copy()
        expected = scipy.fft.rfftn(data, axes=half.axes, norm="forward")
        out = np.full((N,) + half.shape, np.nan, dtype=complex)
        assert half.forward(data, out=out) is out
        assert out.tobytes() == expected.tobytes()
        assert half.forward(data).tobytes() == expected.tobytes()
        assert data.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("M", [4, 6, 8, 32])
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_hessian_pairs_into_out_is_the_one_of_a_fresh_array_bit_for_bit(self, n, N, M):
        grid = GridSpec(n=n, N=N, M=M)
        half = half_spectrum(grid)
        work = half.work_buffer()
        out = np.full((N, len(half.hessian)) + grid.shape, np.nan)
        rng = np.random.default_rng(27)
        for _ in range(2):
            coef = half.forward(rng.standard_normal((N,) + grid.shape))
            # the transforms of the hessian before it wrote into a given array, all scipy.fft
            product = coef[:, None] * half.hessian
            for axis in half.axes[:-1]:
                product = scipy.fft.ifft(product, axis=axis, norm="forward")
            expected = scipy.fft.irfft(product, n=M, axis=-1, norm="forward")
            hess = half.hessian_pairs(coef, work, out)
            assert hess.data.tobytes() == out.tobytes() == expected.tobytes()
            assert half.hessian_pairs(coef).data.tobytes() == expected.tobytes()
            # the field is a read-only view of out, which stays writable for the next call
            assert np.shares_memory(hess.data, out) and not hess.data.flags.writeable and out.flags.writeable

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_backend_that_returns_new_arrays_gives_the_same_bytes(self, n):
        grid = GridSpec(n=n, N=2, M=8)
        half = half_spectrum(grid)
        data = np.random.default_rng(28).standard_normal((2,) + grid.shape)
        expected = scipy.fft.rfftn(data, axes=half.axes, norm="forward")
        coef = half.forward(data)
        expected_hess = half.hessian_pairs(coef).data
        with scipy.fft.set_backend(NewArrayBackend, only=True):
            out = np.full((2,) + half.shape, np.nan, dtype=complex)
            assert half.forward(data, out=out) is out
            hess = half.hessian_pairs(coef, half.work_buffer(), np.empty_like(expected_hess))
        assert NewArrayBackend.calls
        assert out.tobytes() == expected.tobytes()
        assert hess.data.tobytes() == expected_hess.tobytes()


class NewArrayBackend:
    """A scipy.fft backend whose transforms return a new array and, where ``overwrite_x`` allows it, fill their input with NaN."""

    __ua_domain__ = "numpy.scipy.fft"
    calls = []

    @staticmethod
    def __ua_function__(method, args, kwargs):
        NewArrayBackend.calls.append(method.__name__)
        result = getattr(scipy.fft._pocketfft, method.__name__)(*args, **{**kwargs, "overwrite_x": False})
        if kwargs.get("overwrite_x"):
            args[0][...] = np.nan
        return result


def count_forward_transforms(monkeypatch) -> list:
    """Record every ``numpy.fft.rfft`` call, the first pass of each forward transform, from here on; returns the list of calls."""
    calls = []
    rfft = np.fft.rfft

    def counted(*args, **kwargs):
        calls.append(args[0])
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    return calls


class TestKeptHalfSpectrum:
    @pytest.mark.parametrize("representation", [PHYSICAL, SPECTRAL])
    def test_a_field_keeps_its_spectrum_from_the_second_request_on(self, monkeypatch, representation):
        grid = GridSpec(n=2, N=2, M=16)
        half = half_spectrum(grid)
        u = random_band_limited(grid, 4, seed=30)
        u = u if representation == PHYSICAL else u.to_spectral()
        expected = half.forward(u.to_physical().data)
        calls = count_forward_transforms(monkeypatch)
        first = half.coefficients(u)
        assert len(calls) == 1
        second = half.coefficients(u)
        assert len(calls) == 2
        assert second is not first
        for _ in range(3):
            assert half.coefficients(u) is second
        assert len(calls) == 2
        for coef in (first, second):
            assert coef.tobytes() == expected.tobytes()

    def test_coefficients_are_read_only(self):
        grid = GridSpec(n=2, N=2, M=16)
        half = half_spectrum(grid)
        u = random_band_limited(grid, 4, seed=31)
        for _ in range(3):
            coef = half.coefficients(u)
            assert not coef.flags.writeable
            with pytest.raises(ValueError):
                coef[0, 1, 1] = 1.0

    def test_a_field_on_a_view_keeps_nothing(self, monkeypatch):
        grid = GridSpec(n=2, N=2, M=16)
        half = half_spectrum(grid)
        buffer = np.array(random_band_limited(GridSpec(n=2, N=3, M=16), 4, seed=32).data)
        u = VectorField(grid, buffer[:2], PHYSICAL)
        assert not u.data.flags.owndata and buffer.flags.writeable
        calls = count_forward_transforms(monkeypatch)
        for _ in range(3):
            half.coefficients(u)
        assert len(calls) == 3
        buffer[:2] *= 2.0
        coef = half.coefficients(u)
        assert coef.tobytes() == half.forward(buffer[:2]).tobytes()

    @pytest.mark.parametrize("other", [dict(n=2, N=2, M=8), dict(n=2, N=3, M=16), dict(n=3, N=2, M=16)])
    def test_a_field_of_another_grid_is_an_input_error(self, other):
        half = half_spectrum(GridSpec(n=2, N=2, M=16))
        u = random_band_limited(GridSpec(**other), 2, seed=33)
        for _ in range(2):
            with pytest.raises(InputError):
                half.coefficients(u)
        assert "_half_spectrum" not in vars(u)

    def test_a_field_made_from_a_view_of_coefficients_keeps_a_copy(self, monkeypatch):
        grid = GridSpec(n=2, N=2, M=16)
        half = half_spectrum(grid)
        buffer = np.array(half.forward(np.random.default_rng(34).standard_normal((3,) + grid.shape)))
        u = half.physical_field(buffer[:2])
        calls = count_forward_transforms(monkeypatch)
        kept = half.coefficients(u)
        assert calls == [] and kept is half.coefficients(u)
        assert buffer.flags.writeable and not kept.flags.writeable
        buffer[:2] *= 2.0
        assert half.norm(kept - half.forward(u.data)) <= 1e-14 * half.norm(kept)

    @pytest.mark.parametrize("shape, dtype", [((3, 16, 9), complex), ((2, 16, 16), complex), ((2, 16, 9), float)])
    def test_coefficients_of_another_layout_are_an_input_error(self, shape, dtype):
        half = half_spectrum(GridSpec(n=2, N=2, M=16))
        with pytest.raises(InputError):
            half.physical_field(np.zeros(shape, dtype=dtype))

    def test_the_laplacian_table_is_four_pi_squared_zsq_exactly(self):
        for grid in (GridSpec(n=2, N=2, M=16), GridSpec(n=3, N=2, M=8, L=2.5)):
            half = half_spectrum(grid)
            assert half.laplacian.tobytes() == (4 * np.pi**2 * half.zsq).tobytes()
            assert not half.laplacian.flags.writeable


def white_noise(grid, seed):
    """A physical field of independent normals: every frequency, the Nyquist planes included."""
    return VectorField(grid, np.random.default_rng(seed).standard_normal((grid.N,) + grid.shape), PHYSICAL)


class TestBornWithItsSpectrum:
    """Fields made from their half spectrum keep it; a field passes its finiteness scan once."""

    @staticmethod
    def outputs(grid, seed):
        A, cert = random_rank_one_positive(grid.n, grid.N, seed=seed)
        u, f = white_noise(grid, seed), white_noise(grid, seed + 1)
        spec = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(0.3 * cert.nu))
        solved, _ = campanato_solve(
            spec, 1.0, f, example1_certificate(spec, nu=cert.nu), SolveConfig(tol_residual=1e-10, max_iters=30)
        )
        return {
            "apply_operator": apply_operator(A, u),
            "solve_linear": solve_linear(A, f, nu=cert.nu).u,
            "solve_linear_eps": solve_linear(A, f, epsilon=1e-3, nu=cert.nu).u,
            "campanato_solve": solved,
        }

    @pytest.mark.parametrize("n, M", [(2, 16), (2, 64), (3, 8)])
    def test_outputs_keep_a_read_only_spectrum_of_their_data(self, monkeypatch, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        half = half_spectrum(grid)
        for name, out in self.outputs(grid, seed=70 + n).items():
            calls = count_forward_transforms(monkeypatch)
            kept = half.coefficients(out)
            assert calls == [] and half.coefficients(out) is kept, name
            assert not kept.flags.writeable, name
            with pytest.raises(ValueError):
                kept[0, 1, 1] = 1.0
            monkeypatch.undo()
            expected = half.forward(out.data)
            assert half.norm(kept - expected) <= 1e-14 * half.norm(expected), name
            assert half.norm(kept) == pytest.approx(l2_norm(out), rel=1e-14), name

    @pytest.mark.parametrize("n, M", [(2, 16), (3, 8)])
    def test_w22star_norms_reads_a_solver_outputs_kept_spectrum(self, monkeypatch, n, M):
        grid = GridSpec(n=n, N=2, M=M)
        A, cert = random_rank_one_positive(n, grid.N, seed=80 + n)
        u = solve_linear(A, white_noise(grid, 82 + n), nu=cert.nu).u
        half = half_spectrum(grid)
        transformed = half.hessian_pairs(half.forward(u.data)).norm()
        calls = count_forward_transforms(monkeypatch)
        norm = w22star_norms(u).w22star
        assert calls == []
        assert norm == pytest.approx(transformed, rel=1e-14)

    def count_scans(self, monkeypatch) -> list:
        """Record every ``np.isfinite`` call from here on; returns the list of calls."""
        calls = []
        isfinite = np.isfinite

        def counted(x, *args, **kwargs):
            calls.append(x)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        return calls

    def test_a_field_that_passes_is_scanned_once(self, monkeypatch):
        u = white_noise(GridSpec(n=2, N=2, M=16), seed=80)
        calls = self.count_scans(monkeypatch)
        for _ in range(3):
            assert u.require_finite("field") is u
        assert len(calls) == 1

    def test_a_non_finite_field_raises_on_every_call(self, monkeypatch):
        grid = GridSpec(n=2, N=2, M=16)
        for bad in (np.nan, np.inf):
            data = white_noise(grid, seed=81).data.copy()
            data[1, 3, 4] = bad
            u = VectorField(grid, data, PHYSICAL)
            calls = self.count_scans(monkeypatch)
            for k in range(3):
                with pytest.raises(InputError, match="field has non-finite values"):
                    u.require_finite("field")
                assert len(calls) == k + 1
            monkeypatch.undo()

    def test_a_field_on_a_view_is_scanned_on_every_call(self, monkeypatch):
        grid = GridSpec(n=2, N=2, M=16)
        buffer = np.array(white_noise(GridSpec(n=2, N=3, M=16), seed=82).data)
        u = VectorField(grid, buffer[:2], PHYSICAL)
        assert not u.data.flags.owndata and buffer.flags.writeable
        calls = self.count_scans(monkeypatch)
        for _ in range(3):
            u.require_finite("field")
        assert len(calls) == 3
        buffer[1, 3, 4] = np.nan
        with pytest.raises(InputError):
            u.require_finite("field")


def _zeros(grid, representation=PHYSICAL):
    return VectorField(grid, np.zeros((grid.N,) + grid.shape), representation)


class TestInputErrors:
    # each raise site of the module that a public call reaches, with its message
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: _zeros(GridSpec(n=2, N=2, M=8), "wavelet"), "unknown representation 'wavelet'"),
            (lambda: _zeros(GridSpec(n=2, N=2, M=8)) + _zeros(GridSpec(n=2, N=2, M=8, L=2.0)), "must share grid and representation"),
            (lambda: _zeros(GridSpec(n=2, N=2, M=8)) - _zeros(GridSpec(n=2, N=2, M=8), SPECTRAL), "must share grid and representation"),
            (lambda: fields_module.sobolev_exponents(4), "need n >= 5, got n=4"),
        ],
    )
    def test_a_bad_input_is_refused_with_its_message(self, build, message):
        with pytest.raises(InputError, match=message):
            build()
