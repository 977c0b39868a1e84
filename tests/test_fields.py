import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearelliptic import (
    GridSpec,
    VectorField,
    forward_transform,
    inverse_transform,
    l2_norm,
    random_band_limited,
    spectral_hessian,
    w22star_norms,
)
from nearelliptic.errors import InputError
from nearelliptic.fields import (
    _HEADER,
    _MAGIC,
    PHYSICAL,
    SPECTRAL,
    HessianPairs,
    _conjugate_reflect,
    band_limited_coefficients,
    conjugate_symmetry_error,
    csv_slice,
    half_spectrum,
    load_field,
    save_field,
)
from nearelliptic.linear import pairing_spectrum, solve_linear
from nearelliptic.tensors import random_rank_one_positive

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

    def test_memory_budget(self):
        with pytest.raises(InputError):
            GridSpec(n=3, N=2, M=64, memory_budget=1024)

    def test_volumes(self, grid32):
        assert grid32.cell_volume == pytest.approx((1.0 / 32) ** 2)
        assert grid32.volume == 1.0


class TestTransforms:
    def test_single_mode_coefficients(self, grid32):
        u = single_mode_field(grid32)
        coef = forward_transform(u).data
        # k = +e1 carries -i/2, k = -e1 carries +i/2, everything else vanishes
        assert coef[0, 1, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert coef[0, -1, 0] == pytest.approx(0.5j, abs=1e-14)
        coef_rest = coef.copy()
        coef_rest[0, 1, 0] = coef_rest[0, -1, 0] = 0.0
        assert np.abs(coef_rest).max() < 1e-14

    def test_constant_field(self, grid32):
        u = VectorField(grid32, np.full((2, 32, 32), 3.25), PHYSICAL)
        coef = forward_transform(u).data
        assert coef[0, 0, 0] == pytest.approx(3.25)
        assert coef[1, 0, 0] == pytest.approx(3.25)
        off = coef.copy()
        off[:, 0, 0] = 0
        assert np.abs(off).max() < 1e-13

    def test_round_trip(self, grid32):
        rng = np.random.default_rng(0)
        u = VectorField(grid32, rng.standard_normal((2, 32, 32)), PHYSICAL)
        back = inverse_transform(forward_transform(u))
        scale = np.abs(u.data).max()
        assert np.abs(back.data - u.data).max() <= 1e-12 * scale

    def test_transform_direction_guards(self, grid32):
        u = single_mode_field(grid32)
        with pytest.raises(InputError):
            inverse_transform(u)
        with pytest.raises(InputError):
            forward_transform(forward_transform(u))

    def test_conjugate_symmetry_of_real_fields(self, grid32):
        rng = np.random.default_rng(1)
        u = VectorField(grid32, rng.standard_normal((2, 32, 32)), PHYSICAL)
        assert conjugate_symmetry_error(u) <= 1e-12

    def test_plancherel(self, grid32):
        rng = np.random.default_rng(2)
        for k in range(100):
            u = VectorField(grid32, rng.standard_normal((2, 32, 32)), PHYSICAL)
            phys = l2_norm(u)
            spec = l2_norm(u.to_spectral())
            assert abs(phys**2 - spec**2) <= 1e-11 * phys**2


class TestOneTransformLibrary:
    def test_the_package_takes_no_numpy_transform(self, monkeypatch, identity22):
        def refuse(*args, **kwargs):
            raise AssertionError("the package called a numpy.fft transform")

        for name in NUMPY_TRANSFORMS:
            monkeypatch.setattr(np.fft, name, refuse)
        grid = GridSpec(n=2, N=2, M=16)
        u = random_band_limited(grid, 4, seed=23)
        coef = forward_transform(u)
        inverse_transform(coef)
        for field in (u, coef):
            for representation in (PHYSICAL, SPECTRAL):
                spectral_hessian(field, representation)
        spectral_hessian(u).to_spectral().to_physical()
        conjugate_symmetry_error(u)
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
    def test_an_unknown_representation_is_an_input_error(self, grid32):
        with pytest.raises(InputError, match="bogus"):
            spectral_hessian(single_mode_field(grid32), "bogus")

    @pytest.mark.parametrize("n, M", [(2, 16), (3, 8)])
    def test_a_spectral_input_gives_the_hessian_of_its_physical_field(self, n, M):
        # white noise, so that every mode and the Nyquist planes carry data
        grid = GridSpec(n=n, N=2, M=M)
        u = VectorField(grid, np.random.default_rng(26).standard_normal((2,) + grid.shape), PHYSICAL)
        expected = spectral_hessian(u).data
        scale = np.abs(expected).max()
        assert np.abs(spectral_hessian(u.to_spectral()).data - expected).max() <= 1e-12 * scale
        for field in (u, u.to_spectral()):
            assert np.abs(spectral_hessian(field, SPECTRAL).to_physical().data - expected).max() <= 1e-12 * scale

    def test_single_mode_analytic(self, grid32):
        u = single_mode_field(grid32)
        hess = spectral_hessian(u)
        coords = np.meshgrid(*grid32.axes(), indexing="ij")
        expected = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * coords[0])
        np.testing.assert_allclose(hess.data[0, 0, 0], expected, atol=1e-10)
        assert np.abs(hess.data[0, 0, 1]).max() < 1e-12
        assert np.abs(hess.data[0, 1, 1]).max() < 1e-12
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
            for i in range(2):
                fd[:, i, i] = (np.roll(u.data, -1, 1 + i) - 2 * u.data + np.roll(u.data, 1, 1 + i)) / h**2
            cross = (
                np.roll(np.roll(u.data, -1, 1), -1, 2)
                - np.roll(np.roll(u.data, -1, 1), 1, 2)
                - np.roll(np.roll(u.data, 1, 1), -1, 2)
                + np.roll(np.roll(u.data, 1, 1), 1, 2)
            ) / (4 * h**2)
            fd[:, 0, 1] = fd[:, 1, 0] = cross
            errors[M] = np.abs(fd - hess).max() / np.abs(hess).max()
        assert errors[64] <= 1e-2
        assert errors[64] <= errors[32] / 3.0  # second order

    def test_symmetry_exact(self, grid32):
        u = random_band_limited(grid32, band=6, seed=4)
        hess = spectral_hessian(u).data
        np.testing.assert_array_equal(hess[:, 0, 1], hess[:, 1, 0])

    def test_zero_mean_mode(self, grid32):
        u = VectorField(grid32, np.random.default_rng(5).standard_normal((2, 32, 32)), PHYSICAL)
        coef = spectral_hessian(u, SPECTRAL).data
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
        coef = forward_transform(u).data
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

    def test_csv_slice(self, grid32, tmp_path):
        path = tmp_path / "slice.csv"
        csv_slice(single_mode_field(grid32), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + 32 * 32


def small_fields():
    grid = GridSpec(n=2, N=2, M=4)
    u = random_band_limited(grid, 1, seed=15)
    return {
        "vector-physical": u,
        "vector-spectral": u.to_spectral(),
        "hessian-physical": spectral_hessian(u),
        "hessian-spectral": spectral_hessian(u, SPECTRAL),
    }


SMALL_FIELDS = small_fields()


class TestCorruptFiles:
    @pytest.mark.parametrize("name", sorted(SMALL_FIELDS))
    def test_every_truncation_is_an_input_error(self, name, tmp_path):
        path = tmp_path / "f.field"
        save_field(path, SMALL_FIELDS[name])
        raw = path.read_bytes()
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(InputError):
                load_field(path)

    def test_padded_payload_is_an_input_error(self, tmp_path):
        path = tmp_path / "f.field"
        save_field(path, SMALL_FIELDS["vector-physical"])
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(InputError):
            load_field(path)

    @pytest.mark.parametrize("offset", [_HEADER.size - 2, _HEADER.size - 1])
    def test_unknown_code_is_an_input_error(self, offset, tmp_path):
        path = tmp_path / "f.field"
        save_field(path, SMALL_FIELDS["vector-physical"])
        raw = bytearray(path.read_bytes())
        raw[offset] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError):
            load_field(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_is_an_input_error(self, value, tmp_path):
        u = SMALL_FIELDS["vector-physical"]
        data = u.data.copy()
        data[1, 2, 3] = value
        path = tmp_path / "f.field"
        save_field(path, VectorField(u.grid, data))
        with pytest.raises(InputError):
            load_field(path)

    @staticmethod
    def load_flipped(path, field, bit):
        """Load ``field`` saved with one bit flipped: a finite field or an InputError."""
        save_field(path, field)
        raw = bytearray(path.read_bytes())
        raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            loaded = load_field(path)
        except InputError:
            return
        assert np.all(np.isfinite(loaded.data))

    @pytest.mark.parametrize("name", sorted(SMALL_FIELDS))
    def test_every_header_bit_flip_loads_or_is_an_input_error(self, name, tmp_path):
        for bit in range(8 * _HEADER.size):
            self.load_flipped(tmp_path / "f.field", SMALL_FIELDS[name], bit)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(SMALL_FIELDS)), position=st.floats(0.0, 1.0, exclude_max=True))
    def test_any_bit_flip_loads_or_is_an_input_error(self, tmp_path_factory, name, position):
        field = SMALL_FIELDS[name]
        bits = 8 * (_HEADER.size + field.data.nbytes)
        self.load_flipped(tmp_path_factory.getbasetemp() / "flipped.field", field, int(position * bits))

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
        name=st.sampled_from(sorted(SMALL_FIELDS)),
        keep=st.floats(0.0, 1.0),
        flips=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4),
    )
    def test_a_truncated_and_flipped_file_loads_or_is_an_input_error(self, tmp_path_factory, name, keep, flips):
        path = tmp_path_factory.getbasetemp() / "cut.field"
        save_field(path, SMALL_FIELDS[name])
        raw = bytearray(path.read_bytes()[: int(keep * (path.stat().st_size + 1))])
        for position in flips if raw else []:
            bit = int(position * 8 * len(raw))
            raw[bit // 8] ^= 1 << (bit % 8)
        loaded = self.load_bytes(path, bytes(raw))
        if loaded is not None:
            assert loaded.data.nbytes == len(raw) - _HEADER.size and np.all(np.isfinite(loaded.data))

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
            assert loaded.data.nbytes == len(raw) - _HEADER.size


class TestHessianPairs:
    def test_packs_the_upper_triangle_and_unpacks_it(self):
        grid = GridSpec(n=3, N=2, M=4)
        hess = spectral_hessian(random_band_limited(grid, 1, seed=16))
        pairs = HessianPairs.from_hessian(hess)
        assert pairs.data.shape == (2, 6) + grid.shape
        for slot, (i, j) in enumerate([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]):
            np.testing.assert_array_equal(pairs.data[:, slot], hess.data[:, i, j])
        np.testing.assert_array_equal(pairs.to_hessian().data, hess.data)
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

    def test_a_work_buffer_of_the_wrong_shape_or_dtype_is_an_input_error(self):
        grid = GridSpec(n=2, N=2, M=16)
        half = half_spectrum(grid)
        coef = half.coefficients(random_band_limited(grid, 4, seed=20))
        good = half.work_buffer()
        for work in (
            np.empty((2, 2) + half.shape, dtype=complex),
            np.empty((2, 3) + grid.shape, dtype=complex),
            np.empty((3, 3) + half.shape, dtype=complex),
            np.empty(good.shape),
            np.empty(good.shape, dtype=np.complex64),
        ):
            with pytest.raises(InputError):
                half.hessian_pairs(coef, work)

    def test_norm_is_the_norm_of_the_full_hessian(self):
        grid = GridSpec(n=3, N=2, M=8)
        pairs = HessianPairs.from_hessian(spectral_hessian(random_band_limited(grid, 2, seed=17)))
        assert pairs.norm() == pytest.approx(l2_norm(pairs.to_hessian()), rel=1e-14)
