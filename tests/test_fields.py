import numpy as np
import pytest
from hypothesis import given, settings
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
    PHYSICAL,
    SPECTRAL,
    HessianPairs,
    conjugate_symmetry_error,
    csv_slice,
    load_field,
    save_field,
)
from nearelliptic.tensors import random_rank_one_positive


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


class TestSpectralHessian:
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
