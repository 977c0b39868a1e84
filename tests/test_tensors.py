import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nearelliptic import (
    SymTensor4,
    bilinear_form,
    check_rank_one_positive,
    contract_hessian,
    ellipticity_constant,
    example2_tensor,
    hermitian_form,
    identity_tensor,
    symbol_inverse,
    symbol_matrix,
)
from nearelliptic.errors import DegenerateSymbolError, InputError
from nearelliptic.tensors import SphereSearchConfig, random_rank_one_positive

from conftest import random_sym_tensor, random_symmetric_batch


def naive_contract(A, Z):
    """Independent index-sum oracle for the hessian contraction."""
    N, n = A.N, A.n
    out = np.zeros(N)
    for a in range(N):
        for b in range(N):
            for i in range(n):
                for j in range(n):
                    out[a] += A.entries[a, b, i, j] * Z[b, i, j]
    return out


class TestConstruction:
    def test_rejects_asymmetric(self):
        bad = np.zeros((2, 2, 2, 2))
        bad[0, 1, 0, 1] = 1.0  # pair image [1, 0, 1, 0] stays zero
        with pytest.raises(InputError):
            SymTensor4(bad)

    def test_symmetrizes_roundoff(self):
        entries = identity_tensor(2, 2).entries.copy()
        entries.setflags(write=True)
        entries[0, 1, 0, 1] += 1e-14
        A = SymTensor4(entries)
        assert np.allclose(A.entries, A.entries.transpose(1, 0, 3, 2))

    def test_rejects_bad_shape(self):
        with pytest.raises(InputError):
            SymTensor4(np.zeros((2, 3, 2, 2)))

    def test_text_round_trip(self):
        A = random_sym_tensor(3, 2, seed=5)
        B = SymTensor4.from_text(A.to_text())
        np.testing.assert_array_equal(A.entries, B.entries)

    @pytest.mark.parametrize(
        "edit",
        [
            ("N 2\n", "N 2\nN 2\n"),  # extra header line
            ("n 2\n", "n 2 3\n"),
            ("n 2\nN 2\n", "n -2\nN -2\n"),
            ("\n1.0\n", "\none\n"),
        ],
    )
    def test_malformed_text_is_an_input_error(self, edit):
        text = identity_tensor(2, 2).to_text()
        assert edit[0] in text
        with pytest.raises(InputError):
            SymTensor4.from_text(text.replace(edit[0], edit[1], 1))

    def test_identity_operator_norm(self):
        # contraction of the monotone tensor is the trace map, norm sqrt(n)
        assert identity_tensor(3, 2).operator_norm() == pytest.approx(np.sqrt(3))


class TestContractHessian:
    def test_identity_gives_trace(self):
        A = identity_tensor(3, 2)
        rng = np.random.default_rng(0)
        Z = random_symmetric_batch(rng, 1, 2, 3)[0]
        np.testing.assert_allclose(contract_hessian(A, Z), np.trace(Z, axis1=1, axis2=2))

    def test_block_tensor_probe(self, block_m8):
        Z = np.stack([np.eye(2), np.zeros((2, 2))])
        np.testing.assert_allclose(contract_hessian(block_m8, Z), [2.0, 0.0], atol=1e-14)

    def test_zero(self, block_m8):
        np.testing.assert_array_equal(contract_hessian(block_m8, np.zeros((2, 2, 2))), 0.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        A = random_sym_tensor(3, 3, seed=8)
        Z = random_symmetric_batch(rng, 1, 3, 3)[0]
        np.testing.assert_allclose(contract_hessian(A, Z), naive_contract(A, Z), rtol=1e-12)

    def test_rejects_asymmetric_argument(self, identity22):
        Z = np.zeros((2, 2, 2))
        Z[0, 0, 1] = 1.0
        with pytest.raises(InputError):
            contract_hessian(identity22, Z)


class TestBilinearForm:
    def test_identity_frobenius(self, identity22):
        rng = np.random.default_rng(1)
        P = rng.standard_normal((2, 2))
        assert bilinear_form(identity22, P, P) == pytest.approx((P**2).sum())

    def test_block_tensor_polynomial(self, block_m8):
        # expansion of the quadratic form of the built-in block tensor
        rng = np.random.default_rng(2)
        m = 8.0
        for _ in range(20):
            Q = rng.standard_normal((2, 2))
            expected = (
                Q[0, 0] ** 2
                + Q[0, 1] ** 2
                + 2 * m * (Q[1, 0] ** 2 + Q[1, 1] ** 2)
                + 2 * m * Q[1, 0] * Q[1, 1]
            )
            assert bilinear_form(block_m8, Q, Q) == pytest.approx(expected, rel=1e-12)

    def test_zero(self, block_m8):
        assert bilinear_form(block_m8, np.zeros((2, 2)), np.ones((2, 2))) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        raw=arrays(np.float64, (2, 2, 2, 2), elements=st.floats(-5, 5)),
        P=arrays(np.float64, (2, 2), elements=st.floats(-5, 5)),
        Q=arrays(np.float64, (2, 2), elements=st.floats(-5, 5)),
    )
    def test_symmetric_in_arguments(self, raw, P, Q):
        A = SymTensor4(0.5 * (raw + raw.transpose(1, 0, 3, 2)))
        left = bilinear_form(A, P, Q)
        right = bilinear_form(A, Q, P)
        scale = max(1.0, abs(left), abs(right))
        assert abs(left - right) <= 1e-12 * scale


class TestSymbolMatrix:
    def test_identity(self, identity22):
        np.testing.assert_allclose(symbol_matrix(identity22, np.array([0.3, -0.7])).values, np.eye(2))

    def test_block_axis(self, block_m8):
        S = symbol_matrix(block_m8, np.array([1.0, 0.0]))
        np.testing.assert_allclose(S.values, np.diag([1.0, 16.0]), atol=1e-14)

    def test_block_diagonal_direction(self, block_m8):
        S = symbol_matrix(block_m8, np.array([1.0, -1.0]))
        np.testing.assert_allclose(S.values, np.diag([1.0, 8.0]), atol=1e-13)

    def test_zero_direction_rejected(self, identity22):
        with pytest.raises(InputError):
            symbol_matrix(identity22, np.zeros(2))


class TestEllipticityConstant:
    def test_identity(self):
        cert = ellipticity_constant(identity_tensor(2, 3))
        assert cert.nu == pytest.approx(1.0, abs=1e-12)

    def test_negated_identity(self):
        A = SymTensor4(-identity_tensor(2, 2).entries)
        assert ellipticity_constant(A).nu == pytest.approx(-1.0, abs=1e-12)

    def test_block_tensor(self, block_m8):
        cert = ellipticity_constant(block_m8)
        assert cert.nu == pytest.approx(1.0, abs=1e-10)
        assert abs(cert.witness_eta[0]) == pytest.approx(1.0, abs=1e-6)

    def test_brute_force_oracle(self):
        # dense-angle independent scan of the symbol spectrum
        A, cert = random_rank_one_positive(2, 2, seed=3)
        angles = np.linspace(0, np.pi, 40000, endpoint=False)
        best = np.inf
        for t in angles:
            a = np.array([np.cos(t), np.sin(t)])
            S = np.einsum("abij,i,j->ab", A.entries, a, a)
            best = min(best, np.linalg.eigvalsh(S)[0])
        assert cert.nu == pytest.approx(best, abs=1e-8)

    def test_eigen_lower_bound_at_samples(self, block_m8):
        cert = ellipticity_constant(block_m8)
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.standard_normal(2)
            S = symbol_matrix(block_m8, a).values
            assert np.linalg.eigvalsh(S)[0] >= cert.nu - 1e-9
        S_w = symbol_matrix(block_m8, cert.witness_a).values
        assert np.linalg.eigvalsh(S_w)[0] <= cert.nu + 1e-9

    def test_three_dimensional_search(self):
        cert = ellipticity_constant(identity_tensor(3, 2), SphereSearchConfig(samples=4000))
        assert cert.nu == pytest.approx(1.0, abs=1e-10)

    def test_high_dimensional_search(self):
        cert = ellipticity_constant(identity_tensor(5, 2), SphereSearchConfig(samples=4096))
        assert cert.nu == pytest.approx(1.0, abs=1e-8)


class TestSymbolInverse:
    def test_identity(self, identity22):
        np.testing.assert_allclose(symbol_inverse(identity22, np.array([2.0, 1.0])), np.eye(2), atol=1e-14)

    def test_block_axis(self, block_m8):
        np.testing.assert_allclose(
            symbol_inverse(block_m8, np.array([1.0, 0.0])), np.diag([1.0, 1.0 / 16.0]), atol=1e-14
        )

    def test_product_is_identity(self):
        rng = np.random.default_rng(5)
        done = 0
        seed = 0
        while done < 100:
            seed += 1
            A = random_sym_tensor(3, 3, seed=seed)
            z = rng.standard_normal(3)
            S = symbol_matrix(A, z).values
            if abs(np.linalg.det(S)) < 1e-6:
                continue
            np.testing.assert_allclose(symbol_inverse(A, z) @ S, np.eye(3), atol=1e-10)
            done += 1

    def test_degenerate_symbol_rejected(self):
        entries = np.zeros((2, 2, 2, 2))
        entries[0, 0] = np.eye(2)
        entries[1, 1] = np.diag([0.0, 1.0])  # symbol diag(1, 0) along the first axis
        A = SymTensor4(entries)
        with pytest.raises(DegenerateSymbolError):
            symbol_inverse(A, np.array([1.0, 0.0]))


class TestHermitianForm:
    def test_real_argument_matches_bilinear(self, block_m8):
        rng = np.random.default_rng(6)
        eta = rng.standard_normal(2)
        a = rng.standard_normal(2)
        expected = bilinear_form(block_m8, np.outer(eta, a), np.outer(eta, a))
        assert hermitian_form(block_m8, eta.astype(complex), a) == pytest.approx(expected)

    def test_pure_imaginary_argument(self, block_m8):
        rng = np.random.default_rng(7)
        eta = rng.standard_normal(2)
        a = rng.standard_normal(2)
        expected = bilinear_form(block_m8, np.outer(eta, a), np.outer(eta, a))
        assert hermitian_form(block_m8, 1j * eta, a) == pytest.approx(expected)

    def test_real_imaginary_decomposition(self):
        rng = np.random.default_rng(8)
        A = random_sym_tensor(3, 2, seed=9)
        eta, theta = rng.standard_normal(2), rng.standard_normal(2)
        a = rng.standard_normal(3)
        xi = eta + 1j * theta
        expected = bilinear_form(A, np.outer(eta, a), np.outer(eta, a)) + bilinear_form(
            A, np.outer(theta, a), np.outer(theta, a)
        )
        assert hermitian_form(A, xi, a) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        raw=arrays(np.float64, (2, 2, 2, 2), elements=st.floats(-3, 3)),
        re=arrays(np.float64, (2,), elements=st.floats(-3, 3)),
        im=arrays(np.float64, (2,), elements=st.floats(-3, 3)),
        a=arrays(np.float64, (2,), elements=st.floats(-3, 3)),
    )
    @example(  # tiny entries: the tensor's norm used to underflow to 0
        raw=np.arange(16.0).reshape(2, 2, 2, 2) * 1e-181,
        re=np.array([0.3, -1.7]),
        im=np.array([2.9, 0.1]),
        a=np.array([1.1, 2.3]),
    )
    def test_always_real(self, raw, re, im, a):
        A = SymTensor4(0.5 * (raw + raw.transpose(1, 0, 3, 2)))
        value = hermitian_form(A, re + 1j * im, a)  # raises if Im part exceeds round-off
        assert np.isfinite(value)

    def test_complex_lower_bound(self):
        A, cert = random_rank_one_positive(2, 2, seed=12)
        rng = np.random.default_rng(13)
        for _ in range(500):
            xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = rng.standard_normal(2)
            bound = (cert.nu - 1e-9) * float(np.vdot(xi, xi).real) * float(a @ a)
            assert hermitian_form(A, xi, a) >= bound


class TestRankOnePositivity:
    def test_identity_positive(self, identity22):
        check = check_rank_one_positive(identity22)
        assert check.positive and check.constant.nu == pytest.approx(1.0, abs=1e-12)
        assert check.disagreements == 0

    def test_block_positive(self, block_m8):
        assert check_rank_one_positive(block_m8).positive

    def test_zero_not_positive(self):
        assert not check_rank_one_positive(SymTensor4(np.zeros((2, 2, 2, 2)))).positive

    def test_positive_tensor_has_positive_determinants(self):
        A, _ = random_rank_one_positive(2, 2, seed=21)
        check = check_rank_one_positive(A)
        assert check.positive and check.det_min > 0 and check.disagreements == 0
