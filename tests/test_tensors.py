import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nearelliptic
from nearelliptic import (
    SymbolMatrix,
    SymTensor4,
    bilinear_form,
    contract_hessian,
    ellipticity_constant,
    example2_tensor,
    hermitian_form,
    identity_tensor,
    symbol_inverse,
    symbol_matrix,
)
from nearelliptic import fields, tensors
from nearelliptic.errors import DegenerateSymbolError, InputError
from nearelliptic.tensors import (
    POLISH_MAX_STEPS,
    _sphere_directions,
    direction_products,
    lowest_eigenvalues,
    packed_symbol_matrix,
    random_rank_one_positive,
    symbol_stack,
    unpack_symbols,
)

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

    def test_the_packed_contraction_is_built_once_and_read_only(self):
        A = random_sym_tensor(3, 2, seed=9)
        packed = A.packed
        assert packed is A.packed
        assert packed.tobytes() == fields.HessianPairs.contraction(A.entries).reshape(A.N, -1).tobytes()
        with pytest.raises(ValueError):
            packed[0, 0] = 1.0


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

    @pytest.mark.parametrize("positive", [True, False], ids=["positive", "indefinite"])
    @pytest.mark.parametrize("N", [2, 3])
    def test_three_dimensional_brute_force_oracle(self, positive, N):
        # independent scan of the symbol spectrum: a dense (theta, phi) grid on
        # the half sphere, then 14 zooms around its best point
        A = random_rank_one_positive(3, N, seed=N)[0] if positive else random_sym_tensor(3, N, seed=N)

        def smallest(theta, phi):
            d = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
            return np.linalg.eigvalsh(np.einsum("abij,...i,...j->...ab", A.entries, d, d))[..., 0]

        theta, phi = np.meshgrid(
            np.linspace(0, np.pi, 301), np.linspace(0, np.pi, 300, endpoint=False), indexing="ij"
        )
        values = smallest(theta, phi)
        k = np.argmin(values)
        t0, p0, best, width = theta.flat[k], phi.flat[k], values.flat[k], np.pi / 300
        for _ in range(14):
            offsets = np.linspace(-width, width, 41)
            t, p = np.meshgrid(t0 + offsets, p0 + offsets, indexing="ij")
            values = smallest(t, p)
            k = np.argmin(values)
            t0, p0, best, width = t.flat[k], p.flat[k], min(best, values.flat[k]), width / 4
        assert ellipticity_constant(A).nu == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_constant_returns_within_the_cap(self, n):
        # A : (a x eta)(a x eta) = |a|^2 (|eta|^2 - eta_0^2) vanishes along eta = e_0
        entries = identity_tensor(n, 2).entries.copy()
        entries[:, :, 0, 0] = 0.0
        cert = ellipticity_constant(SymTensor4(entries))
        assert cert.nu == pytest.approx(0.0, abs=1e-14)
        steps = int(cert.resolution.split("steps=")[1].split(",")[0])
        assert 1 <= steps < POLISH_MAX_STEPS
        assert "alternating-eigh" in cert.resolution

    @pytest.mark.parametrize("n, N, seed", [(2, 2, 31), (2, 3, 32), (3, 2, 33), (3, 3, 34), (4, 2, 35)])
    def test_never_above_a_sampled_eigenvalue(self, monkeypatch, n, N, seed):
        monkeypatch.setattr(tensors, "SPHERE_SAMPLES", 4096)
        table = _sphere_directions(n, tensors.SPHERE_SAMPLES)
        for A in (random_sym_tensor(n, N, seed), random_rank_one_positive(n, N, seed)[0]):
            eigs = lowest_eigenvalues(packed_symbol_matrix(A.entries) @ direction_products(table), N)
            cert = ellipticity_constant(A)
            assert cert.nu <= eigs.min()
            S_w = symbol_matrix(A, cert.witness_a).values
            assert np.linalg.eigvalsh(S_w)[0] <= cert.nu + 1e-12 * A.frobenius()

    def test_import_does_not_load_scipy_optimize(self):
        # the nu polish needs only numpy; scipy.optimize costs import time and memory
        src = os.path.dirname(os.path.dirname(nearelliptic.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, nearelliptic; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_high_dimensional_search_does_not_load_scipy_stats(self):
        # the n >= 4 directions are numpy normal draws; scipy.stats would also load scipy.optimize
        src = os.path.dirname(os.path.dirname(nearelliptic.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys; from nearelliptic import ellipticity_constant, identity_tensor; "
            "ellipticity_constant(identity_tensor(5, 2)); "
            "print(sorted({'scipy.optimize', 'scipy.stats'} & set(sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_eigen_lower_bound_at_samples(self, block_m8):
        cert = ellipticity_constant(block_m8)
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.standard_normal(2)
            S = symbol_matrix(block_m8, a).values
            assert np.linalg.eigvalsh(S)[0] >= cert.nu - 1e-9
        S_w = symbol_matrix(block_m8, cert.witness_a).values
        assert np.linalg.eigvalsh(S_w)[0] <= cert.nu + 1e-9

    def test_three_dimensional_search(self, monkeypatch):
        monkeypatch.setattr(tensors, "SPHERE_SAMPLES", 4000)
        cert = ellipticity_constant(identity_tensor(3, 2))
        assert cert.nu == pytest.approx(1.0, abs=1e-10)

    def test_high_dimensional_search(self, monkeypatch):
        monkeypatch.setattr(tensors, "SPHERE_SAMPLES", 4096)
        cert = ellipticity_constant(identity_tensor(5, 2))
        assert cert.nu == pytest.approx(1.0, abs=1e-8)


def polish_rebuilding_symbols(A, dirs, tol):
    """The reference polish: a swapped SymTensor4, and both packed symbol matrices rebuilt at every step."""
    swapped = SymTensor4(A.entries.transpose(2, 3, 0, 1))

    def rebuilt(T, directions):
        return symbol_stack(packed_symbol_matrix(T.entries), directions, T.N)

    w, V = np.linalg.eigh(rebuilt(A, dirs))
    for step in range(1, POLISH_MAX_STEPS + 1):
        dirs = np.linalg.eigh(rebuilt(swapped, V[..., 0]))[1][..., 0]
        prev = w[:, 0]
        w, V = np.linalg.eigh(rebuilt(A, dirs))
        if np.all(np.abs(prev - w[:, 0]) <= tol * np.abs(prev)):
            break
    return w[:, 0], dirs, step


class TestPolish:
    @pytest.mark.parametrize("n, N", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_the_polish_that_rebuilt_its_symbols_bit_for_bit(self, n, N, monkeypatch):
        As = [random_sym_tensor(n, N, seed) for seed in (40, 41, 42)]
        As += [random_rank_one_positive(n, N, seed)[0] for seed in (40, 41, 42)]
        got = [ellipticity_constant(A) for A in As]
        monkeypatch.setattr(tensors, "_polish", lambda A, matrix, dirs, tol: polish_rebuilding_symbols(A, dirs, tol))
        for mine, ref in zip(got, map(ellipticity_constant, As)):
            assert mine.nu.hex() == ref.nu.hex()
            assert list(map(float.hex, mine.witness_a)) == list(map(float.hex, ref.witness_a))
            assert list(map(float.hex, mine.witness_eta)) == list(map(float.hex, ref.witness_eta))
            assert mine.resolution == ref.resolution


def einsum_symbols(entries, directions):
    """The symbol stack as one three-operand einsum: the reference the packed product replaced."""
    return np.einsum("abij,ki,kj->kab", entries, directions, directions)


class TestPackedSymbols:
    @pytest.mark.parametrize("n, N", [(2, 1), (2, 2), (3, 2), (3, 3), (5, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_einsum_and_is_exactly_symmetric(self, n, N, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((N, N, n, n))
        entries = 0.5 * (raw + raw.transpose(1, 0, 3, 2))
        directions = rng.standard_normal((257, n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        stack = unpack_symbols(packed_symbol_matrix(entries) @ direction_products(directions.T), N)
        assert stack.shape == (257, N, N)
        assert np.array_equal(stack, stack.transpose(0, 2, 1))
        frobenius = np.sqrt((entries**2).sum())
        assert np.abs(stack - einsum_symbols(entries, directions)).max() <= 1e-15 * frobenius
        if N >= 2:
            assert np.array_equal(symbol_stack(packed_symbol_matrix(entries), directions, N), stack)


class TestLowestEigenvalues:
    entry = st.floats(-1.0, 1.0, allow_nan=False)
    scale = st.sampled_from([1.0, 1e150, 1e-150, 3.0e149, 7.0e-151])

    @staticmethod
    def check(packed, N):
        # 4 ulp of each matrix's largest entry; a matrix whose entries are all
        # subnormal is held to 4 ulp of the smallest normal number instead
        with np.errstate(over="raise", invalid="raise"):
            low = lowest_eigenvalues(packed, N)
        reference = np.linalg.eigvalsh(unpack_symbols(packed, N))[:, 0]
        assert np.all(np.isfinite(low))
        finfo = np.finfo(float)
        tol = 4 * finfo.eps * np.maximum(np.abs(packed).max(axis=0), finfo.tiny)
        assert np.all(np.abs(low - reference) <= tol)

    @settings(max_examples=60, deadline=None)
    @given(scale=scale, values=st.lists(st.tuples(entry, entry, entry), min_size=1, max_size=40))
    def test_random_stacks(self, scale, values):
        self.check(scale * np.array(values).T, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        scale=scale,
        a=st.floats(0.5, 1.0) | st.floats(-1.0, -0.5),
        gap=st.integers(-8, 8),
        b=st.integers(-8, 8),
    )
    def test_near_degenerate_stacks(self, scale, a, gap, b):
        # a = c and b = 0 up to a few ulp: the two eigenvalues nearly coincide
        eps = np.finfo(float).eps
        self.check(scale * np.array([[a], [b * eps * a], [a + gap * eps * a]]), 2)

    @settings(max_examples=30, deadline=None)
    @given(scale=scale, values=st.lists(entry, min_size=1, max_size=40))
    def test_one_by_one_is_the_entry(self, scale, values):
        packed = scale * np.array([values])
        assert np.array_equal(lowest_eigenvalues(packed, 1), packed[0])

    def test_three_by_three_is_lapack(self):
        packed = np.random.default_rng(5).standard_normal((6, 50))
        assert np.array_equal(lowest_eigenvalues(packed, 3), np.linalg.eigvalsh(unpack_symbols(packed, 3))[:, 0])


class TestSphereSearchCost:
    @pytest.mark.parametrize("n", [2, 3])
    def test_two_component_search_takes_no_large_eigen_batch(self, monkeypatch, n):
        A = random_rank_one_positive(n, 2, seed=n)[0]
        expected = ellipticity_constant(A)
        batches = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                batches.append(int(np.prod(np.shape(a)[:-2])))
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        cert = ellipticity_constant(A)
        assert batches and max(batches) <= 16
        assert cert.nu == expected.nu

    @pytest.mark.parametrize("n", [2, 3])
    def test_direction_table_is_built_once_and_read_only(self, monkeypatch, n):
        samples = 3000 + n
        monkeypatch.setattr(tensors, "SPHERE_SAMPLES", samples)
        A = random_sym_tensor(n, 2, seed=n)
        tensors._sphere_directions.cache_clear()
        tensors._sphere_products.cache_clear()
        first = ellipticity_constant(A)
        second = ellipticity_constant(A)
        # one table and one product array; building the products reads the table once more
        info = tensors._sphere_directions.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        info = tensors._sphere_products.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert second.nu == first.nu
        table = tensors._sphere_directions(n, samples)
        assert table is tensors._sphere_directions(n, samples)
        products = tensors._sphere_products(n, samples)
        assert products is tensors._sphere_products(n, samples)
        assert products.tobytes() == direction_products(table).tobytes()
        for arr in (table, products):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_config_takes_a_single_sample(self, monkeypatch):
        monkeypatch.setattr(tensors, "SPHERE_SAMPLES", 1)
        cert = ellipticity_constant(identity_tensor(2, 2))
        assert cert.nu == pytest.approx(1.0, abs=1e-12)


    @pytest.mark.parametrize("n, samples", [(2, 1), (2, 3001), (3, 1), (3, 3001), (3, 20000), (4, 1), (4, 3001)])
    def test_direction_count_is_the_size_of_the_table(self, n, samples):
        assert tensors._direction_count(n, samples) == tensors._sphere_directions(n, samples).shape[1]

    def test_search_stacks_exactly_the_counted_bytes(self, monkeypatch):
        A = identity_tensor(2, 3)
        count = tensors._direction_count(2, tensors.SPHERE_SAMPLES)
        # the search's stacks: the packed symbols at the sampled directions, and their unpacked form for eigvalsh
        table = _sphere_directions(2, tensors.SPHERE_SAMPLES)
        packed = packed_symbol_matrix(A.entries) @ direction_products(table)
        stacks = packed.nbytes + unpack_symbols(packed, A.N).nbytes
        assert stacks == 8 * count * (6 + 9)
        monkeypatch.setattr(fields, "_DEFAULT_BUDGET", stacks)
        assert ellipticity_constant(A).nu == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(fields, "_DEFAULT_BUDGET", stacks - 1)
        with pytest.raises(InputError, match="memory budget"):
            ellipticity_constant(A)

    def test_search_past_the_budget_is_refused_before_it_allocates(self, monkeypatch):
        # at N = 16 the stacks need 63 MB; a guard that let them through would cost 41 MB for eigvalsh
        monkeypatch.setattr(fields, "_DEFAULT_BUDGET", 1024**2)
        A = identity_tensor(2, 16)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="memory budget"):
                ellipticity_constant(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

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
    # the paper's rank-one test is nu(A) > 0
    def test_identity_positive(self, identity22):
        assert ellipticity_constant(identity22).nu == pytest.approx(1.0, abs=1e-12)

    def test_block_positive(self, block_m8):
        assert ellipticity_constant(block_m8).nu > 0

    def test_zero_not_positive(self):
        assert not ellipticity_constant(SymTensor4(np.zeros((2, 2, 2, 2)))).nu > 0


def _short_document():
    # the header of a (2, 2) tensor with one entry missing
    return "\n".join(identity_tensor(2, 2).to_text().splitlines()[:-1])


class TestInputErrors:
    # each raise site of the module that a public call reaches, with its message
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SymTensor4(np.eye(2)), "must have 4 axes, got 2"),
            (lambda: SymTensor4(np.zeros((1, 1, 2, 2))), "need N >= 2 and n >= 2, got N=1, n=2"),
            (lambda: SymTensor4(np.zeros((2, 2, 1, 1))), "need N >= 2 and n >= 2, got N=2, n=1"),
            (lambda: SymTensor4(np.full((2, 2, 2, 2), np.inf)), "entries must be finite"),
            (lambda: SymTensor4.from_text('{"kind": "identity"}'), "not a symtensor4 v1 document"),
            (lambda: SymTensor4.from_text(_short_document()), "expected 16 entries, got 15"),
            (lambda: example2_tensor(0.5), "m must be >= 1, got 0.5"),
            (lambda: contract_hessian(identity_tensor(2, 2), np.zeros((2, 3, 3))), r"must have shape \(2, 2, 2\)"),
            (lambda: bilinear_form(identity_tensor(2, 2), np.zeros((2, 2)), np.zeros((3, 2))), r"must have shape \(2, 2\)"),
            (lambda: symbol_matrix(identity_tensor(3, 2), np.ones(2)), r"direction must have shape \(3,\), got \(2,\)"),
            (lambda: hermitian_form(identity_tensor(2, 3), np.ones(2), np.ones(2)), r"expected xi of shape \(3,\)"),
            (lambda: hermitian_form(identity_tensor(2, 3), np.ones(3), np.ones(3)), r"a of shape \(2,\)"),
            (lambda: SymbolMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 0.0])), "symbol matrix asymmetric by 5.000e-01"),
        ],
    )
    def test_a_bad_input_is_refused_with_its_message(self, build, message):
        with pytest.raises(InputError, match=message):
            build()
