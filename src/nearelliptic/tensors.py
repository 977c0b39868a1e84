"""Algebra of symmetric fourth-order coefficient tensors.

A coefficient tensor ``A`` acts on N x n matrices and on hessian-shaped
arrays.  Entries are indexed ``A[alpha, beta, i, j]`` with Greek indices
running over the target dimension ``N`` and Latin ones over the spatial
dimension ``n``; the defining symmetry is ``A[a, b, i, j] == A[b, a, j, i]``.

The module provides the contractions used throughout the package (A : X on
packed hessians, :func:`contract_pairs`, is written once, here, on the
matrix each tensor builds once, :attr:`SymTensor4.packed`), symbol
matrices ``(A[a,b,i,j] d_i d_j)`` along spatial directions, cofactor-based
symbol inversion, and the rank-one ellipticity constant

    nu(A) = min over unit eta, a of  A : eta (x) a (x) eta (x) a,

computed by dense direction sampling (an angle grid for n <= 3, seeded
normal draws above) plus a batched polish of the best samples by
alternating eigen-steps, the standard method for the smallest M-eigenvalue
of an elasticity-type tensor (Qi, Dai and Han, 2009).  The sampled symbols
are one matmul: the packed contraction of ``A`` (the packing rule of F's
linear part) times the packed direction products ``d_i d_j``, i <= j, and
stay packed.  Their smallest eigenvalues have a closed form for N = 2, and
LAPACK is called only for N >= 3.  The sample directions of each (n,
samples) and their packed products are built once and kept, read-only, in
small LRU caches.

:func:`read_tensor` is the one reader of a tensor in a config or spec
document: a built-in name, a tensor file, or inline entries.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import fields
from .errors import DegenerateSymbolError, EstimateBreachError, InputError
from .fields import SYMMETRY_TOL, HessianPairs

# Relative determinant floor of a degenerate symbol; see symbol_determinants.
DET_FLOOR_COEF = 1e-12

POLISH_MAX_STEPS = 500

# Directions of the nu search, read at call time.
SPHERE_SAMPLES = 20000

# Direction tables kept by _sphere_directions, and their products by _sphere_products, one per (n, samples).
DIRECTION_CACHE_SIZE = 4


def _sym_pair_transpose(entries: np.ndarray) -> np.ndarray:
    """Return the (alpha,beta)/(i,j) pair-transposed entries array."""
    return entries.transpose(1, 0, 3, 2)


@dataclass(frozen=True, eq=False)
class SymTensor4:
    """Immutable symmetric fourth-order tensor with entries ``(N, N, n, n)``."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 4:
            raise InputError(f"tensor entries must have 4 axes, got {entries.ndim}")
        N, N2, n, n2 = entries.shape
        if N != N2 or n != n2:
            raise InputError(f"tensor entries must have shape (N, N, n, n), got {entries.shape}")
        if N < 2 or n < 2:
            raise InputError(f"need N >= 2 and n >= 2, got N={N}, n={n}")
        if not np.all(np.isfinite(entries)):
            raise InputError("tensor entries must be finite")
        flipped = _sym_pair_transpose(entries)
        asym = np.abs(entries - flipped).max()
        scale = max(1.0, np.abs(entries).max())
        if asym > SYMMETRY_TOL * scale:
            raise InputError(
                f"entries break the pair symmetry A[a,b,i,j] == A[b,a,j,i] "
                f"by {asym:.3e} (tolerance {SYMMETRY_TOL * scale:.3e})"
            )
        entries = 0.5 * (entries + flipped)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def N(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[2]

    @cached_property
    def packed(self) -> np.ndarray:
        """The read-only (N, N n(n+1)/2) matrix of Z -> A : Z on packed Z (:meth:`HessianPairs.contraction`), built once."""
        matrix = HessianPairs.contraction(self.entries).reshape(self.N, -1)
        matrix.setflags(write=False)
        return matrix

    def frobenius(self) -> float:
        """Euclidean norm of the entries.

        The entries are scaled by the largest magnitude before squaring, so a
        nonzero tensor with tiny entries (near 1e-181) does not underflow to 0.
        """
        scale = float(np.abs(self.entries).max())
        if scale == 0.0:
            return 0.0
        return scale * float(np.sqrt(((self.entries / scale) ** 2).sum()))

    def operator_norm(self) -> float:
        """Operator norm of Z -> A:Z on symmetric arguments.

        Only the (i, j)-symmetrized part of the contraction matrix acts on
        symmetric Z, and its top singular vector is itself symmetric, so the
        full-matrix SVD of the symmetrized kernel gives the exact norm.
        """
        sym = 0.5 * (self.entries + self.entries.transpose(0, 1, 3, 2))
        mat = sym.reshape(self.N, self.N * self.n * self.n)
        return float(np.linalg.svd(mat, compute_uv=False)[0])

    def to_text(self) -> str:
        """Serialize as plain text: dimensions, then entries in C order of (alpha, beta, i, j)."""
        buf = io.StringIO()
        buf.write("symtensor4 v1\n")
        buf.write(f"n {self.n}\n")
        buf.write(f"N {self.N}\n")
        for value in self.entries.ravel():
            buf.write(f"{float(value)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "SymTensor4":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not lines or lines[0] != "symtensor4 v1":
            raise InputError("not a symtensor4 v1 document")
        try:
            header = dict(ln.split() for ln in lines[1:3])
            n, N = int(header["n"]), int(header["N"])
        except (KeyError, ValueError) as exc:
            raise InputError("malformed tensor header") from exc
        if n < 2 or N < 2:
            raise InputError(f"need N >= 2 and n >= 2, got N={N}, n={n}")
        try:
            values = np.array([float(v) for v in lines[3:]])
        except ValueError as exc:
            raise InputError(f"malformed tensor entry: {exc}") from exc
        if values.size != N * N * n * n:
            raise InputError(f"expected {N * N * n * n} entries, got {values.size}")
        return cls(values.reshape(N, N, n, n))


def identity_tensor(n: int, N: int) -> SymTensor4:
    """Tensor with entries delta_{alpha beta} delta_{ij}; its contraction is the componentwise Laplacian."""
    entries = np.einsum("ab,ij->abij", np.eye(N), np.eye(n))
    return SymTensor4(entries)


def example2_tensor(m: float) -> SymTensor4:
    """Block-diagonal 2x2-system tensor: first block the identity, second block m*[[2,1],[1,2]].

    Strictly convex for m >= 1 but, for m >= 8, provably incompatible with any
    trace-anchored (Laplacian) two-constant lower bound; see
    :func:`nearelliptic.counterexamples.example2_analysis`.
    """
    if m < 1:
        raise InputError(f"block parameter m must be >= 1, got {m}")
    entries = np.zeros((2, 2, 2, 2))
    entries[0, 0] = np.eye(2)
    entries[1, 1] = m * np.array([[2.0, 1.0], [1.0, 2.0]])
    return SymTensor4(entries)


def read_tensor(doc, grid=None) -> SymTensor4:
    """The tensor of a config or spec document: the one reader of every form.

    A built-in name, ``identity`` (of the dimensions of ``grid``) or
    ``example2[:m=<value>]`` (m = 8 by default); ``{"path": <file>}``, a
    :meth:`SymTensor4.to_text` file; or ``{"n", "N", "entries"}``, the inline
    form of :meth:`~nearelliptic.nonlinearity.NonlinearitySpec.to_dict`.
    Anything else, an unreadable file or a malformed value is an InputError.
    """
    if isinstance(doc, str):
        name, _, arg = doc.partition(":")
        if name == "identity" and not arg:
            if grid is None:
                raise InputError("identity tensor needs the grid's n and N")
            return identity_tensor(grid.n, grid.N)
        if name == "example2":
            key, _, value = arg.partition("=")
            if arg and key != "m":
                raise InputError(f"unknown example2 parameter {key!r}")
            try:
                return example2_tensor(float(value) if arg else 8.0)
            except ValueError as exc:
                raise InputError(f"example2 parameter m must be a number, got {value!r}") from exc
        raise InputError(f"unknown built-in tensor {doc!r}")
    if isinstance(doc, dict) and "path" in doc:
        try:
            text = Path(doc["path"]).read_text()
        except (OSError, TypeError) as exc:
            raise InputError(f"cannot read the tensor file: {exc}") from exc
        return SymTensor4.from_text(text)
    if isinstance(doc, dict) and {"n", "N", "entries"} <= set(doc):
        try:
            entries = np.asarray(doc["entries"], dtype=float).reshape(doc["N"], doc["N"], doc["n"], doc["n"])
        except (TypeError, ValueError) as exc:
            raise InputError(f"inline tensor needs integer n, N and N*N*n*n numeric entries: {exc}") from exc
        return SymTensor4(entries)
    raise InputError(f"cannot interpret tensor {doc!r}")


def check_hessian_arg(A: SymTensor4, Z: np.ndarray) -> np.ndarray:
    """Z as a float array, checked to have shape (N, n, n) and to be symmetric in (i, j)."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (A.N, A.n, A.n):
        raise InputError(f"hessian argument must have shape {(A.N, A.n, A.n)}, got {Z.shape}")
    asym = np.abs(Z - Z.transpose(0, 2, 1)).max()
    if asym > SYMMETRY_TOL * max(1.0, np.abs(Z).max()):
        raise InputError(f"hessian argument asymmetric in (i, j) by {asym:.3e}")
    return Z


def contract_pairs(A: SymTensor4, X: np.ndarray) -> np.ndarray:
    """A : X on packed values X (N, n(n+1)/2, K) -> (N, K); a C-contiguous X is read in place."""
    return A.packed @ X.reshape(-1, X.shape[-1])


def contract_hessian(A: SymTensor4, Z: np.ndarray) -> np.ndarray:
    """Contraction (A:Z)_alpha = A[alpha, beta, i, j] Z[beta, i, j] for symmetric Z."""
    return contract_pairs(A, HessianPairs.pack(check_hessian_arg(A, Z)))[:, 0]


def bilinear_form(A: SymTensor4, P: np.ndarray, Q: np.ndarray) -> float:
    """Scalar A : P (x) Q = A[a, b, i, j] P[a, i] Q[b, j]; symmetric in (P, Q).

    The paper's bilinear form of the coefficient tensor, whose rank-one values
    A : (eta (x) a)(eta (x) a) define nu(A).  No solver calls it; it is kept
    for users.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != (A.N, A.n) or Q.shape != (A.N, A.n):
        raise InputError(f"matrix arguments must have shape {(A.N, A.n)}")
    return float(np.einsum("abij,ai,bj->", A.entries, P, Q))


@dataclass(frozen=True, eq=False)
class SymbolMatrix:
    """N x N symbol of the operator along a unit direction."""

    values: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        scale = max(1.0, np.abs(values).max())
        asym = np.abs(values - values.T).max()
        if asym > 1e-12 * scale:
            raise InputError(f"symbol matrix asymmetric by {asym:.3e}")
        values = 0.5 * (values + values.T)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        direction = np.asarray(self.direction, dtype=float)
        direction.setflags(write=False)
        object.__setattr__(self, "direction", direction)


def symbol_matrix(A: SymTensor4, a: np.ndarray) -> SymbolMatrix:
    """Symbol (A[alpha, beta, i, j] d_i d_j) at the unit direction d = a / |a|."""
    a = np.asarray(a, dtype=float)
    if a.shape != (A.n,):
        raise InputError(f"direction must have shape ({A.n},), got {a.shape}")
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise InputError("direction must be nonzero")
    unit = a / norm
    return SymbolMatrix(values=symbol_stack(packed_symbol_matrix(A.entries), unit[None], A.N)[0], direction=unit)


def packed_symbol_matrix(entries: np.ndarray) -> np.ndarray:
    """The (N(N+1)/2, n(n+1)/2) matrix taking packed products d_i d_j to packed symbols, from entries (N, N, n, n).

    Row (a, b), a <= b, in the slot order of :meth:`HessianPairs.components`,
    is the row of :meth:`HessianPairs.contraction`, the packing rule of F's
    linear part.  Only a <= b is formed, so an unpacked symbol is exactly
    symmetric.
    """
    rows, cols = HessianPairs.components(entries.shape[0])
    return HessianPairs.contraction(entries)[rows, cols]


def direction_products(vectors: np.ndarray) -> np.ndarray:
    """Packed products d_i d_j, i <= j, of the columns d of ``vectors`` (n, K) -> (n(n+1)/2, K).

    One slot at a time into one output: gathering the row pairs first would
    allocate two more arrays of the output's size.
    """
    rows, cols = HessianPairs.components(len(vectors))
    out = np.empty((len(rows), vectors.shape[1]))
    for slot, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        np.multiply(vectors[i], vectors[j], out=out[slot])
    return out


def unpack_symbols(packed: np.ndarray, N: int) -> np.ndarray:
    """Symmetric (K, N, N) matrices of their packed upper triangles (N(N+1)/2, K)."""
    return packed.T[:, HessianPairs.slot_index(N)]


def symbol_stack(matrix: np.ndarray, directions: np.ndarray, N: int) -> np.ndarray:
    """Symbols at many directions at once: (K, n) unit directions -> (K, N, N), exactly symmetric.

    ``matrix`` is the :func:`packed_symbol_matrix` of the tensor.
    """
    return unpack_symbols(matrix @ direction_products(directions.T), N)


def lowest_eigenvalues(packed: np.ndarray, N: int) -> np.ndarray:
    """Smallest eigenvalue of each symmetric N x N matrix, from packed upper triangles (N(N+1)/2, K).

    For N = 2, with entries (a, b, c), it is 0.5 a + 0.5 c - hypot(0.5 a -
    0.5 c, b), which squares nothing, so it neither overflows nor underflows;
    :func:`cofactor_transpose` special-cases N = 2 the same way.  LAPACK
    ``eigvalsh`` is called for every other N.
    """
    if N == 2:
        a, b, c = packed
        return 0.5 * a + 0.5 * c - np.hypot(0.5 * a - 0.5 * c, b)
    return np.linalg.eigvalsh(unpack_symbols(packed, N))[:, 0]


def cofactor_transpose(S: np.ndarray) -> np.ndarray:
    """Transposed cofactor matrix of stacked square matrices ``(..., N, N)``."""
    S = np.asarray(S, dtype=float)
    N = S.shape[-1]
    if N == 2:
        cof_t = np.empty_like(S)
        cof_t[..., 0, 0] = S[..., 1, 1]
        cof_t[..., 1, 1] = S[..., 0, 0]
        cof_t[..., 0, 1] = -S[..., 0, 1]
        cof_t[..., 1, 0] = -S[..., 1, 0]
        return cof_t
    cof = np.empty_like(S)
    for p in range(N):
        minor_rows = np.delete(S, p, axis=-2)
        for q in range(N):
            minor = np.delete(minor_rows, q, axis=-1)
            cof[..., p, q] = (-1.0) ** (p + q) * np.linalg.det(minor)
    return np.swapaxes(cof, -1, -2)


def symbol_determinants(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Determinants of stacked symbols (..., N, N), their floors, and the degenerate mask.

    S is degenerate when it is zero or |det S| < DET_FLOOR_COEF ||S||_F^N.  The
    test compares logarithms, and hypot takes the norm, so neither underflows
    or overflows and c S gets the same verdict for any c != 0; only the
    returned determinant and floor can leave the float range.
    """
    sign, logdet = np.linalg.slogdet(S)
    norm = np.hypot.reduce(S.reshape(S.shape[:-2] + (-1,)), axis=-1)
    with np.errstate(divide="ignore", over="ignore"):
        log_floor = np.log(DET_FLOOR_COEF) + S.shape[-1] * np.log(norm)
        return sign * np.exp(logdet), np.exp(log_floor), (logdet < log_floor) | (norm == 0.0)


def power_of_two_scale(values: np.ndarray) -> float:
    """The power of two just above the largest magnitude of ``values`` (1 for zeros): an exact divisor."""
    return float(np.ldexp(1.0, np.frexp(np.abs(values).max())[1]))


def symbol_inverse(A: SymTensor4, z: np.ndarray) -> np.ndarray:
    """Inverse symbol cof(S)^T / det(S) at direction z; errors when det is below the scaled floor.

    The paper's inverse symbol (A : z (x) z)^{-1} of the Fourier-transform
    solve, at one direction: the pointwise reference that the spectral plan's
    degeneracy verdict is tested against.  S is divided by
    ``power_of_two_scale(S)`` first, so tiny entries cannot underflow.
    """
    S = symbol_matrix(A, z).values
    scale = power_of_two_scale(S)
    det, floor, degenerate = symbol_determinants(S / scale)
    if degenerate:
        raise DegenerateSymbolError(
            f"symbol determinant {det:.3e} below floor {floor:.3e} at direction {np.asarray(z)!r}",
            direction=np.asarray(z, dtype=float),
        )
    return cofactor_transpose(S / scale) / (det * scale)


def hermitian_form(A: SymTensor4, xi: np.ndarray, a: np.ndarray) -> float:
    """Hermitian rank-one value A : xi (x) a (x) conj(xi) (x) a for complex xi.

    The paper's Legendre-Hadamard condition for complex amplitudes: the value
    is at least nu(A) |xi|^2 |a|^2, which is what makes each Fourier mode of
    the linear solve coercive.  No solver calls it; it is kept for users.

    The value is real by the pair symmetry; the imaginary part is checked
    against round-off and dropped.  Equals the sum of the real bilinear forms
    on Re(xi) (x) a and Im(xi) (x) a.
    """
    xi = np.asarray(xi, dtype=complex)
    a = np.asarray(a, dtype=float)
    if xi.shape != (A.N,) or a.shape != (A.n,):
        raise InputError(f"expected xi of shape ({A.N},) and a of shape ({A.n},)")
    value = complex(np.einsum("abij,a,i,b,j->", A.entries, xi, a, np.conj(xi), a))
    scale = A.frobenius() * float(np.vdot(xi, xi).real) * float(a @ a)
    if abs(value.imag) > 1e-12 * max(scale, np.finfo(float).tiny):
        raise EstimateBreachError(
            f"hermitian form has non-negligible imaginary part {value.imag:.3e} at scale {scale:.3e}"
        )
    return value.real


@dataclass(frozen=True, eq=False)
class EllipticityConstant:
    """Rank-one ellipticity constant with the (approximate) minimizing pair."""

    nu: float
    witness_a: np.ndarray
    witness_eta: np.ndarray
    resolution: str


def _direction_count(n: int, samples: int) -> int:
    """The number of directions in :func:`_sphere_directions`, without building them."""
    if n == 2:
        return samples
    if n == 3:
        n_theta = max(8, int(np.sqrt(samples / 4.0)))
        return (n_theta - 1) * 4 * n_theta + 1
    return 2 ** int(np.ceil(np.log2(max(samples, 16))))


@lru_cache(maxsize=DIRECTION_CACHE_SIZE)
def _sphere_directions(n: int, samples: int) -> np.ndarray:
    """Unit directions covering the sphere, one per column of a read-only (n, K) table.

    The symbol is even in the direction, so half the sphere suffices.  For
    n <= 3 a product-of-angles grid is dense enough; in higher dimension the
    2^m >= samples directions are seeded standard normal draws, normalised,
    which are uniform on the sphere.  The table is built once per (n,
    samples): for the default 20000 samples it holds 0.31 MiB at n = 2,
    0.44 MiB at n = 3 and 2^15 n doubles above.  Each coordinate is one
    contiguous row, the layout :func:`direction_products` reads.
    """
    if n == 2:
        theta = np.linspace(0.0, np.pi, samples, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)])
    elif n == 3:
        n_theta = max(8, int(np.sqrt(samples / 4.0)))
        n_phi = 4 * n_theta
        theta = np.linspace(0.0, np.pi / 2, n_theta)
        phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        dirs = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)]).reshape(3, -1)
        # the theta = 0 row collapses to the pole; keep one copy
        dirs = np.delete(dirs, np.s_[1:n_phi], axis=1)
    else:
        pts = np.ascontiguousarray(np.random.default_rng(7).standard_normal((_direction_count(n, samples), n)).T)
        dirs = pts / np.linalg.norm(pts, axis=0)
    dirs.setflags(write=False)
    return dirs


@lru_cache(maxsize=DIRECTION_CACHE_SIZE)
def _sphere_products(n: int, samples: int) -> np.ndarray:
    """:func:`direction_products` of the :func:`_sphere_directions` table, read-only (n(n+1)/2, K).

    Kept beside the table, built once per (n, samples): 0.46 MiB at n = 2
    and 0.88 MiB at n = 3 for the default 20000 samples.
    """
    products = direction_products(_sphere_directions(n, samples))
    products.setflags(write=False)
    return products


def _polish(A: SymTensor4, matrix: np.ndarray, dirs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Alternating eigen-steps from (K, n) directions eta; returns values, directions and steps.

    With eta fixed the best a is the lowest eigenvector of S(eta); with a fixed
    the best eta is the lowest eigenvector of B(a)_ij = A[alpha, beta, i, j]
    a_alpha a_beta.  Neither step raises A : (a (x) eta)(a (x) eta), so the
    values fall until each changes by at most ``tol`` relative, or for at most
    POLISH_MAX_STEPS steps.  B(a) is the symbol at a of the tensor with its
    index pairs swapped.  ``matrix`` is :func:`packed_symbol_matrix` of A; the
    swapped one is formed once here, so a step is two matmuls and two ``eigh``.
    """
    swapped = packed_symbol_matrix(A.entries.transpose(2, 3, 0, 1))
    w, V = np.linalg.eigh(symbol_stack(matrix, dirs, A.N))
    for step in range(1, POLISH_MAX_STEPS + 1):
        dirs = np.linalg.eigh(symbol_stack(swapped, V[..., 0], A.n))[1][..., 0]
        prev = w[:, 0]
        w, V = np.linalg.eigh(symbol_stack(matrix, dirs, A.N))
        if np.all(np.abs(prev - w[:, 0]) <= tol * np.abs(prev)):
            break
    return w[:, 0], dirs, step


def ellipticity_constant(A: SymTensor4) -> EllipticityConstant:
    """nu(A), the paper's rank-one (Legendre-Hadamard) constant: the least symbol eigenvalue over unit directions.

    Dense sampling of about ``SPHERE_SAMPLES`` directions (see
    :func:`_sphere_directions`) followed by the alternating eigen-step polish
    from the 10 best samples, to a relative change of 1e-13; the minimum of
    the sampled and polished values is reported together with the attaining
    direction and eigenvector.  The sampled symbols are one packed matmul;
    their smallest eigenvalues are in closed form for N = 2
    (:func:`lowest_eigenvalues`), and the directions of each (n, samples)
    and their packed products are built once and cached.  The packed stack
    (N(N+1)/2, K) and its unpacked (K, N, N) form, the stack of
    ``eigvalsh``, must fit in the memory budget of a grid,
    ``fields._DEFAULT_BUDGET``; a search past it is refused before it
    allocates anything.  The result may be <= 0, and
    ``nu > 0`` is the paper's rank-one positivity; the caller decides what
    to do with a non-elliptic tensor (see :func:`_certified_nu`).
    """
    count = _direction_count(A.n, SPHERE_SAMPLES)
    stacks = 8 * count * (A.N * (A.N + 1) // 2 + A.N**2)
    if stacks > fields._DEFAULT_BUDGET:
        raise InputError(
            f"the nu search over {count} directions stacks {stacks} bytes of N={A.N} symbols, "
            f"over the memory budget {fields._DEFAULT_BUDGET} bytes"
        )
    table = _sphere_directions(A.n, SPHERE_SAMPLES)
    matrix = packed_symbol_matrix(A.entries)
    eigs = lowest_eigenvalues(matrix @ _sphere_products(A.n, SPHERE_SAMPLES), A.N)
    count = min(10, len(eigs))
    best = np.argpartition(eigs, count - 1)[:count]
    best = best[np.argsort(eigs[best], kind="stable")]
    values, polished, steps = _polish(A, matrix, table[:, best].T, 1e-13)
    candidates = [(float(eigs[k]), table[:, k]) for k in best] + list(zip(values.tolist(), polished))
    nu, witness_a = min(candidates, key=lambda item: item[0])
    S = symbol_matrix(A, witness_a).values
    w, V = np.linalg.eigh(S)
    resolution = (
        f"directions={len(eigs)} (n={A.n}), polish=alternating-eigh x{len(best)}, "
        f"steps={steps}, tol=1e-13"
    )
    return EllipticityConstant(
        nu=float(nu),
        witness_a=np.array(witness_a, dtype=float),
        witness_eta=np.asarray(V[:, 0], dtype=float),
        resolution=resolution,
    )


def _certified_nu(A: SymTensor4, nu: float | None) -> float:
    """``nu`` as passed, which must be finite and positive, or nu(A) searched now, which must be positive."""
    if nu is None:
        nu = ellipticity_constant(A).nu
        if nu <= 0:
            raise InputError(f"tensor is not rank-one positive: nu = {nu}")
    elif not (math.isfinite(nu) and nu > 0):
        raise InputError(f"nu must be finite and positive, got {nu}")
    return nu


def random_rank_one_positive(n: int, N: int, seed: int) -> tuple[SymTensor4, EllipticityConstant]:
    """Seeded random tensor with nu >= 0.05: the identity plus noise of spread 0.25 / (n N), up to 50 draws."""
    rng = np.random.default_rng(seed)
    base = identity_tensor(n, N).entries
    for _ in range(50):
        noise = rng.standard_normal((N, N, n, n)) * 0.25 / (n * N)
        entries = base + 0.5 * (noise + _sym_pair_transpose(noise))
        tensor = SymTensor4(entries)
        cert = ellipticity_constant(tensor)
        if cert.nu >= 0.05:
            return tensor, cert
    raise RuntimeError("could not draw a tensor with nu >= 0.05 in 50 tries")
