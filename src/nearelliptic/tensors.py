"""Algebra of symmetric fourth-order coefficient tensors.

A coefficient tensor ``A`` acts on N x n matrices and on hessian-shaped
arrays.  Entries are indexed ``A[alpha, beta, i, j]`` with Greek indices
running over the target dimension ``N`` and Latin ones over the spatial
dimension ``n``; the defining symmetry is ``A[a, b, i, j] == A[b, a, j, i]``.

The module provides the contractions used throughout the package, symbol
matrices ``(A[a,b,i,j] d_i d_j)`` along spatial directions, cofactor-based
symbol inversion, and the rank-one ellipticity constant

    nu(A) = min over unit eta, a of  A : eta (x) a (x) eta (x) a,

computed by dense direction sampling plus local polish.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import DegenerateSymbolError, EstimateBreachError, InputError

# Constructor tolerance: asymmetry up to round-off is repaired, more is an error.
SYMMETRY_TOL = 1e-12

# Relative determinant floor of a degenerate symbol; see symbol_determinants.
DET_FLOOR_COEF = 1e-12


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


_BUILTIN_TENSORS = {"identity": identity_tensor, "example2": example2_tensor}


def builtin_tensor(name: str, *, n: int | None = None, N: int | None = None) -> SymTensor4:
    """Resolve a named built-in: ``identity`` (needs n, N) or ``example2:m=<value>``."""
    if name == "identity":
        if n is None or N is None:
            raise InputError("identity tensor needs explicit n and N")
        return identity_tensor(n, N)
    if name.startswith("example2"):
        m = 8.0
        if ":" in name:
            _, _, arg = name.partition(":")
            key, _, val = arg.partition("=")
            if key != "m":
                raise InputError(f"unknown example2 parameter {key!r}")
            m = float(val)
        return example2_tensor(m)
    raise InputError(f"unknown built-in tensor {name!r}")


def _check_hessian_arg(A: SymTensor4, Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (A.N, A.n, A.n):
        raise InputError(f"hessian argument must have shape {(A.N, A.n, A.n)}, got {Z.shape}")
    asym = np.abs(Z - Z.transpose(0, 2, 1)).max()
    if asym > SYMMETRY_TOL * max(1.0, np.abs(Z).max()):
        raise InputError(f"hessian argument asymmetric in (i, j) by {asym:.3e}")
    return Z


def contract_hessian(A: SymTensor4, Z: np.ndarray) -> np.ndarray:
    """Contraction (A:Z)_alpha = A[alpha, beta, i, j] Z[beta, i, j] for symmetric Z."""
    Z = _check_hessian_arg(A, Z)
    return np.einsum("abij,bij->a", A.entries, Z)


def bilinear_form(A: SymTensor4, P: np.ndarray, Q: np.ndarray) -> float:
    """Scalar A : P (x) Q = A[a, b, i, j] P[a, i] Q[b, j]; symmetric in (P, Q)."""
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
    values = np.einsum("abij,i,j->ab", A.entries, unit, unit)
    return SymbolMatrix(values=values, direction=unit)


def symbol_stack(A: SymTensor4, directions: np.ndarray) -> np.ndarray:
    """Symbols at many directions at once: (K, n) unit directions -> (K, N, N)."""
    return np.einsum("abij,ki,kj->kab", A.entries, directions, directions)


def cofactor_transpose(S: np.ndarray) -> np.ndarray:
    """Transposed cofactor matrix of stacked square matrices ``(..., N, N)``."""
    S = np.asarray(S, dtype=float)
    N = S.shape[-1]
    if N == 1:
        return np.ones_like(S)
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

    S is degenerate when it is zero or |det S| < DET_FLOOR_COEF ||S||_F^N; c S gets the
    same verdict for any c != 0.
    """
    det = np.linalg.det(S)
    scale = np.sqrt((S**2).sum(axis=(-2, -1)))
    floor = DET_FLOOR_COEF * np.maximum(scale, np.finfo(float).tiny) ** S.shape[-1]
    return det, floor, (np.abs(det) < floor) | (scale == 0.0)


def symbol_inverse(A: SymTensor4, z: np.ndarray) -> np.ndarray:
    """Inverse symbol cof(S)^T / det(S) at direction z; errors when det is below the scaled floor."""
    S = symbol_matrix(A, z).values
    det, floor, degenerate = symbol_determinants(S)
    if degenerate:
        raise DegenerateSymbolError(
            f"symbol determinant {det:.3e} below floor {floor:.3e} at direction {np.asarray(z)!r}",
            direction=np.asarray(z, dtype=float),
        )
    return cofactor_transpose(S) / det


def hermitian_form(A: SymTensor4, xi: np.ndarray, a: np.ndarray) -> float:
    """Hermitian rank-one value A : xi (x) a (x) conj(xi) (x) a for complex xi.

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


@dataclass(frozen=True)
class SphereSearchConfig:
    """Direction-sampling plan for the ellipticity-constant search."""

    samples: int = 20000
    polish_seeds: int = 10
    seed: int = 7
    polish_tol: float = 1e-13


@dataclass(frozen=True, eq=False)
class EllipticityConstant:
    """Rank-one ellipticity constant with the (approximate) minimizing pair."""

    nu: float
    witness_a: np.ndarray
    witness_eta: np.ndarray
    resolution: str


def _sphere_directions(n: int, cfg: SphereSearchConfig) -> np.ndarray:
    """Unit directions covering the sphere.

    The symbol is even in the direction, so half the sphere suffices.  For
    n <= 3 a product-of-angles grid is dense enough; in higher dimension a
    Sobol sequence pushed through the normal quantile gives quasi-uniform
    points.
    """
    if n == 2:
        theta = np.linspace(0.0, np.pi, cfg.samples, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if n == 3:
        n_theta = max(8, int(np.sqrt(cfg.samples / 4.0)))
        n_phi = 4 * n_theta
        theta = np.linspace(0.0, np.pi / 2, n_theta)
        phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        dirs = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)],
            axis=-1,
        ).reshape(-1, 3)
        # the theta = 0 row collapses to the pole; keep one copy
        keep = np.ones(len(dirs), dtype=bool)
        keep[1:n_phi] = False
        return dirs[keep]
    from scipy.stats import qmc

    m = int(np.ceil(np.log2(max(cfg.samples, 16))))
    sob = qmc.Sobol(d=n, scramble=True, seed=cfg.seed)
    raw = sob.random_base2(m)
    from scipy.special import ndtri

    pts = ndtri(np.clip(raw, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(pts, axis=1)
    good = norms > 1e-8
    return pts[good] / norms[good, None]


def _min_eig_objective(A: SymTensor4):
    def objective(v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0.0 or not np.isfinite(norm):
            return np.inf
        S = np.einsum("abij,i,j->ab", A.entries, v / norm, v / norm)
        return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])

    return objective


def _polish_candidates(A: SymTensor4, seeds: np.ndarray, cfg: SphereSearchConfig):
    """Locally refine candidate minimizing directions; returns (value, direction) pairs."""
    objective = _min_eig_objective(A)
    results = []
    for a0 in seeds:
        if A.n == 2:
            t0 = float(np.arctan2(a0[1], a0[0]))

            def obj_angle(t):
                return objective(np.array([np.cos(t), np.sin(t)]))

            res = optimize.minimize_scalar(
                obj_angle,
                bounds=(t0 - 0.01, t0 + 0.01),
                method="bounded",
                options={"xatol": cfg.polish_tol},
            )
            direction = np.array([np.cos(res.x), np.sin(res.x)])
            results.append((float(res.fun), direction))
        else:
            res = optimize.minimize(
                objective,
                a0,
                method="Nelder-Mead",
                options={"xatol": cfg.polish_tol, "fatol": cfg.polish_tol, "maxiter": 400},
            )
            direction = res.x / np.linalg.norm(res.x)
            results.append((float(res.fun), direction))
    return results


def ellipticity_constant(A: SymTensor4, search: SphereSearchConfig = SphereSearchConfig()) -> EllipticityConstant:
    """Minimum over unit directions of the smallest symbol eigenvalue.

    Dense direction sampling followed by local polish from the best seeds;
    the minimum of the sampled and polished values is reported together with
    the attaining direction and eigenvector.  The result may be <= 0; the
    caller decides what to do with a non-elliptic tensor.
    """
    return _sphere_search(A, search)[0]


def _sphere_search(A: SymTensor4, search: SphereSearchConfig):
    """nu(A), with the symbol stack and its smallest eigenvalues at the sampled directions."""
    dirs = _sphere_directions(A.n, search)
    stack = symbol_stack(A, dirs)
    eigs = np.linalg.eigvalsh(stack)[:, 0]
    order = np.argsort(eigs)
    best = order[: max(1, search.polish_seeds)]
    candidates = [(float(eigs[k]), dirs[k]) for k in best]
    candidates += _polish_candidates(A, dirs[best], search)
    nu, witness_a = min(candidates, key=lambda item: item[0])
    S = symbol_matrix(A, witness_a).values
    w, V = np.linalg.eigh(S)
    resolution = (
        f"directions={len(dirs)} (n={A.n}), polish=nelder-mead x{len(best)}, tol={search.polish_tol:g}"
    )
    constant = EllipticityConstant(
        nu=float(nu),
        witness_a=np.asarray(witness_a, dtype=float),
        witness_eta=np.asarray(V[:, 0], dtype=float),
        resolution=resolution,
    )
    return constant, stack, eigs


@dataclass(frozen=True, eq=False)
class RankOneCheck:
    """Outcome of the rank-one positivity test with the determinant cross-check."""

    positive: bool
    constant: EllipticityConstant
    det_min: float
    disagreements: int
    sample_count: int

    def __bool__(self) -> bool:
        return self.positive


def check_rank_one_positive(
    A: SymTensor4,
    tol: float = 0.0,
    search: SphereSearchConfig = SphereSearchConfig(),
) -> RankOneCheck:
    """True when nu(A) > tol; cross-checks the determinant criterion at all sampled directions.

    Positivity of the smallest symbol eigenvalue and positivity of the symbol
    determinant agree globally for symmetric tensors; pointwise the
    determinant can be positive with an even number of negative eigenvalues,
    so disagreeing sample directions are counted and reported rather than
    silently accepted.
    """
    constant, stack, eig_min = _sphere_search(A, search)
    dets = np.linalg.det(stack)
    disagreements = int(np.count_nonzero((eig_min > tol) != (dets > 0.0)))
    return RankOneCheck(
        positive=bool(constant.nu > tol),
        constant=constant,
        det_min=float(dets.min()),
        disagreements=disagreements,
        sample_count=len(stack),
    )


def random_rank_one_positive(
    n: int,
    N: int,
    seed: int,
    nu_min: float = 0.05,
    spread: float = 0.25,
    max_tries: int = 50,
) -> tuple[SymTensor4, EllipticityConstant]:
    """Seeded random tensor certified rank-one positive, built as identity plus a bounded perturbation."""
    rng = np.random.default_rng(seed)
    base = identity_tensor(n, N).entries
    for _ in range(max_tries):
        noise = rng.standard_normal((N, N, n, n)) * spread / (n * N)
        entries = base + 0.5 * (noise + _sym_pair_transpose(noise))
        tensor = SymTensor4(entries)
        cert = ellipticity_constant(tensor)
        if cert.nu >= nu_min:
            return tensor, cert
    raise RuntimeError(f"could not draw a tensor with nu >= {nu_min} in {max_tries} tries")
