"""Periodic-grid vector and hessian fields with spectral differentiation.

Fields live on the torus [0, L)^n sampled at M points per axis.  The spectral
representation stores Fourier-series coefficients

    u(x) = sum_k c(k) exp(2 pi i k . x / L),      c(k) = fftn(u) / M^n,

with integer frequencies k in {-M/2, ..., M/2 - 1}^n (fft layout) and
physical frequency z = k / L.  With this normalization the quadrature and the
coefficient sums agree exactly:

    ||u||_{L2}^2 = (L/M)^n sum_x |u(x)|^2 = L^n sum_k |c(k)|^2,

and the hessian acts diagonally, c(k) -> c(k) (2 pi i k_i / L)(2 pi i k_j / L).
The k = 0 coefficient is the spatial mean; second derivatives annihilate it,
which is the gauge mode the solvers pin to zero.  M is even.

Every transform is a ``scipy.fft`` call with ``norm="forward"``, on one
worker: it divides the forward transform by M^n and leaves the inverse
unscaled, so that one normalization holds on the full grid (``fftn`` and
the real part of ``ifftn``) and on the half spectrum alike.

Half spectrum.  The solvers work on real fields, whose coefficients satisfy
c(-k) = conj(c(k)), so they keep only the ``rfftn`` half spectrum: the last
axis holds k_n = 0, ..., M/2 (shape (M, ..., M, M/2 + 1)).  Norms follow
from Plancherel with weight 1 on the k_n = 0 and k_n = M/2 planes, whose
conjugate partners lie in the half spectrum, and weight 2 elsewhere.
:class:`HalfSpectrum` holds this layout for one grid, its |z|^2, gauge mask
and weights, and the n(n+1)/2 distinct hessian multipliers;
:func:`half_spectrum` memoizes it.  A loop that takes many
hessians of one grid gives :meth:`HalfSpectrum.hessian_pairs` one work
buffer (:meth:`HalfSpectrum.work_buffer`, complex (N, n(n+1)/2) + shape):
each call overwrites it with the product of the coefficients and the
multipliers and transforms it from there, so the loop allocates that
product once, not once per hessian.  The buffer is the only array a call
overwrites; the caller's coefficients and the inputs of ``forward`` and
``inverse`` are left as they were.  (The irfftn still allocates its own
complex intermediate: ``scipy.fft``'s multi-axis inverse real transform
does not transform in place.)

Every hessian multiplier, here and in the linear solver's plan, comes from
the one frequency table :func:`hessian_multipliers`.

Random fields.  :func:`band_limited_coefficients` builds the exactly
hermitian coefficients of a seeded band-limited field, and
:func:`random_band_limited` is their physical field.  A caller that only
needs derivatives, such as the stability admission, slices the coefficients
to the half spectrum and skips the transforms to physical space and back.

Packed hessian.  The hessian is symmetric in (i, j), so the solvers keep only
its n(n+1)/2 distinct components (i, j), i <= j, in row-major order: a
:class:`HessianPairs` field has data (N, n(n+1)/2, M, ..., M).  A sum over
all n^2 components counts each off-diagonal slot twice, and
:meth:`HessianPairs.contraction` folds a tensor A into the packed slots.

Nyquist planes.  The mixed multiplier k_i k_j (i != j) is odd in k_i on the
Nyquist plane k_i = -M/2, where -k mod M is k again, so the full-spectrum
product is not conjugate-symmetric there and the physical field is its real
part.  A real multiplier m is therefore applied to the half spectrum as its
hermitian part (m(k) + m(kbar)) / 2, kbar = -k mod M in fft layout (the
Nyquist value is -M/2 on every axis, the last rfft axis included); this is
exactly what taking the real part of the full complex inverse transform
does, so both paths solve the same discrete problem.  Away from the Nyquist
planes m(kbar) = m(k) and the multiplier is unchanged.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
import scipy.fft

from .errors import InputError

PHYSICAL = "physical"
SPECTRAL = "spectral"

_DEFAULT_BUDGET = 2 * 1024**3  # bytes


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: n axes, M points each, period L, N field components."""

    n: int
    N: int
    M: int
    L: float = 1.0
    memory_budget: int = _DEFAULT_BUDGET

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"spatial dimension must be >= 2, got {self.n}")
        if self.N < 2:
            raise InputError(f"target dimension must be >= 2, got {self.N}")
        if self.M < 4 or self.M % 2 != 0:
            raise InputError(f"points per axis must be even and >= 4, got {self.M}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise InputError(f"period must be finite and positive, got {self.L}")
        # the largest array a solve allocates is the real physical hessian
        bytes_needed = 8 * self.N * self.n**2 * self.M**self.n
        if bytes_needed > self.memory_budget:
            raise InputError(
                f"hessian of {bytes_needed} bytes exceeds the memory budget {self.memory_budget}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * self.n

    @property
    def points(self) -> int:
        return self.M**self.n

    @property
    def spacing(self) -> float:
        return self.L / self.M

    @property
    def cell_volume(self) -> float:
        return (self.L / self.M) ** self.n

    @property
    def volume(self) -> float:
        return self.L**self.n

    def axes(self) -> list[np.ndarray]:
        """Physical coordinates along each axis."""
        x = np.arange(self.M) * self.spacing
        return [x] * self.n

    def integer_freqs(self) -> np.ndarray:
        """Integer frequencies along one axis in fft layout."""
        return np.fft.fftfreq(self.M, d=1.0 / self.M)

    def freq_axes(self) -> list[np.ndarray]:
        """Integer frequency arrays shaped for broadcasting over the grid axes."""
        k = self.integer_freqs()
        out = []
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = self.M
            out.append(k.reshape(shape))
        return out

    def zsq(self) -> np.ndarray:
        """|z|^2 = |k/L|^2 over the full grid."""
        total = np.zeros(self.shape)
        for ka in self.freq_axes():
            total = total + (ka / self.L) ** 2
        return total


def _grid_axes(grid: GridSpec) -> tuple[int, ...]:
    """The trailing grid axes of a field's data, after its component axes."""
    return tuple(range(-grid.n, 0))


def _frozen_data(data, expected: tuple[int, ...], representation: str, what: str) -> np.ndarray:
    """``data`` checked for shape and representation, as a read-only contiguous float or complex array."""
    data = np.asarray(data)
    if data.shape != expected:
        raise InputError(f"{what} data must have shape {expected}, got {data.shape}")
    if representation not in (PHYSICAL, SPECTRAL):
        raise InputError(f"unknown representation {representation!r}")
    data = np.ascontiguousarray(data, dtype=float if representation == PHYSICAL else complex)
    data.setflags(write=False)
    return data


def _transformed(field):
    """The field in its other representation: c(k) = fftn(u) / M^n, or the real part of the inverse."""
    axes = _grid_axes(field.grid)
    if field.is_physical():
        return type(field)(field.grid, scipy.fft.fftn(field.data, axes=axes, norm="forward"), SPECTRAL)
    return type(field)(field.grid, scipy.fft.ifftn(field.data, axes=axes, norm="forward").real, PHYSICAL)


def _combined(field, other, op):
    """``op`` of the data of two fields of one class, grid and representation."""
    if not isinstance(other, type(field)):
        return NotImplemented
    if other.grid != field.grid or other.representation != field.representation:
        raise InputError("field operands must share grid and representation")
    return type(field)(field.grid, op(field.data, other.data), field.representation)


@dataclass(frozen=True, eq=False)
class VectorField:
    """N-component field on the grid, physical (real) or spectral (complex coefficients)."""

    grid: GridSpec
    data: np.ndarray
    representation: str = PHYSICAL

    def __post_init__(self):
        expected = (self.grid.N,) + self.grid.shape
        object.__setattr__(self, "data", _frozen_data(self.data, expected, self.representation, "vector field"))

    def is_physical(self) -> bool:
        return self.representation == PHYSICAL

    def require_finite(self, what: str) -> "VectorField":
        """Return the field; raise InputError naming ``what`` if any value is NaN or infinite."""
        if not np.all(np.isfinite(self.data)):
            raise InputError(f"{what} has non-finite values")
        return self

    def to_physical(self) -> "VectorField":
        return self if self.is_physical() else _transformed(self)

    def to_spectral(self) -> "VectorField":
        return _transformed(self) if self.is_physical() else self

    def mean(self) -> np.ndarray:
        """Component means; equals the k = 0 coefficient."""
        if self.is_physical():
            return self.data.mean(axis=_grid_axes(self.grid))
        zero = (slice(None),) + (0,) * self.grid.n
        return self.data[zero].real.copy()

    def __add__(self, other):
        return _combined(self, other, np.add)

    def __sub__(self, other):
        return _combined(self, other, np.subtract)

    def __mul__(self, scalar):
        return VectorField(self.grid, self.data * float(scalar), self.representation)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class HessianField:
    """Second-derivative field with components (alpha, i, j), symmetric in (i, j)."""

    grid: GridSpec
    data: np.ndarray
    representation: str = PHYSICAL

    def __post_init__(self):
        g = self.grid
        expected = (g.N, g.n, g.n) + g.shape
        object.__setattr__(self, "data", _frozen_data(self.data, expected, self.representation, "hessian field"))

    def is_physical(self) -> bool:
        return self.representation == PHYSICAL

    def to_physical(self) -> "HessianField":
        return self if self.is_physical() else _transformed(self)

    def to_spectral(self) -> "HessianField":
        return _transformed(self) if self.is_physical() else self

    def __sub__(self, other):
        return _combined(self, other, np.subtract)


@dataclass(frozen=True, eq=False)
class HessianPairs:
    """Physical hessian packed to its distinct components: data (N, n(n+1)/2, M, ..., M).

    Slot p holds component (i, j) = (rows[p], cols[p]) of :meth:`components`;
    the equal component (j, i) is not stored.
    """

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        g = self.grid
        expected = (g.N, g.n * (g.n + 1) // 2) + g.shape
        object.__setattr__(self, "data", _frozen_data(self.data, expected, PHYSICAL, "packed hessian"))

    @staticmethod
    @cache
    def components(n: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows and columns of the n(n+1)/2 distinct components (i <= j), in slot order.

        Built once per n; the arrays are read-only.
        """
        rows, cols = np.triu_indices(n)
        for arr in (rows, cols):
            arr.setflags(write=False)
        return rows, cols

    @staticmethod
    def slot_index(n: int) -> np.ndarray:
        """(n, n) map from component (i, j) to its slot, shared by (i, j) and (j, i)."""
        rows, cols = HessianPairs.components(n)
        index = np.empty((n, n), dtype=np.intp)
        index[rows, cols] = index[cols, rows] = np.arange(len(rows))
        return index

    @staticmethod
    def multiplicity(n: int) -> np.ndarray:
        """Components per slot: 1 on the diagonal, 2 off it ((i, j) and (j, i))."""
        rows, cols = HessianPairs.components(n)
        return np.where(rows == cols, 1.0, 2.0)

    def norm(self) -> float:
        """L2 norm of the full hessian: each off-diagonal slot counts for (i, j) and (j, i)."""
        g = self.grid
        power = self.multiplicity(g.n) @ (self.data**2).reshape(g.N, -1, g.points)
        return float(np.sqrt(g.cell_volume * power.sum()))

    @classmethod
    def pack(cls, X: np.ndarray) -> np.ndarray:
        """The upper triangle of a batch (..., N, n, n) as packed values (N, n(n+1)/2, K), K the batch size."""
        rows, cols = cls.components(X.shape[-1])
        return X[..., rows, cols].reshape(-1, X.shape[-3], len(rows)).transpose(1, 2, 0)

    @classmethod
    def from_hessian(cls, hess: HessianField) -> "HessianPairs":
        """The upper triangle of a hessian field in either representation."""
        rows, cols = cls.components(hess.grid.n)
        return cls(hess.grid, hess.to_physical().data[:, rows, cols])

    def to_hessian(self) -> HessianField:
        """The full physical hessian; component (j, i) is a copy of (i, j)."""
        return HessianField(self.grid, self.data[:, self.slot_index(self.grid.n)], PHYSICAL)

    @classmethod
    def contraction(cls, entries: np.ndarray) -> np.ndarray:
        """The (N, N, n(n+1)/2) matrix of Z -> A : Z on packed symmetric Z, from entries (N, N, n, n).

        Slot (i, j) holds A[..., i, j], plus A[..., j, i] when i < j.
        """
        rows, cols = cls.components(entries.shape[-1])
        return entries[:, :, rows, cols] + np.where(rows < cols, entries[:, :, cols, rows], 0.0)


HALF_SPECTRUM_CACHE_SIZE = 4


@dataclass(frozen=True, eq=False)
class HalfSpectrum:
    """The rfftn half spectrum of one grid and its grid-only multipliers.

    Arrays are read-only and shaped ``shape`` = (M, ..., M, M/2 + 1), except
    ``hessian``, which stacks the multipliers of the n(n+1)/2 distinct pairs
    (i, j), i <= j, in the slot order of :class:`HessianPairs`.  Coefficients of
    an (N,)-component field have shape (N,) + shape.
    """

    grid: GridSpec
    shape: tuple[int, ...]
    zsq: np.ndarray
    gauge: np.ndarray
    weights: np.ndarray
    hessian: np.ndarray

    @property
    def axes(self) -> tuple[int, ...]:
        return _grid_axes(self.grid)

    def restrict(self, full: np.ndarray) -> np.ndarray:
        """Hermitian part of a real full-grid multiplier (..., M, ..., M) on the half spectrum."""
        return _hermitian_half(full, self.grid)

    def forward(self, data: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients of real data (..., M, ..., M)."""
        return scipy.fft.rfftn(data, axes=self.axes, norm="forward")

    def inverse(self, coef: np.ndarray) -> np.ndarray:
        """Real data (..., M, ..., M) of half-spectrum coefficients."""
        return scipy.fft.irfftn(coef, s=self.grid.shape, axes=self.axes, norm="forward")

    def coefficients(self, u: VectorField) -> np.ndarray:
        """Half-spectrum coefficients of a field in either representation."""
        return self.forward(u.to_physical().data)

    def norm(self, coef: np.ndarray) -> float:
        """L2 norm of the real field with these coefficients (Plancherel)."""
        power = self.weights * (coef.real**2 + coef.imag**2)
        return float(np.sqrt(self.grid.volume * power.sum()))

    def work_buffer(self) -> np.ndarray:
        """A fresh complex (N, n(n+1)/2) + shape buffer for :meth:`hessian_pairs`."""
        return np.empty((self.grid.N, len(self.hessian)) + self.shape, dtype=complex)

    def hessian_pairs(self, coef: np.ndarray, work: np.ndarray | None = None) -> HessianPairs:
        """Packed physical hessian of the field with coefficients (N,) + shape.

        One irfftn of the n(n+1)/2 distinct components, in packed order; the
        (j, i) components are neither transformed nor stored.  The product of
        ``coef`` and the multipliers is written into ``work``, a buffer from
        :meth:`work_buffer` (a fresh one when none is given), and transformed
        from there, so a loop that passes the same buffer on every call
        allocates no product.  The buffer is the only array written; ``coef``
        is not.
        """
        if work is None:
            work = self.work_buffer()
        expected = (self.grid.N, len(self.hessian)) + self.shape
        if work.shape != expected or work.dtype != complex:
            raise InputError(f"hessian work buffer must be complex {expected}, got {work.dtype} {work.shape}")
        np.multiply(coef[:, None], self.hessian, out=work)
        return HessianPairs(self.grid, self.inverse(work))


def _hermitian_half(full: np.ndarray, grid: GridSpec) -> np.ndarray:
    sym = 0.5 * (full + _conjugate_reflect(full, full.ndim - grid.n, grid.n))
    out = np.ascontiguousarray(sym[..., : grid.M // 2 + 1])
    out.setflags(write=False)
    return out


def hessian_multipliers(grid: GridSpec) -> np.ndarray:
    """Full-grid hessian multipliers -(2 pi / L)^2 k_i k_j, (n(n+1)/2, M, ..., M) in packed slot order."""
    freq = grid.freq_axes()
    factor = -((2 * np.pi / grid.L) ** 2)
    return np.stack(
        [np.broadcast_to(factor * freq[i] * freq[j], grid.shape) for i, j in zip(*HessianPairs.components(grid.n))]
    )


@lru_cache(maxsize=HALF_SPECTRUM_CACHE_SIZE)
def half_spectrum(grid: GridSpec) -> HalfSpectrum:
    """The memoized :class:`HalfSpectrum` of ``grid``."""
    M = grid.M
    shape = grid.shape[:-1] + (M // 2 + 1,)
    weights = np.full(shape, 2.0)
    weights[..., 0] = weights[..., M // 2] = 1.0
    zsq = np.ascontiguousarray(grid.zsq()[..., : M // 2 + 1])
    gauge = zsq > 0
    for arr in (weights, zsq, gauge):
        arr.setflags(write=False)
    return HalfSpectrum(grid, shape, zsq, gauge, weights, _hermitian_half(hessian_multipliers(grid), grid))


def forward_transform(u: VectorField) -> VectorField:
    """Physical to spectral; errors if already spectral."""
    if not u.is_physical():
        raise InputError("forward transform expects a physical-representation field")
    return u.to_spectral()


def inverse_transform(u: VectorField) -> VectorField:
    """Spectral to physical; errors if already physical."""
    if u.is_physical():
        raise InputError("inverse transform expects a spectral-representation field")
    return u.to_physical()


def conjugate_symmetry_error(u: VectorField) -> float:
    """Relative deviation from c(-k) = conj(c(k)); zero for transforms of real fields."""
    coef = u.to_spectral().data
    scale = np.abs(coef).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(coef - _conjugate_reflect(coef, 1, u.grid.n)).max() / scale)


def spectral_hessian(u: VectorField, representation: str = PHYSICAL) -> HessianField:
    """All second derivatives of ``u`` via the diagonal frequency multiplier.

    Component (alpha, i, j) has coefficients c_alpha(k) (2 pi i k_i / L)
    (2 pi i k_j / L).  A physical output takes the real path: one rfftn of the
    physical ``u`` and one irfftn of the n(n+1)/2 distinct components, with
    the hermitian multipliers of :class:`HalfSpectrum`.  A spectral output is
    the full complex product, whose physical form is the real part and agrees
    with the real path.
    """
    g = u.grid
    if representation == PHYSICAL:
        half = half_spectrum(g)
        return half.hessian_pairs(half.coefficients(u)).to_hessian()
    if representation != SPECTRAL:
        raise InputError(f"unknown representation {representation!r}")
    packed = u.to_spectral().data[:, None] * hessian_multipliers(g)
    return HessianField(g, packed[:, HessianPairs.slot_index(g.n)], SPECTRAL)


def apply_gradient(u: VectorField) -> np.ndarray:
    """Physical gradient array of shape (N, n, M, ..., M); diagnostic use only."""
    g = u.grid
    freq = np.stack(np.broadcast_arrays(*g.freq_axes()))
    coef = u.to_spectral().data[:, None] * ((2j * np.pi / g.L) * freq)
    return scipy.fft.ifftn(coef, axes=_grid_axes(g), norm="forward", overwrite_x=True).real


def l2_norm(field) -> float:
    """Discrete L2 norm; identical value in either representation (Plancherel)."""
    g = field.grid
    if field.is_physical():
        return float(np.sqrt(g.cell_volume * (field.data**2).sum()))
    return float(np.sqrt(g.volume * (np.abs(field.data) ** 2).sum()))


def lp_norm(values: np.ndarray, grid: GridSpec, p: float, component_axes: int) -> float:
    """Power-sum quadrature norm of the pointwise euclidean magnitude.

    ``values`` has ``component_axes`` leading component axes followed by the
    grid axes; the magnitude is taken over the components first.
    """
    comp = tuple(range(component_axes))
    magnitude_sq = (values**2).sum(axis=comp)
    return float((grid.cell_volume * magnitude_sq ** (p / 2.0)).sum() ** (1.0 / p))


@dataclass(frozen=True)
class NormReport:
    """Discrete norms entering the solution-space estimates.

    The mixed-exponent pieces only make sense for n >= 5 (exponents
    2n/(n-2) and 2n/(n-4)); below that they are None and ``w22star`` reduces
    to the hessian seminorm, which on the torus controls everything anyway.
    """

    l2: float
    grad_l2star_surrogate: float | None
    u_l2starstar_surrogate: float | None
    w22star: float


def sobolev_exponents(n: int) -> tuple[float, float]:
    """(2*, 2**) = (2n/(n-2), 2n/(n-4)); only meaningful for n >= 5."""
    if n < 5:
        raise InputError(f"mixed-exponent norms need n >= 5, got n={n}")
    return 2.0 * n / (n - 2.0), 2.0 * n / (n - 4.0)


def w22star_norms(u: VectorField) -> NormReport:
    """Norm report for a vector field: L2, and for n >= 5 the mixed-exponent surrogates."""
    g = u.grid
    phys = u.to_physical()
    hess = spectral_hessian(u, PHYSICAL)
    hess_l2 = l2_norm(hess)
    if g.n < 5:
        return NormReport(
            l2=l2_norm(phys),
            grad_l2star_surrogate=None,
            u_l2starstar_surrogate=None,
            w22star=hess_l2,
        )
    two_star, two_star_star = sobolev_exponents(g.n)
    grad = apply_gradient(u)
    grad_norm = lp_norm(grad, g, two_star, component_axes=2)
    u_norm = lp_norm(phys.data, g, two_star_star, component_axes=1)
    return NormReport(
        l2=l2_norm(phys),
        grad_l2star_surrogate=grad_norm,
        u_l2starstar_surrogate=u_norm,
        w22star=u_norm + grad_norm + hess_l2,
    )


def _conjugate_reflect(coef: np.ndarray, n_axes_offset: int, n: int) -> np.ndarray:
    out = np.conj(coef)
    for ax in range(n_axes_offset, n_axes_offset + n):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def band_limited_coefficients(grid: GridSpec, band: int, seed: int) -> np.ndarray:
    """Full-grid coefficients (N, M, ..., M) of :func:`random_band_limited`.

    They are exactly hermitian, c(-k) = conj(c(k)), and vanish at k = 0 and
    outside max_i |k_i| <= band < M/2, so ``[..., :M//2 + 1]`` is the field's
    half spectrum, Nyquist planes included.
    """
    if band < 0 or band >= grid.M // 2:
        raise InputError(f"band must satisfy 0 <= band < M/2 = {grid.M // 2}, got {band}")
    rng = np.random.default_rng(seed)
    shape = (grid.N,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = np.ones(grid.shape, dtype=bool)
    for ka in grid.freq_axes():
        mask &= np.abs(ka) <= band
    coef = np.where(mask, raw, 0.0)
    coef = 0.5 * (coef + _conjugate_reflect(coef, 1, grid.n))
    zero = (slice(None),) + (0,) * grid.n
    coef[zero] = 0.0
    return coef


def random_band_limited(grid: GridSpec, band: int, seed: int) -> VectorField:
    """Seeded real zero-mean field with spectral support in max_i |k_i| <= band."""
    return VectorField(grid, band_limited_coefficients(grid, band, seed), SPECTRAL).to_physical()


_MAGIC = b"NEFIELD1"
_KINDS = {"vector": 0, "hessian": 1}
_REPS = {PHYSICAL: 0, SPECTRAL: 1}
_HEADER = struct.Struct("<8siiidBB")


def save_field(path, field) -> None:
    """Write a field as flat binary: fixed header, then the raw C-order payload."""
    kind = "hessian" if isinstance(field, HessianField) else "vector"
    g = field.grid
    header = _HEADER.pack(
        _MAGIC, g.n, g.N, g.M, g.L, _REPS[field.representation], _KINDS[kind]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.data).tobytes())


def load_field(path):
    """Read a field written by :func:`save_field`.

    A missing or unreadable file, a short, truncated or padded one, an
    unknown code, a header that does not fit the payload and a non-finite
    payload all raise InputError.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read the field file: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise InputError(f"not a field file: {len(raw)} bytes, shorter than the header")
    magic, n, N, M, L, rep_code, kind_code = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise InputError(f"not a field file: bad magic {magic!r}")
    rep = {v: k for k, v in _REPS.items()}.get(rep_code)
    kind = {v: k for k, v in _KINDS.items()}.get(kind_code)
    if rep is None or kind is None:
        raise InputError(f"unknown representation or kind code ({rep_code}, {kind_code})")
    dtype = np.dtype(np.float64 if rep == PHYSICAL else np.complex128)
    payload_bytes = len(raw) - _HEADER.size
    # the payload holds at least M**n values, which bounds n before the grid
    # computes M**n: a corrupt header can carry n near 2**31
    if M >= 4 and n > math.log(max(payload_bytes // dtype.itemsize, 1)) / math.log(M):
        raise InputError(f"header grid n={n}, M={M} does not fit a {payload_bytes}-byte payload")
    grid = GridSpec(n=n, N=N, M=M, L=L)
    shape = ((N,) if kind == "vector" else (N, n, n)) + grid.shape
    expected = dtype.itemsize * math.prod(shape)
    if payload_bytes != expected:
        raise InputError(f"payload has {payload_bytes} bytes, the header needs {expected}")
    payload = np.frombuffer(raw, dtype=dtype, offset=_HEADER.size).reshape(shape)
    if not np.all(np.isfinite(payload)):
        raise InputError("field file has non-finite values")
    cls = VectorField if kind == "vector" else HessianField
    return cls(grid, payload.copy(), rep)


def csv_slice(field: VectorField, path) -> None:
    """Write a plotting slice as CSV: the (x1, x2) plane of component 0 at zero in the other axes."""
    phys = field.to_physical()
    g = field.grid
    block = phys.data[(0,) + (slice(None), slice(None)) + (0,) * (g.n - 2)]
    x = np.arange(g.M) * g.spacing
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,value\n")
        for i in range(g.M):
            for j in range(g.M):
                fh.write(f"{float(x[i])!r},{float(x[j])!r},{float(block[i, j])!r}\n")
