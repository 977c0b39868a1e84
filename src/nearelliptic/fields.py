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

Every transform has the scaling of ``norm="forward"`` and runs on one
worker: the forward transform is divided by M^n and the inverse left
unscaled, so that one normalization holds on the full grid (``fftn`` and
the real part of ``ifftn``) and on the half spectrum alike.  Every
transform is a ``scipy.fft`` call but the last-axis real pair of the half
spectrum, ``numpy.fft.rfft`` in :meth:`HalfSpectrum.forward` and
``numpy.fft.irfft`` in :meth:`HalfSpectrum.hessian_pairs`: since numpy 2.0
these take an ``out`` array, which scipy's do not, so a loop can write
every step into the same arrays.  Both libraries run pocketfft, and these
two give scipy's bytes: ``irfft`` those of ``scipy.fft.irfft``, and the
unscaled ``rfft``, then one multiply by 1/M^n, those of ``scipy.fft.rfftn``,
which scales in its first pass.  The complex transforms of the leading
axes stay scipy's, in place: numpy's strided ones were slower at n = 3.
``overwrite_x`` lets scipy's own backend transform in place, but it is a
permission, not a promise: a backend set by ``scipy.fft.set_backend`` may
return a new array, which ``forward`` copies into its ``out`` and
``hessian_pairs`` takes as the next pass's input.

Half spectrum.  The solvers work on real fields, whose coefficients satisfy
c(-k) = conj(c(k)), so they keep only the ``rfftn`` half spectrum: the last
axis holds k_n = 0, ..., M/2 (shape (M, ..., M, M/2 + 1)).  Norms follow
from Plancherel with weight 1 on the k_n = 0 and k_n = M/2 planes, whose
conjugate partners lie in the half spectrum, and weight 2 elsewhere.
:class:`HalfSpectrum` holds this layout for one grid, its |z|^2 and
4 pi^2 |z|^2, and the n(n+1)/2 distinct hessian multipliers;
:func:`half_spectrum` memoizes it.

:meth:`HalfSpectrum.coefficients` returns read-only coefficients.  A field
made from its half spectrum (:meth:`HalfSpectrum.physical_field`, which
builds the outputs of ``apply_operator``, ``solve_linear`` and
``campanato_solve``) keeps that spectrum from birth, so no request for it
makes a transform.  A field transformed on request keeps its coefficients
from the second request: that request transforms the field and stores the
result on it, and every later one returns that array with no transform.
The first request keeps nothing, so a field transformed once costs no
memory, and a reused field costs about one more copy of its data (the
complex half spectrum).  :meth:`VectorField.require_finite` scans a field
once: a field that passes is marked, and later checks skip the scan; one
that fails is scanned again on every call.  Only a field whose ``data``
owns its memory keeps a spectrum or a finite mark: a field built on a view
may alias a buffer that its caller can still write.  Both marks trust the
field's frozen data.  A field built on its caller's own contiguous array
freezes that array in place; a caller who makes it writable again and
writes into it voids both marks.

A loop that takes many hessians of one grid gives
:meth:`HalfSpectrum.hessian_pairs` one work buffer
(:meth:`HalfSpectrum.work_buffer`, complex (n(n+1)/2,) + shape, the slots
of one component) and one real output array (N, n(n+1)/2, M, ..., M).
Each call transforms the N components in turn: it overwrites the buffer
with the product of one component's coefficients and the multipliers,
transforms its leading axes in place, one ``ifft`` per axis, and writes
one ``irfft`` of the last axis into that component's contiguous row of
the output.  So the loop allocates neither array once per hessian, and no
complex intermediate (``scipy.fft``'s multi-axis ``irfftn`` would allocate
one as large as the product of every component), and the buffer is half
the size of the real hessian it produces.  The steps are those of
``irfftn``, which pocketfft makes line by line whatever the batch, and the
result is the same bit for bit.  :meth:`HalfSpectrum.forward` likewise
writes into a given ``out``.  The buffer and the outputs are the only
arrays a call overwrites; the caller's coefficients and the inputs of
``forward`` and ``inverse`` are left as they were.

Every hessian multiplier comes from the one frequency table
:func:`hessian_multipliers`: the half spectrum's ``hessian`` is its
hermitian part, and the linear solver's plan is built from that alone.

Random fields.  :func:`band_limited_coefficients` builds the exactly
hermitian coefficients of a seeded band-limited field, and
:func:`random_band_limited` is their physical field; both draw over the
whole grid and mask the band.  A caller that needs many fields only through
their derivatives, such as the stability admission, uses
:func:`_band_half_spectra` instead: one seeded generator draws only the
band's half spectrum of every field, folded to the same law, and each field
is scattered into one reused half-spectrum buffer, so no draw falls outside
the band and nothing is transformed to physical space and back.

Packed hessian.  The hessian is symmetric in (i, j), so the package keeps only
its n(n+1)/2 distinct components (i, j), i <= j, in row-major order: a
:class:`HessianPairs` field, data (N, n(n+1)/2, M, ..., M), is the one hessian
every function takes and returns.  A sum over all n^2 components counts each
off-diagonal slot twice, and :meth:`HessianPairs.contraction` folds a tensor
A into the packed slots.  The n^2 :class:`HessianField` is only the layout of
a hessian file, which :func:`save_field` expands to and :func:`load_field` packs.

Nyquist planes.  The mixed multiplier k_i k_j (i != j) is odd in k_i on the
Nyquist plane k_i = -M/2, where -k mod M is k again, so the full-spectrum
product is not conjugate-symmetric there and the physical field is its real
part.  A real multiplier m is therefore applied to the half spectrum as its
hermitian part (m(k) + m(kbar)) / 2, kbar = -k mod M in fft layout (the
Nyquist value is -M/2 on every axis, the last rfft axis included); this is
exactly what taking the real part of the full complex inverse transform
does, so both paths solve the same discrete problem.  Away from the Nyquist
planes m(kbar) = m(k) and the multiplier is unchanged.  The linear
solver's plan builds its operator from these hermitian parts and inverts
that operator, so its solve inverts exactly what its ``apply`` applies.
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

# the one memory budget: GridSpec's guard and the nu search (tensors.ellipticity_constant) read it at call time
_DEFAULT_BUDGET = 2 * 1024**3  # bytes

# decades a grid's volumes and hessian multipliers may span on either side of 1
SCALE_DECADES = 100

# relative asymmetry taken as round-off: a tensor's constructor repairs it, a hessian may carry it; more is an error
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: n axes, M points each, period L, N field components.

    A grid whose n^2 physical hessian, ``8 N n^2 M^n`` bytes, exceeds the
    module budget ``_DEFAULT_BUDGET`` is refused.  That array is the layout
    of a hessian field file, which only :func:`load_field` reads in full; no
    compute path builds it.  Not counted are the two complex (N, N) stacks
    of each cached spectral plan of the grid, 2 N^2 |half| 16 bytes,
    |half| = M^(n-1) (M/2 + 1) frequencies, the cached half spectrum's
    complex hessian multipliers, 16 S |half| bytes, S = n(n+1)/2, and the
    arrays each call of the near-operator iteration (``campanato_solve``,
    and every inner solve of the stability loop) allocates for itself: the
    complex hessian work buffer, one component's slots, 16 S |half| bytes;
    the real packed hessian, 8 N S M^n; F and F - f, 8 N M^n each (alpha
    (F - f) is formed in the second); two coefficient buffers, 16 N |half|
    each; and, per step, the new coefficients (16 N |half|) and the
    temporaries of evaluating F.
    """

    n: int
    N: int
    M: int
    L: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"spatial dimension must be >= 2, got {self.n}")
        if self.N < 2:
            raise InputError(f"target dimension must be >= 2, got {self.N}")
        if self.M < 4 or self.M % 2 != 0:
            raise InputError(f"points per axis must be even and >= 4, got {self.M}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise InputError(f"period must be finite and positive, got {self.L}")
        # logarithms first: past the budget, M^n may be too large to form, and its byte count to print
        over = self.n > math.log(max(_DEFAULT_BUDGET, 1), self.M)
        if over or 8 * self.N * self.n**2 * self.M**self.n > _DEFAULT_BUDGET:
            raise InputError(
                f"the hessian of a grid with n={self.n}, N={self.N}, M={self.M} exceeds the memory budget "
                f"{_DEFAULT_BUDGET} bytes"
            )
        # norms weigh by the volumes L^n and (L/M)^n, and the solvers by the hessian multipliers
        # (2 pi k / L)^2, 1 <= |k| <= M/2: each stays within 1e+-SCALE_DECADES, so their products stay finite
        log_L, log_M = math.log10(self.L), math.log10(self.M)
        log_k = math.log10(2 * math.pi) - log_L
        decades = (self.n * log_L, self.n * (log_L - log_M), 2 * log_k, 2 * (log_k + log_M))
        if max(map(abs, decades)) > SCALE_DECADES:
            raise InputError(
                f"period L={self.L} with n={self.n}, M={self.M} puts a grid volume or hessian multiplier "
                f"beyond 1e+-{SCALE_DECADES}"
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


# the attribute of a VectorField set once its data passed require_finite
_FINITE_MARK = "_finite"


def _transformed(field):
    """The field in its other representation: c(k) = fftn(u) / M^n, or the real part of the inverse."""
    axes = _grid_axes(field.grid)
    if field.is_physical():
        return type(field)(field.grid, scipy.fft.fftn(field.data, axes=axes, norm="forward"), SPECTRAL)
    return type(field)(field.grid, scipy.fft.ifftn(field.data, axes=axes, norm="forward").real, PHYSICAL)


def _combined(field, other, op):
    """``op`` of the data of two vector fields of one grid and representation."""
    if not isinstance(other, VectorField):
        return NotImplemented
    if other.grid != field.grid or other.representation != field.representation:
        raise InputError("field operands must share grid and representation")
    return VectorField(field.grid, op(field.data, other.data), field.representation)


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
        """Return the field; raise InputError naming ``what`` if any value is NaN or infinite.

        A field whose ``data`` owns its memory is marked when it passes, and
        later calls return it without a scan; a field that fails, or whose
        data is a view, is scanned on every call.
        """
        if _FINITE_MARK in vars(self):
            return self
        if not np.all(np.isfinite(self.data)):
            raise InputError(f"{what} has non-finite values")
        if self.data.flags.owndata:
            object.__setattr__(self, _FINITE_MARK, True)
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
    """The n^2 layout (alpha, i, j) of a hessian field file, read only by :func:`load_field`."""

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
    @cache
    def multiplicity(n: int) -> np.ndarray:
        """Components per slot: 1 on the diagonal, 2 off it ((i, j) and (j, i)).

        Built once per n; the array is read-only.
        """
        rows, cols = HessianPairs.components(n)
        counts = np.where(rows == cols, 1.0, 2.0)
        counts.setflags(write=False)
        return counts

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
    def contraction(cls, entries: np.ndarray) -> np.ndarray:
        """The (N, N, n(n+1)/2) matrix of Z -> A : Z on packed symmetric Z, from entries (N, N, n, n).

        Slot (i, j) holds A[..., i, j], plus A[..., j, i] when i < j.
        """
        rows, cols = cls.components(entries.shape[-1])
        return entries[:, :, rows, cols] + np.where(rows < cols, entries[:, :, cols, rows], 0.0)


def _power(data: np.ndarray) -> float:
    """The sum of |x|^2 over float64 or complex128 ``data``: one real ``dot`` of its float64 view.

    A ``dot`` past the float range is summed again elementwise, where
    numpy's floating-point error state sees the overflow; it is then inf.
    """
    flat = data.reshape(-1).view(np.float64)  # a view of contiguous data, a copy otherwise
    power = np.dot(flat, flat)
    return power if math.isfinite(power) else np.square(flat).sum()


HALF_SPECTRUM_CACHE_SIZE = 4

# the attribute of a VectorField that holds its kept half spectrum (None after one transform on request)
_KEPT_SPECTRUM = "_half_spectrum"


@dataclass(frozen=True, eq=False)
class HalfSpectrum:
    """The rfftn half spectrum of one grid and its grid-only multipliers.

    Arrays are read-only and shaped ``shape`` = (M, ..., M, M/2 + 1), except
    ``hessian``, which stacks the multipliers of the n(n+1)/2 distinct pairs
    (i, j), i <= j, in the slot order of :class:`HessianPairs`.  ``laplacian``
    is 4 pi^2 |z|^2, the symbol of -Delta and the Frobenius norm of the
    hessian multiplier at each frequency.  The gauge mode k = 0 is flat
    index 0.  Coefficients of an (N,)-component field have shape (N,) +
    shape.  ``hessian`` is real but stored as complex128 with imaginary
    parts exactly 0, the dtype of the coefficients it multiplies: numpy
    would otherwise cast it through a buffer on every multiply, and the
    products are the same bit for bit.  It takes 16 S |half| bytes, S =
    n(n+1)/2, twice a real table: about 0.8 MiB more at n = 3, M = 32.
    The linear solver's plan contracts its ``real`` part.
    """

    grid: GridSpec
    shape: tuple[int, ...]
    zsq: np.ndarray
    laplacian: np.ndarray
    hessian: np.ndarray

    @property
    def axes(self) -> tuple[int, ...]:
        return _grid_axes(self.grid)

    def forward(self, data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half-spectrum coefficients of real data (..., M, ..., M), written into ``out`` when given.

        ``out`` is a complex array of shape (...) + ``shape``, a fresh one
        when none is given, and is returned.  One ``numpy.fft.rfft`` of the
        last axis writes into it unscaled, one multiply scales it by 1/M^n,
        and one unscaled ``scipy.fft.fft`` per leading grid axis, in
        ascending order, transforms it in place.  These are the steps of
        ``scipy.fft.rfftn(data, norm="forward")``, which scales in its first
        pass, and the result is the same bit for bit at every M.  ``data``
        is not written.  ``overwrite_x`` only lets a scipy.fft backend reuse
        its input; one that returns a new array (a user-set backend may) has
        its result copied into ``out``.
        """
        if out is None:
            out = np.empty(data.shape[:-1] + self.shape[-1:], dtype=complex)
        np.fft.rfft(data, axis=-1, out=out)
        out *= 1.0 / self.grid.points
        for axis in self.axes[:-1]:
            res = scipy.fft.fft(out, axis=axis, overwrite_x=True)
            if not np.may_share_memory(res, out):
                out[...] = res
        return out

    def inverse(self, coef: np.ndarray) -> np.ndarray:
        """Real data (..., M, ..., M) of half-spectrum coefficients, by ``irfftn``, which leaves them as they were."""
        return scipy.fft.irfftn(coef, s=self.grid.shape, axes=self.axes, norm="forward")

    def coefficients(self, u: VectorField) -> np.ndarray:
        """Read-only half-spectrum coefficients of a field of this grid, in either representation.

        A field made by :meth:`physical_field` keeps its coefficients from
        birth.  Any other field keeps them from the second request on, so
        later requests make no transform; the first keeps nothing.  A field
        whose ``data`` does not own its memory (a view, whose base its caller
        may still write) keeps nothing ever.  The kept coefficients trust
        the field's frozen data (see the module notes).
        """
        if u.grid != self.grid:
            raise InputError(f"field grid {u.grid} does not match the half spectrum's grid {self.grid}")
        kept = vars(u).get(_KEPT_SPECTRUM)
        if kept is not None:
            return kept
        coef = self.forward(u.to_physical().data)
        coef.setflags(write=False)
        if u.data.flags.owndata:
            # the first request leaves a mark (None), the second keeps the coefficients
            object.__setattr__(u, _KEPT_SPECTRUM, coef if _KEPT_SPECTRUM in vars(u) else None)
        return coef

    def physical_field(self, coef: np.ndarray) -> VectorField:
        """The physical field of half-spectrum coefficients (N,) + ``shape``, keeping them from birth.

        The field's data is ``inverse(coef)``, and :meth:`coefficients`
        returns ``coef`` for it with no transform.  The field takes ``coef``
        over: it is made read-only in place (copied first when it is a view),
        so the caller must not write it again.
        """
        expected = (self.grid.N,) + self.shape
        if coef.shape != expected or coef.dtype != complex:
            raise InputError(f"half-spectrum coefficients must be complex {expected}, got {coef.dtype} {coef.shape}")
        if not coef.flags.owndata:
            coef = coef.copy()
        coef.setflags(write=False)
        u = VectorField(self.grid, self.inverse(coef), PHYSICAL)
        object.__setattr__(u, _KEPT_SPECTRUM, coef)
        return u

    def norm(self, coef: np.ndarray) -> float:
        """L2 norm of the real field with these coefficients (Plancherel).

        Twice the power of every coefficient, less that of the two weight-1
        planes k_n = 0 and k_n = M/2.  Each power is one real ``dot`` of the
        float64 view of the coefficients (of a contiguous copy, for the two
        planes), no slower than the complex ``vdot`` and faster at n=3.  A
        power past the float range is inf (see :func:`_power`), and so is
        the norm.
        """
        power = _power(coef)
        if math.isfinite(power):
            power = 2.0 * power - _power(coef[..., :: self.grid.M // 2])
        return float(np.sqrt(self.grid.volume * power))

    def work_buffer(self) -> np.ndarray:
        """A fresh complex (n(n+1)/2,) + shape buffer for :meth:`hessian_pairs`: one component's slots."""
        return np.empty(self.hessian.shape, dtype=complex)

    def hessian_pairs(
        self, coef: np.ndarray, work: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> HessianPairs:
        """Packed physical hessian of the field with coefficients (N,) + shape.

        The inverse transform of the n(n+1)/2 distinct components, in packed
        order; the (j, i) components are neither transformed nor stored.  The
        field components are transformed one at a time in ``work``, a buffer
        from :meth:`work_buffer` (a fresh one when none is given): for each
        alpha, the product of ``coef[alpha]`` and the multipliers is written
        into it, its leading grid axes are transformed there in place, one
        ``scipy.fft`` ``ifft`` per axis, and one ``numpy.fft.irfft`` of the
        last axis writes the real hessian of that component into the
        contiguous row ``out[alpha]`` of ``out``, a float (N, n(n+1)/2, M,
        ..., M) array (a fresh one when none is given).  pocketfft
        transforms a batch line by line, so this is ``irfftn`` of the
        product of all N components bit for bit, without its complex
        intermediate, and a loop that passes the same two buffers on every
        call allocates no array of the grid's size.  With ``out``, the
        returned field is a read-only view of it, which leaves ``out``
        writable for the caller's next call: that call overwrites the field.
        ``work`` and ``out`` are the only arrays written; ``coef`` is not.
        Coefficients or a work buffer of the wrong shape are an InputError.
        """
        expected = (self.grid.N,) + self.shape
        if coef.shape != expected:
            raise InputError(f"half-spectrum coefficients must have shape {expected}, got {coef.shape}")
        if work is None:
            work = self.work_buffer()
        if work.shape != self.hessian.shape or work.dtype != complex:
            raise InputError(f"hessian work buffer must be complex {self.hessian.shape}, got {work.dtype} {work.shape}")
        fresh = out is None
        if fresh:
            out = np.empty((self.grid.N, len(self.hessian)) + self.grid.shape)
        for component, row in zip(coef, out, strict=True):
            np.multiply(component, self.hessian, out=work)
            product = work
            for axis in self.axes[:-1]:
                product = scipy.fft.ifft(product, axis=axis, norm="forward", overwrite_x=True)
            np.fft.irfft(product, n=self.grid.M, axis=-1, norm="forward", out=row)
        return HessianPairs(self.grid, out if fresh else out[...])


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
    zsq = np.ascontiguousarray(grid.zsq()[..., : M // 2 + 1])
    laplacian = 4 * np.pi**2 * zsq
    # the hermitian part (m(k) + m(kbar)) / 2 of each full-grid multiplier
    full = hessian_multipliers(grid)
    # complex, as the coefficients it multiplies are, with imaginary parts exactly 0 (see HalfSpectrum)
    hessian = (0.5 * (full + _conjugate_reflect(full, 1, grid.n)))[..., : M // 2 + 1].astype(complex)
    for arr in (zsq, laplacian, hessian):
        arr.setflags(write=False)
    return HalfSpectrum(grid, shape, zsq, laplacian, hessian)


def spectral_hessian(u: VectorField, representation: str = PHYSICAL) -> HessianPairs:
    """The packed physical hessian of ``u``, a field in either representation (:meth:`HalfSpectrum.hessian_pairs`).

    Component (alpha, i, j) has coefficients c_alpha(k) (2 pi i k_i / L)
    (2 pi i k_j / L), with the hermitian multipliers of :class:`HalfSpectrum`.
    ``representation``, kept for callers that pass it (perfbench's set-up), must be ``PHYSICAL``.
    """
    if representation != PHYSICAL:
        raise InputError(f"the hessian is physical, got representation {representation!r}")
    half = half_spectrum(u.grid)
    return half.hessian_pairs(half.coefficients(u))


def apply_gradient(u: VectorField) -> np.ndarray:
    """Physical gradient array of shape (N, n, M, ..., M); diagnostic use only."""
    g = u.grid
    freq = np.stack(np.broadcast_arrays(*g.freq_axes()))
    coef = u.to_spectral().data[:, None] * ((2j * np.pi / g.L) * freq)
    return scipy.fft.ifftn(coef, axes=_grid_axes(g), norm="forward", overwrite_x=True).real


def l2_norm(field) -> float:
    """Discrete L2 norm; identical value in either representation (Plancherel)."""
    g = field.grid
    return _l2(field.data, g.cell_volume if field.is_physical() else g.volume)


def _l2(data: np.ndarray, volume: float) -> float:
    """sqrt(volume sum |data|^2), the L2 norm of a field's data with quadrature weight ``volume``.

    The power is :func:`_power`'s: past the float range it is inf, and
    numpy's floating-point error state sees the overflow.
    """
    return float(np.sqrt(volume * _power(data)))


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
    """The paper's W^{2,2*} energy norm of a vector field, with its L2 norm and, for n >= 5, its mixed-exponent pieces.

    No solver calls it; it is the norm of the paper's solution space, kept for users.
    """
    g = u.grid
    phys = u.to_physical()
    half = half_spectrum(g)
    hess_l2 = half.hessian_pairs(half.coefficients(u)).norm()
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


def _check_band(grid: GridSpec, band: int) -> None:
    if band < 0 or band >= grid.M // 2:
        raise InputError(f"band must satisfy 0 <= band < M/2 = {grid.M // 2}, got {band}")


def band_limited_coefficients(grid: GridSpec, band: int, seed: int) -> np.ndarray:
    """Full-grid coefficients (N, M, ..., M) of :func:`random_band_limited`.

    They are exactly hermitian, c(-k) = conj(c(k)), and vanish at k = 0 and
    outside max_i |k_i| <= band < M/2, so ``[..., :M//2 + 1]`` is the field's
    half spectrum, Nyquist planes included.
    """
    _check_band(grid, band)
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


def _band_half_spectra(grid: GridSpec, band: int, count: int, seed: int):
    """Half-spectrum coefficients (N,) + ``half_spectrum(grid).shape`` of ``count`` seeded band-limited fields.

    The law is that of :func:`band_limited_coefficients`: zero mean, support
    in max_i |k_i| <= band < M/2, and, for k != 0, real and imaginary parts
    of variance 1/2 each, independent up to c(-k) = conj(c(k)).  Only the
    band is drawn: for each field in turn, one generator draws an (N,) +
    (2 band + 1,)^(n-1) + (band + 1,) block of complex normals, real parts
    then imaginary; its leading axes hold k_i in fft order (0, ..., band,
    -band, ..., -1), the last k_n = 0, ..., band.  The k_n = 0 plane is
    folded to its exactly hermitian part (r(k) + conj(r(-k)))/2, the rest
    scaled by sqrt(1/2).  The fields are different samples from those of
    :func:`band_limited_coefficients` at any seed.

    The band is checked at the call.  The returned iterator draws each field
    when it is reached and scatters it into one buffer, zero outside the
    band, that it yields for every field and overwrites with the next one;
    so only one field's draws are held at a time, which keeps every
    allocation small.
    """
    _check_band(grid, band)
    rng = np.random.default_rng(seed)
    n, M = grid.n, grid.M
    shape = (grid.N,) + (2 * band + 1,) * (n - 1) + (band + 1,)
    k = np.r_[0 : band + 1, M - band : M]
    band_index = (slice(None),) + np.ix_(*[k] * (n - 1)) + (slice(0, band + 1),)
    out = np.zeros((grid.N,) + half_spectrum(grid).shape, dtype=complex)

    def scattered():
        for _ in range(count):
            coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            plane = coef[..., 0]
            plane[...] = 0.5 * (plane + _conjugate_reflect(plane, 1, n - 1))
            coef[..., 1:] *= math.sqrt(0.5)
            coef[(slice(None),) + (0,) * n] = 0.0
            out[band_index] = coef
            yield out

    return scattered()


_MAGIC = b"NEFIELD1"
_KINDS = {"vector": 0, "hessian": 1}
_REPS = {PHYSICAL: 0, SPECTRAL: 1}
_HEADER = struct.Struct("<8siiidBB")


def save_field(path, field: VectorField | HessianPairs) -> None:
    """Write a field as flat binary: fixed header, then the raw C-order payload.

    A :class:`HessianPairs` is written as a physical hessian file (kind 1) in
    the n^2 layout (N, n, n) + grid, component (j, i) a copy of (i, j).
    """
    g = field.grid
    if isinstance(field, HessianPairs):
        kind, rep, data = "hessian", PHYSICAL, field.data[:, HessianPairs.slot_index(g.n)]
    else:
        kind, rep, data = "vector", field.representation, field.data
    header = _HEADER.pack(_MAGIC, g.n, g.N, g.M, g.L, _REPS[rep], _KINDS[kind])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(data).tobytes())


def load_field(path) -> VectorField | HessianPairs:
    """Read a field written by :func:`save_field`: a :class:`VectorField`, or the :class:`HessianPairs` of a hessian file.

    A hessian file in either representation is read as its physical n^2
    hessian, whose (i, j) and (j, i) must agree to ``SYMMETRY_TOL`` times
    max(1, its largest entry).  A missing or unreadable file, a short,
    truncated or padded one, an unknown code, a header that does not fit the
    payload, a non-finite payload and an asymmetric hessian raise InputError.
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
    if kind == "vector":
        return VectorField(grid, payload.copy(), rep)
    full = HessianField(grid, payload.copy(), rep).to_physical().data
    asym = np.abs(full - full.swapaxes(1, 2)).max()
    if asym > SYMMETRY_TOL * max(1.0, np.abs(full).max()):
        raise InputError(f"hessian field file is asymmetric in (i, j) by {asym:.3e}")
    rows, cols = HessianPairs.components(n)
    return HessianPairs(grid, full[:, rows, cols])


def _load_vector_field(path, what: str, grid: GridSpec | None = None) -> VectorField:
    """The vector field of the field file ``path``, on ``grid`` when one is given; InputError naming the file otherwise."""
    field = load_field(path)
    if not isinstance(field, VectorField):
        raise InputError(f"{what} file {str(path)!r} holds a hessian, not a vector field")
    if grid is not None and field.grid != grid:
        raise InputError(f"{what} file {str(path)!r} is on {field.grid}, not on the config's {grid}")
    return field
