"""Constant-coefficient solver A : D^2 u = f by frequency-wise symbol inversion.

Every Fourier mode decouples: with z = k/L and the unit direction d = z/|z|,

    A : u^(k) (x) (2 pi i z) (x) (2 pi i z) = f^(k)
    =>  u^(k) = - (1 / (4 pi^2 |z|^2)) (A : d (x) d)^{-1} f^(k),

where the inverse symbol is cof(S)^T / det(S).  The k = 0 mode is the gauge:
second derivatives annihilate constants, so the solver fixes mean(u) = 0 and
records the dropped mean of f.  The regularized family replaces 1/|z|^2 by
h(z) = 1/(|z|^2 + eps), whose multiplier h(z)|z|^2 stays in [0, 1] and tends
to 1 as eps -> 0, giving a monotone approximation of the exact solve.

Spectral plan.  Everything here that depends on the tensor and the grid is
built once per (tensor, grid) into a :class:`SpectralPlan` and memoized by
:func:`spectral_plan` in a small LRU keyed on the tensor entries and the
grid.  The plan lives on the ``rfftn`` half spectrum of
:class:`~nearelliptic.fields.HalfSpectrum` (gauge mask, |z|^2, hessian
multipliers, Plancherel weights) and adds two (N, N) matrix multipliers:

    solve     -cof(S)^T / (det(S) 4 pi^2 |z|^2)   (0 at k = 0)
    operator  -4 pi^2 |z|^2 S = -4 pi^2 A : z (x) z

with S = A : d (x) d.  Each is stored as its hermitian part
(m(k) + m(kbar)) / 2, which differs from m only on the Nyquist planes (see
the ``fields`` module docstring); this reproduces the real part of the full
complex transform that defines the physical fields.  The degenerate-symbol
check runs when the plan is built, over every nonzero frequency of the full
grid in fft order, so a degenerate tensor raises the same error, at the same
frequency, on every solve through the plan; applying the operator needs no
inverse and works for any tensor.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSymbolError, EstimateBreachError, InputError
from .fields import PHYSICAL, GridSpec, HalfSpectrum, VectorField, half_spectrum
from .tensors import (
    DET_FLOOR_COEF,
    SymTensor4,
    cofactor_transpose,
    ellipticity_constant,
)

MEAN_TOLERANCE = 1e-8
PLAN_CACHE_SIZE = 8


def _flat_freqs(grid: GridSpec) -> np.ndarray:
    """Integer frequency components flattened to (n, M^n) in C order."""
    out = np.empty((grid.n, grid.points))
    for i, ka in enumerate(grid.freq_axes()):
        out[i] = np.broadcast_to(ka, grid.shape).ravel()
    return out


def _unit_symbol_stack(A: SymTensor4, grid: GridSpec):
    """Unit-direction symbols at every nonzero frequency.

    Returns (mask of k != 0, |z|^2 on the mask, stacked symbols (K, N, N)).
    """
    freqs = _flat_freqs(grid)
    zsq = (freqs**2).sum(axis=0) / grid.L**2
    mask = zsq > 0
    z = freqs[:, mask] / grid.L
    unit = z / np.sqrt(zsq[mask])
    S = np.einsum("abij,ik,jk->kab", A.entries, unit, unit)
    return mask, zsq[mask], S


def _degenerate_frequency(A: SymTensor4, grid: GridSpec, S: np.ndarray, mask: np.ndarray, det: np.ndarray):
    """Integer frequency of the first degenerate symbol in fft order, or None."""
    scale = np.sqrt((S**2).sum(axis=(1, 2)))
    floor = DET_FLOOR_COEF * np.maximum(scale, np.finfo(float).tiny) ** A.N
    bad = np.abs(det) < floor
    if not np.any(bad):
        return None
    flat_index = np.flatnonzero(mask)[int(np.argmax(bad))]
    k = np.unravel_index(flat_index, grid.shape)
    return tuple(int(v) for v in np.asarray(grid.integer_freqs())[list(k)])


def _check_dims(A: SymTensor4, grid: GridSpec) -> None:
    if (A.N, A.n) != (grid.N, grid.n):
        raise InputError(f"tensor (N={A.N}, n={A.n}) does not match grid (N={grid.N}, n={grid.n})")


def _matvec(m: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Pointwise (N, N) multiplier times (N,) coefficients on the half spectrum."""
    out = m[:, 0] * coef[0]
    for b in range(1, coef.shape[0]):
        out += m[:, b] * coef[b]
    return out


@dataclass(frozen=True, eq=False)
class SpectralPlan:
    """Half-spectrum multipliers of one (tensor, grid); build with :func:`spectral_plan`.

    ``solve`` and ``operator`` have shape (N, N) + ``half.shape`` and are
    read-only, because cached plans are shared by every caller.  When the
    symbol is singular at some frequency, ``degenerate`` holds that frequency
    and ``solve`` is None: the operator still applies, but :meth:`invert`
    raises DegenerateSymbolError.
    """

    half: HalfSpectrum
    solve: np.ndarray | None
    operator: np.ndarray
    degenerate: tuple[int, ...] | None = None

    def invert(self, coef: np.ndarray) -> np.ndarray:
        """Coefficients of the zero-mean u with A : D^2 u = f - mean(f), from those of f."""
        if self.degenerate is not None:
            raise DegenerateSymbolError(
                f"degenerate symbol at frequency k={self.degenerate}", frequency=self.degenerate
            )
        return _matvec(self.solve, coef)

    def apply(self, coef: np.ndarray) -> np.ndarray:
        """Coefficients of A : D^2 u from those of u."""
        return _matvec(self.operator, coef)


def _build_plan(A: SymTensor4, grid: GridSpec) -> SpectralPlan:
    half = half_spectrum(grid)
    N = grid.N
    full = (N, N) + grid.shape
    z = _flat_freqs(grid) / grid.L
    operator = half.restrict((-4 * np.pi**2 * np.einsum("abij,ik,jk->abk", A.entries, z, z)).reshape(full))
    mask, zsq, S = _unit_symbol_stack(A, grid)
    det = np.linalg.det(S)
    degenerate = _degenerate_frequency(A, grid, S, mask, det)
    if degenerate is not None:
        return SpectralPlan(half, None, operator, degenerate)
    solve = np.zeros((N, N, grid.points))
    solve[:, :, mask] = -np.moveaxis(cofactor_transpose(S), 0, -1) / (det * 4 * np.pi**2 * zsq)
    return SpectralPlan(half, half.restrict(solve.reshape(full)), operator)


_PLANS: OrderedDict = OrderedDict()


def spectral_plan(A: SymTensor4, grid: GridSpec) -> SpectralPlan:
    """The plan of (A, grid), from the LRU of the last ``PLAN_CACHE_SIZE`` plans or built now.

    The degenerate-symbol check runs here, when a plan is built; a plan of
    a singular symbol is cached too and raises on :meth:`SpectralPlan.invert`.
    """
    _check_dims(A, grid)
    key = (A.entries.tobytes(), grid)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _build_plan(A, grid)
        if len(_PLANS) > PLAN_CACHE_SIZE:
            _PLANS.popitem(last=False)
    else:
        _PLANS.move_to_end(key)
    return plan


def apply_operator(A: SymTensor4, u: VectorField) -> VectorField:
    """A : D^2 u, evaluated diagonally in frequency; physical output."""
    u.require_finite("field")
    plan = spectral_plan(A, u.grid)
    half = plan.half
    return VectorField(u.grid, half.inverse(plan.apply(half.coefficients(u))), PHYSICAL)


@dataclass(frozen=True, eq=False)
class LinearSolveResult:
    """Solution plus the per-solve verification numbers."""

    u: VectorField
    residual_l2: float
    hessian_ratio: float
    regularization: str
    dropped_mean: np.ndarray
    nu: float
    rhs_l2: float
    hessian_l2: float
    operator_l2: float
    multiplier_bounds: tuple[float, float]
    multiplier_identity_error: float
    mean_warning: bool

    def report(self) -> dict:
        return {
            "residual_l2": self.residual_l2,
            "hessian_ratio": self.hessian_ratio,
            "regularization": self.regularization,
            "dropped_mean": self.dropped_mean.tolist(),
            "nu": self.nu,
            "rhs_l2": self.rhs_l2,
            "hessian_l2": self.hessian_l2,
            "operator_l2": self.operator_l2,
            "multiplier_bounds": list(self.multiplier_bounds),
            "multiplier_identity_error": self.multiplier_identity_error,
            "mean_warning": self.mean_warning,
        }


def solve_linear(
    A: SymTensor4,
    f: VectorField,
    epsilon: float | None = None,
    nu: float | None = None,
    mean_tolerance: float = MEAN_TOLERANCE,
) -> LinearSolveResult:
    """Invert A : D^2 u = f on the torus, exactly or with the eps-regularized multiplier.

    The k = 0 part of f cannot be matched and is dropped into
    ``dropped_mean`` (with a warning flag when it is large relative to
    ``||f||``); the solution is returned with zero mean.  ``nu`` may be
    passed to skip the ellipticity search when the caller already certified
    the tensor.
    """
    g = f.grid
    _check_dims(A, g)
    if epsilon is not None and epsilon <= 0:
        raise InputError(f"regularization epsilon must be positive, got {epsilon}")
    f.require_finite("right-hand side")
    if nu is None:
        nu = ellipticity_constant(A).nu
        if nu <= 0:
            raise InputError(f"tensor is not rank-one positive: nu = {nu}")

    plan = spectral_plan(A, g)
    half = plan.half
    fhat = half.coefficients(f)
    fnorm = half.norm(fhat)
    dropped = fhat[(slice(None),) + (0,) * g.n].real.copy()
    mean_warning = bool(
        np.linalg.norm(dropped) > mean_tolerance * max(fnorm, np.finfo(float).tiny)
    )

    gauge = half.gauge
    uhat = plan.invert(fhat)
    if epsilon is None:
        multiplier = gauge.astype(float)
        regularization = "exact"
    else:
        multiplier = half.zsq / (half.zsq + epsilon)
        uhat *= multiplier
        regularization = f"epsilon={epsilon:g}"
    u = VectorField(g, half.inverse(uhat), PHYSICAL)

    # checks of the returned u, on the nonzero frequencies
    op_coef = plan.apply(uhat)
    identity_error = float(np.abs(op_coef - multiplier * fhat)[:, gauge].max())
    residual_l2 = half.norm(np.where(gauge, op_coef - fhat, 0.0))
    hessian_l2 = half.norm(4 * np.pi**2 * half.zsq * uhat)
    operator_l2 = half.norm(op_coef)
    hessian_ratio = hessian_l2 / operator_l2 if operator_l2 > 0 else 0.0
    bounds = multiplier[gauge]

    return LinearSolveResult(
        u=u,
        residual_l2=residual_l2,
        hessian_ratio=hessian_ratio,
        regularization=regularization,
        dropped_mean=dropped,
        nu=nu,
        rhs_l2=fnorm,
        hessian_l2=hessian_l2,
        operator_l2=operator_l2,
        multiplier_bounds=(float(bounds.min()), float(bounds.max())),
        multiplier_identity_error=identity_error,
        mean_warning=mean_warning,
    )


def hessian_estimate_check(A: SymTensor4, u: VectorField, nu: float | None = None) -> float:
    """nu ||D^2 u|| / ||A : D^2 u||; must come out <= 1 for a certified tensor.

    Both norms are taken by Plancherel on the half spectrum, with no inverse
    transform: ||D^2 u|| is the full spectral hessian's norm, (4 pi^2 |z|^2)
    |u^(k)| summed over all n^2 components, and ||A : D^2 u|| that of the
    physical operator field.  Zero fields give 0 by convention.  A vanishing
    denominator with a nonvanishing hessian would contradict the estimate
    and raises.
    """
    if nu is None:
        nu = ellipticity_constant(A).nu
    u.require_finite("field")
    plan = spectral_plan(A, u.grid)
    half = plan.half
    coef = half.coefficients(u)
    hnorm = half.norm(4 * np.pi**2 * half.zsq * coef)
    opnorm = half.norm(plan.apply(coef))
    if opnorm == 0.0:
        if hnorm == 0.0:
            return 0.0
        raise EstimateBreachError(
            f"A : D^2 u vanished while ||D^2 u|| = {hnorm:.3e}; estimate breached"
        )
    return float(nu * hnorm / opnorm)


def pairing_spectrum(u: VectorField, f: VectorField) -> np.ndarray:
    """Per-frequency pairing -f^(k) . conj(u^(k)) on k != 0.

    For a solution of the elliptic system this equals the rank-one hermitian
    form scaled by 4 pi^2 |z|^2, hence is real and nonnegative mode by mode.
    """
    g = u.grid
    uhat = u.to_spectral().data.reshape(g.N, g.points)
    fhat = f.to_spectral().data.reshape(g.N, g.points)
    freqs = _flat_freqs(g)
    mask = (freqs**2).sum(axis=0) > 0
    return -(fhat[:, mask] * np.conj(uhat[:, mask])).sum(axis=0)
