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
built once per (tensor, grid) into a :class:`SpectralPlan`, memoized by
:func:`spectral_plan` in one ``functools.lru_cache`` keyed on the tensor
entries and the grid.  The plan holds two (N, N) matrix multipliers:

    operator  O(k) = -4 pi^2 A : z (x) z, the symbol of A : D^2
    solve     cof(O)^T / det(O), its pointwise inverse (0 at k = 0)

O is the packed tensor of :meth:`~nearelliptic.fields.HessianPairs.contraction`
contracted with the hessian multipliers of
:class:`~nearelliptic.fields.HalfSpectrum`, the hermitian parts
(m(k) + m(kbar)) / 2 of the full-grid ones (see the ``fields`` module
docstring), which reproduce the real part of the full complex transform
that defines the physical fields.  ``solve`` inverts that same O at every
half-spectrum frequency but k = 0, so it is the exact inverse of what the
plan applies, Nyquist planes included, and no full-grid array is built.
The scale-invariant degeneracy rule of
:func:`~nearelliptic.tensors.symbol_determinants` runs on O when the plan
is built, in the half spectrum's C order, so a degenerate tensor raises
the same error, at the same frequency, on every solve through the plan;
applying the operator needs no inverse and works for any tensor.

Both multipliers are real, but the plan stores them as complex128 with
imaginary parts exactly 0, the dtype of the coefficients they multiply.
numpy multiplies a float64 array by a complex one in its complex loop
anyway, after casting the real operand through a buffer, so the complex
stacks give the same products bit for bit without that cast on every
call.  The price is memory: 16 N^2 bytes per half-spectrum frequency and
stack, 2 x 132 KiB at n = 2, M = 64 and 2 x 1.06 MiB at n = 3, M = 32
(N = 2), twice a real plan.  The degeneracy rule and the cofactors run on
the real O, once, when the plan is built.

Checks.  :func:`solve_linear` checks the u it returns on the half
spectrum, in place: it forms A : D^2 u - f once, zeroes its k = 0 entry
(flat index 0 of each component) and takes the residual and, for the exact
solve, the multiplier-identity error from that one array; the
eps-regularized solve measures its identity against h(z)|z|^2 f^ instead.
The hessian norms of both :func:`solve_linear` and
:func:`hessian_estimate_check` weigh the coefficients by the half
spectrum's 4 pi^2 |z|^2 table, built once per grid.  The outputs of
:func:`apply_operator` and :func:`solve_linear` are made from their half
spectrum by :meth:`~nearelliptic.fields.HalfSpectrum.physical_field` and
keep it from birth, so ``solve_linear(A, apply_operator(A, u))``
transforms nothing forward; a field transformed on request, such as the
``u`` of a sweep over tensors, keeps its coefficients from the second
request (see :meth:`~nearelliptic.fields.HalfSpectrum.coefficients`).
Each input is checked for finiteness once: a field that passes
:meth:`~nearelliptic.fields.VectorField.require_finite` is not scanned
again.  Both marks trust the field's frozen data (see the ``fields``
module notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSymbolError, EstimateBreachError, InputError
from .fields import GridSpec, HalfSpectrum, HessianPairs, VectorField, half_spectrum
from .tensors import SymTensor4, _certified_nu, cofactor_transpose, power_of_two_scale, symbol_determinants

MEAN_TOLERANCE = 1e-8
PLAN_CACHE_SIZE = 8


def _check_dims(A: SymTensor4, grid: GridSpec) -> None:
    if (A.N, A.n) != (grid.N, grid.n):
        raise InputError(f"tensor (N={A.N}, n={A.n}) does not match grid (N={grid.N}, n={grid.n})")


def _zero_gauge(coef: np.ndarray) -> np.ndarray:
    """``coef`` (N,) + half shape with its k = 0 entry, flat index 0 of each component, set to zero in place."""
    coef.reshape(coef.shape[0], -1)[:, 0] = 0.0
    return coef


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
    read-only, because cached plans are shared by every caller.  They are
    complex128 with imaginary parts exactly 0, so that :meth:`apply` and
    :meth:`invert` multiply the complex coefficients without casting the
    plan on each call; each stack takes 16 N^2 bytes per frequency of
    ``half.shape``.  When the operator is singular at some frequency,
    ``degenerate`` holds the first such frequency in the half spectrum's C
    order and ``solve`` is None: the operator still applies, but
    :meth:`invert` raises DegenerateSymbolError.
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


def spectral_plan(A: SymTensor4, grid: GridSpec) -> SpectralPlan:
    """The plan of (A, grid), from the LRU of the last ``PLAN_CACHE_SIZE`` plans or built now.

    The degenerate-symbol check runs here, when a plan is built, on the
    half spectrum: the frequency it names may be the conjugate partner of
    the first singular one in the full grid's fft order.  A plan of a
    singular symbol is cached too and raises on :meth:`SpectralPlan.invert`.
    """
    _check_dims(A, grid)
    return _plan(A.entries.tobytes(), grid)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(entries: bytes, grid: GridSpec) -> SpectralPlan:
    """Build the plan of the tensor with these raw (N, N, n, n) entries."""
    N, n = grid.N, grid.n
    contraction = HessianPairs.contraction(np.frombuffer(entries).reshape(N, N, n, n))
    half = half_spectrum(grid)
    operator = np.tensordot(contraction, half.hessian, axes=1)
    # the (K, N, N) stack of every frequency but the gauge, flat index 0, in the half spectrum's C order;
    # it is inverted divided by a power of two, exactly, so tiny entries cannot underflow
    scale = power_of_two_scale(contraction)
    O = np.moveaxis(operator.reshape(N, N, -1)[:, :, 1:], -1, 0) / scale
    # stored complex, as the coefficients are, so that no multiply casts the plan on every call
    operator = operator.astype(complex)
    operator.setflags(write=False)
    det, _, degenerate = symbol_determinants(O)
    if np.any(degenerate):
        k = np.unravel_index(1 + np.argmax(degenerate), half.shape)
        return SpectralPlan(half, None, operator, tuple(int(v) for v in grid.integer_freqs()[list(k)]))
    solve = np.zeros_like(operator)
    np.moveaxis(solve.reshape(N, N, -1), -1, 0)[1:] = cofactor_transpose(O) / (det * scale)[:, None, None]
    solve.setflags(write=False)
    return SpectralPlan(half, solve, operator)


def apply_operator(A: SymTensor4, u: VectorField) -> VectorField:
    """A : D^2 u, evaluated diagonally in frequency; physical output."""
    u.require_finite("field")
    plan = spectral_plan(A, u.grid)
    half = plan.half
    return half.physical_field(plan.apply(half.coefficients(u)))


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
) -> LinearSolveResult:
    """Invert A : D^2 u = f on the torus, exactly or with the eps-regularized multiplier.

    The k = 0 part of f cannot be matched and is dropped into
    ``dropped_mean`` (with a warning flag when it exceeds MEAN_TOLERANCE
    ``||f||``); the solution is returned with zero mean.  ``nu`` may be
    passed to skip the ellipticity search when the caller already certified
    the tensor; it must be finite and positive, as must ``epsilon``.
    """
    g = f.grid
    _check_dims(A, g)
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
        raise InputError(f"regularization epsilon must be finite and positive, got {epsilon}")
    f.require_finite("right-hand side")
    nu = _certified_nu(A, nu)

    plan = spectral_plan(A, g)
    half = plan.half
    fhat = half.coefficients(f)
    fnorm = half.norm(fhat)
    dropped = fhat[(slice(None),) + (0,) * g.n].real.copy()
    mean_warning = bool(
        np.linalg.norm(dropped) > MEAN_TOLERANCE * max(fnorm, np.finfo(float).tiny)
    )

    uhat = plan.invert(fhat)
    if epsilon is None:
        regularization = "exact"
    else:
        multiplier = half.zsq / (half.zsq + epsilon)
        uhat *= multiplier
        regularization = f"epsilon={epsilon:g}"
    u = half.physical_field(uhat)

    # checks of the returned u, on the nonzero frequencies
    op_coef = plan.apply(uhat)
    residual = _zero_gauge(op_coef - fhat)
    if epsilon is None:
        # the exact multiplier is 1 off k = 0, so its identity error is the residual's
        mismatch, bounds = residual, (1.0, 1.0)
    else:
        mismatch = _zero_gauge(op_coef - multiplier * fhat)
        nonzero = multiplier.reshape(-1)[1:]
        bounds = (float(nonzero.min()), float(nonzero.max()))
    identity_error = float(np.abs(mismatch).max())
    residual_l2 = half.norm(residual)
    hessian_l2 = half.norm(half.laplacian * uhat)
    operator_l2 = half.norm(op_coef)
    hessian_ratio = hessian_l2 / operator_l2 if operator_l2 > 0 else 0.0

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
        multiplier_bounds=bounds,
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
    and raises.  A passed ``nu`` that is not finite and positive, or a
    tensor whose searched nu is not positive, is an InputError.
    """
    nu = _certified_nu(A, nu)
    u.require_finite("field")
    plan = spectral_plan(A, u.grid)
    half = plan.half
    coef = half.coefficients(u)
    hnorm = half.norm(half.laplacian * coef)
    opnorm = half.norm(plan.apply(coef))
    if opnorm == 0.0:
        if hnorm == 0.0:
            return 0.0
        raise EstimateBreachError(
            f"A : D^2 u vanished while ||D^2 u|| = {hnorm:.3e}; estimate breached"
        )
    return float(nu * hnorm / opnorm)

