"""Fixed-point solver for F(., D^2 u) = f by contraction around the linear anchor.

The map iterated is

    T[u] = A^{-1}( A : D^2 u - alpha (F(., D^2 u) - f) ),

with A^{-1} the gauged spectral solve.  In the nearness metric
d(u, v) = ||A : D^2(u - v)||_2 the map contracts with constant
sqrt(beta + gamma) taken from the ellipticity certificate, so residuals decay
geometrically and the fixed point is unique in the zero-mean gauge.

Stopping is on the equation residual ||F(., D^2 u) - f||_2 (step size alone
can mask a bad certificate); persistent ratio > 1 over five consecutive
iterations raises a divergence error pointing at the certificate.

The iterate is kept as half-spectrum coefficients of the (tensor, grid)
:class:`~nearelliptic.linear.SpectralPlan`.  One iteration costs one rfftn of
alpha (F - f), one multiply each for the solve and the operator, and one
irfftn of the n(n+1)/2 distinct hessian components; the metric d is taken by
Plancherel, and u is transformed back only on exit.  F is evaluated on that
packed hessian (:class:`~nearelliptic.fields.HessianPairs`), so the n^2
hessian is never built and no off-diagonal component is evaluated twice.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .certify import EllipticityCertificate
from .errors import DivergenceError, InputError
from .fields import PHYSICAL, HessianPairs, VectorField, l2_norm, spectral_hessian
from .linear import solve_linear, spectral_plan  # noqa: F401  (solve_linear: perfbench wraps it here)
from .nonlinearity import NonlinearitySpec, evaluate_field
from .tensors import SymTensor4

DIVERGENCE_PATIENCE = 5
STAGNATION_FLOOR = 1e-13


@dataclass(frozen=True)
class SolveConfig:
    """Iteration policy; the residual tolerance is relative to ||f||."""

    tol_residual: float = 1e-8
    max_iters: int = 200
    ratio_slack: float = 0.05

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise InputError("tol_residual must be positive")
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    metric: float
    residual: float
    ratio: float  # nan for the first record


@dataclass
class IterationTrace:
    """Per-iteration nearness metric, residual, and contraction ratio."""

    records: list[IterationRecord] = field(default_factory=list)
    status: str = "running"

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def ratios(self) -> list[float]:
        return [r.ratio for r in self.records if np.isfinite(r.ratio)]

    @property
    def final_residual(self) -> float:
        return self.records[-1].residual if self.records else float("nan")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iter,metric,residual,ratio\n")
        for r in self.records:
            buf.write(f"{r.index},{r.metric!r},{r.residual!r},{r.ratio!r}\n")
        return buf.getvalue()


def _alpha_times(alpha, field_: VectorField) -> VectorField:
    data = field_.data
    arr = np.asarray(alpha, dtype=float)
    if arr.ndim == 0:
        return VectorField(field_.grid, float(arr) * data, PHYSICAL)
    if arr.shape != field_.grid.shape:
        raise InputError(f"alpha field must have grid shape {field_.grid.shape}, got {arr.shape}")
    return VectorField(field_.grid, arr[None] * data, PHYSICAL)


def zero_field(grid) -> VectorField:
    return VectorField(grid, np.zeros((grid.N,) + grid.shape), PHYSICAL)


def campanato_solve(
    spec: NonlinearitySpec,
    alpha,
    f: VectorField,
    certificate: EllipticityCertificate,
    config: SolveConfig = SolveConfig(),
    tensor: SymTensor4 | None = None,
    initial_guess: VectorField | None = None,
) -> tuple[VectorField, IterationTrace]:
    """Iterate the near-operator contraction until the equation residual passes.

    ``alpha`` is the scaling of the certificate (constant or a positive grid
    field); every iterate carries the zero-mean gauge inherited from the
    linear solver.  Returns the final field and the full trace.
    """
    certificate.require_feasible()
    A = tensor if tensor is not None else spec.tensor
    g = f.grid
    if (spec.N, spec.n) != (g.N, g.n):
        raise InputError("spec dimensions do not match the grid")
    f.require_finite("right-hand side")
    if initial_guess is not None:
        initial_guess.require_finite("initial guess")
    plan = spectral_plan(A, g)
    half = plan.half
    f_phys = f.to_physical()
    fnorm = l2_norm(f_phys)
    tol_abs = config.tol_residual * (fnorm if fnorm > 0 else 1.0)

    if initial_guess is None:
        uhat = np.zeros((g.N,) + half.shape, dtype=complex)
        hess = HessianPairs(g, np.zeros((g.N, g.n * (g.n + 1) // 2) + g.shape))
    else:
        uhat = half.coefficients(initial_guess)
        hess = half.hessian_pairs(uhat)
    op_prev = plan.apply(uhat)
    F_prev = evaluate_field(spec, hess)

    def solution() -> VectorField:
        return VectorField(g, half.inverse(uhat), PHYSICAL)

    trace = IterationTrace()
    d_prev = float("nan")
    over_unity = 0
    for k in range(1, config.max_iters + 1):
        rhs = op_prev - half.forward(_alpha_times(alpha, F_prev - f_phys).data)
        uhat = plan.invert(rhs)
        op_u = plan.apply(uhat)
        F_u = evaluate_field(spec, half.hessian_pairs(uhat))
        residual = l2_norm(F_u - f_phys)
        d = half.norm(op_u - op_prev)
        ratio = d / d_prev if k >= 2 and d_prev > 0 else float("nan")
        trace.append(IterationRecord(index=k, metric=d, residual=residual, ratio=ratio))

        if residual <= tol_abs:
            trace.status = "converged"
            return solution(), trace

        noise_floor = STAGNATION_FLOOR * max(1.0, half.norm(op_u), fnorm)
        if d <= noise_floor:
            # stalled at round-off (e.g. the rhs mean is not attainable in the
            # gauge) without meeting the residual tolerance
            trace.status = "max_iters"
            return solution(), trace

        if np.isfinite(ratio) and ratio > 1.0:
            over_unity += 1
        elif np.isfinite(ratio):
            over_unity = 0
        if over_unity >= DIVERGENCE_PATIENCE:
            trace.status = "diverged"
            raise DivergenceError(
                f"contraction ratio exceeded 1 for {DIVERGENCE_PATIENCE} consecutive "
                f"iterations; the certificate (beta={certificate.beta:g}, "
                f"gamma={certificate.gamma:g}) looks invalid for this problem",
                trace=trace,
                certificate=certificate,
            )

        op_prev, F_prev, d_prev = op_u, F_u, d

    trace.status = "max_iters"
    return solution(), trace


def contraction_bound(certificate: EllipticityCertificate) -> float:
    """Lipschitz constant sqrt(beta + gamma) of the fixed-point map."""
    certificate.require_feasible()
    return certificate.contraction


def uniqueness_constant(certificate: EllipticityCertificate) -> float:
    """Constant in the hessian-seminorm comparison estimate.

    ||D^2(w - v)|| <= C ||F(., D^2 w) - F(., D^2 v)|| with
    C = sup(alpha) / (nu (1 - sqrt(beta + gamma))).
    """
    certificate.require_feasible()
    K = certificate.contraction
    return certificate.alpha_sup / (certificate.nu * (1.0 - K))


def verify_comparison(
    spec: NonlinearitySpec,
    certificate: EllipticityCertificate,
    w: VectorField,
    v: VectorField,
) -> float:
    """Margin ||D^2(w - v)|| - C ||F(., D^2 w) - F(., D^2 v)||; <= 0 up to round-off."""
    C = uniqueness_constant(certificate)
    hw = spectral_hessian(w, PHYSICAL)
    hv = spectral_hessian(v, PHYSICAL)
    hess_diff = l2_norm(hw - hv)
    f_diff = l2_norm(evaluate_field(spec, hw) - evaluate_field(spec, hv))
    return float(hess_diff - C * f_diff)
