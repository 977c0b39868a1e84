"""Fixed-point solver for F(., D^2 u) = f by contraction around the linear anchor.

The map iterated is

    T[u] = A^{-1}( A : D^2 u - alpha (F(., D^2 u) - f) ),

with A^{-1} the gauged spectral solve.  In the nearness metric
d(u, v) = ||A : D^2(u - v)||_2 the map contracts with constant
sqrt(beta + gamma) taken from the ellipticity certificate, so residuals decay
geometrically and the fixed point is unique in the zero-mean gauge.

Stopping is on the equation residual ||F(., D^2 u) - f||_2 (step size alone
can mask a bad certificate); persistent ratio > 1 over five consecutive
iterations raises a divergence error pointing at the certificate.  The rule
lives in :meth:`IterationTrace.advance`, which the stability loop of
:mod:`nearelliptic.stability` shares.

The iterate is kept as half-spectrum coefficients of the (tensor, grid)
:class:`~nearelliptic.linear.SpectralPlan`.  One iteration costs one rfftn of
alpha (F - f), one multiply each for the solve and the operator, and one
irfftn of the n(n+1)/2 distinct hessian components; the metric d is taken by
Plancherel, and u is transformed back only on exit.  F is evaluated on that
packed hessian (:class:`~nearelliptic.fields.HessianPairs`), so the n^2
hessian is never built and no off-diagonal component is evaluated twice.

Memory.  The largest array, the complex hessian product (N, n(n+1)/2) +
half shape, is one work buffer per solve, allocated before the loop and
reused by every irfftn (:meth:`~nearelliptic.fields.HalfSpectrum.hessian_pairs`).
One iteration allocates the packed real hessian (N, n(n+1)/2, M, ..., M)
that the irfftn returns and F reads, plus arrays of the size of one field:
alpha (F - f) and its coefficients, the right-hand side, the new
coefficients, their operator image and its step, F, F - f, and the
temporaries of evaluating F and of the norms.  F - f is formed once per
iteration: its norm is the residual, and it is the right-hand side of the
next step.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from .certify import EllipticityCertificate
from .errors import DivergenceError, InputError
from .fields import PHYSICAL, HessianPairs, VectorField, l2_norm, spectral_hessian
from .linear import solve_linear, spectral_plan  # noqa: F401  (solve_linear: perfbench wraps it here)
from .nonlinearity import NonlinearitySpec, evaluate_field

DIVERGENCE_PATIENCE = 5
STAGNATION_FLOOR = 1e-13


@dataclass(frozen=True)
class SolveConfig:
    """Iteration policy; the residual tolerance is relative to ||f||."""

    tol_residual: float = 1e-8
    max_iters: int = 200

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
    seconds: float  # wall time of the step, by time.perf_counter


@dataclass
class IterationTrace:
    """Per-iteration nearness metric, residual, and contraction ratio."""

    records: list[IterationRecord] = field(default_factory=list)
    status: str = "running"
    # perf_counter at the end of the last step, or at creation before the first
    clock: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    def advance(self, metric: float, residual: float, tol_abs: float, floor: float) -> bool:
        """Record one step; True when the loop must stop.

        It stops as ``converged`` when the residual passes ``tol_abs``, else as
        ``max_iters`` when the step is at the round-off ``floor`` (a stall),
        else as ``diverged`` after DIVERGENCE_PATIENCE ratios above 1 in a
        row; an undefined ratio neither counts nor breaks the row.  The step's
        ``seconds`` run from the previous call, or from the trace's creation.
        """
        now = time.perf_counter()
        prev = self.records[-1].metric if self.records else float("nan")
        ratio = metric / prev if prev > 0 else float("nan")
        self.records.append(IterationRecord(len(self.records) + 1, metric, residual, ratio, now - self.clock))
        self.clock = now
        if residual <= tol_abs:
            self.status = "converged"
        elif metric <= floor:
            self.status = "max_iters"
        elif len(list(takewhile(lambda r: r > 1.0, reversed(self.ratios)))) >= DIVERGENCE_PATIENCE:
            self.status = "diverged"
        return self.status != "running"

    def finish(self, certificate: EllipticityCertificate) -> None:
        """Close the trace after the loop: out of iterations, or raise on divergence."""
        if self.status == "running":
            self.status = "max_iters"
        if self.status == "diverged":
            raise DivergenceError(
                f"contraction ratio exceeded 1 for {DIVERGENCE_PATIENCE} consecutive "
                f"iterations; the certificate (beta={certificate.beta:g}, "
                f"gamma={certificate.gamma:g}) looks invalid for this problem",
                trace=self,
                certificate=certificate,
            )

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
    initial_guess: VectorField | None = None,
) -> tuple[VectorField, IterationTrace]:
    """Iterate the near-operator contraction until the equation residual passes.

    ``alpha`` is the scaling of the certificate (constant or a positive grid
    field); a constant that differs from the certificate's own ``alpha`` by
    more than 1e-12 relative is an InputError.  Every iterate carries the
    zero-mean gauge inherited from the linear solver.  Returns the final
    field and the full trace.
    """
    certificate.require_feasible()
    own = certificate.alpha
    if own is not None and np.ndim(alpha) == 0 and not math.isclose(float(alpha), own, rel_tol=1e-12):
        raise InputError(f"alpha={float(alpha):g} is not the alpha={own:g} the certificate holds for")
    g = f.grid
    if (spec.N, spec.n) != (g.N, g.n):
        raise InputError("spec dimensions do not match the grid")
    f.require_finite("right-hand side")
    if initial_guess is not None:
        initial_guess.require_finite("initial guess")
    plan = spectral_plan(spec.tensor, g)
    half = plan.half
    f_phys = f.to_physical()
    fnorm = l2_norm(f_phys)
    tol_abs = config.tol_residual * (fnorm if fnorm > 0 else 1.0)

    work = half.work_buffer()
    if initial_guess is None:
        uhat = np.zeros((g.N,) + half.shape, dtype=complex)
        hess = HessianPairs(g, np.zeros((g.N, g.n * (g.n + 1) // 2) + g.shape))
    else:
        uhat = half.coefficients(initial_guess)
        hess = half.hessian_pairs(uhat, work)
    op_prev = plan.apply(uhat)
    # F - f of the current iterate: its norm is the residual of one step and
    # it is the right-hand side of the next
    misfit = evaluate_field(spec, hess) - f_phys

    trace = IterationTrace()
    for _ in range(config.max_iters):
        rhs = op_prev - half.forward(_alpha_times(alpha, misfit).data)
        uhat = plan.invert(rhs)
        op_u = plan.apply(uhat)
        misfit = evaluate_field(spec, half.hessian_pairs(uhat, work)) - f_phys
        floor = STAGNATION_FLOOR * max(1.0, half.norm(op_u), fnorm)
        if trace.advance(half.norm(op_u - op_prev), l2_norm(misfit), tol_abs, floor):
            break
        op_prev = op_u
    trace.finish(certificate)
    return VectorField(g, half.inverse(uhat), PHYSICAL), trace


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
