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
alpha (F - f), one multiply each for the solve and the operator, and the
inverse transform of the n(n+1)/2 distinct hessian components, made in the
work buffer (:meth:`~nearelliptic.fields.HalfSpectrum.hessian_pairs`); the
metric d and the residual are one dot product each, d by Plancherel, and u is
transformed back only on exit, into a field that keeps its half spectrum
from birth (:meth:`~nearelliptic.fields.HalfSpectrum.physical_field`): a
later solve warm-started from it, or its hessian, transforms nothing
forward.  A field transformed on request keeps its spectrum from the
second request, and an input that passed its finiteness check is not
scanned again; both marks trust the field's frozen data (see the
``fields`` module notes).  F is evaluated on that packed hessian
(:class:`~nearelliptic.fields.HessianPairs`), so the n^2 hessian is never
built and no off-diagonal component is evaluated twice.

One core.  :func:`campanato_solve` checks its inputs, runs the private
iteration core :func:`_iterate` and transforms the last iterate back.  The
core works on checked inputs and half-spectrum coefficients alone: it
starts cold or from a kept state, the coefficients ``uhat`` of an iterate
and its F(., D^2 u), and it returns the last iterate's ``uhat``, its F,
the trace and, on request, its packed hessian.  The stability outer loop
runs every inner solve through the core: it checks the fixed inputs once
per call, takes F from the core, evaluates G on the core's own packed
hessian, warm-starts the next inner solve from the kept ``(uhat, F)`` and
transforms u back once, at the end; no hessian or F is computed twice.
A warm start from the kept state is a warm start from the field
``campanato_solve`` returns, bit for bit.

Cold start.  Without an initial guess the iteration starts at u = 0, whose
hessian is 0: A : 0 = 0 and G does not depend on x, so F(x, 0) = G(0) at
every point.  F is evaluated once, at one zero packed point, and broadcast;
no hessian is built or transformed and F is not evaluated over the grid.
The iterates are those of a start from an all-zero initial guess, bit for
bit.  The stability outer loop starts cold the same way.

Memory.  The largest array, the complex hessian product (N, n(n+1)/2) +
half shape, is one work buffer per solve, allocated before the loop; every
hessian is transformed in it in place, with no complex intermediate.  One
iteration allocates the packed real hessian (N, n(n+1)/2, M, ..., M) that
the last-axis ``irfft`` returns and F reads, plus arrays of the size of one
field: alpha (F - f) and its coefficients, the right-hand side, the new
coefficients, their operator image and its step, F, F - f, and the
temporaries of evaluating F.  F - f is formed once per iteration: its norm
is the residual, and it is the right-hand side of the next step.  The core
keeps the last F to return it, and the last hessian only for a caller that
asks for it (the stability loop); it drops each step's before the next step
allocates.  Without that request each hessian is dropped as soon as F is
taken, so ``campanato_solve`` holds no hessian while it forms F - f and
takes the norms: holding it there cost an n=3, M=32 solve about 15% more
minor page faults per solve.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .certify import EllipticityCertificate, alpha_bounds_of
from .errors import DivergenceError, InputError
from .fields import PHYSICAL, HessianPairs, VectorField, half_spectrum, l2_norm
from .linear import solve_linear, spectral_plan  # noqa: F401  (solve_linear: perfbench wraps it here)
from .nonlinearity import NonlinearitySpec, evaluate_field, evaluate_pairs

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
    # finite ratios above 1 since the last finite ratio at or below 1
    rising: int = field(default=0, init=False, repr=False, compare=False)

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
        if math.isfinite(ratio):
            self.rising = self.rising + 1 if ratio > 1.0 else 0
        if residual <= tol_abs:
            self.status = "converged"
        elif metric <= floor:
            self.status = "max_iters"
        elif self.rising >= DIVERGENCE_PATIENCE:
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


def _at_zero_hessian(spec: NonlinearitySpec, grid) -> np.ndarray:
    """F(., 0) over the grid as an (N, 1, ..., 1) array, from one evaluation at a zero packed point.

    A : 0 = 0 and G does not depend on x, so F(x, 0) = G(0) at every point;
    ``spec.grid_weight`` checks the weight field, if any, first.  The value
    is that of evaluating F on the zero hessian of every point, bit for bit.
    """
    weight = np.ravel(spec.grid_weight(grid))[:1]
    slots = len(HessianPairs.components(grid.n)[0])
    return evaluate_pairs(spec, np.zeros((grid.N, slots, 1)), weight).reshape((grid.N,) + (1,) * grid.n)


def _checked_alpha(spec: NonlinearitySpec, alpha, grid, certificate: EllipticityCertificate) -> np.ndarray:
    """``alpha`` checked against a feasible certificate and the grid, shaped to broadcast over the components.

    The checks of :func:`campanato_solve`: the certificate is feasible, a
    constant is the certificate's own ``alpha``, the spec's dimensions are
    the grid's, and a field has the grid's shape and stays within the
    certificate's ``alpha_bounds``.
    """
    certificate.require_feasible()
    own = certificate.alpha
    if own is not None and np.ndim(alpha) == 0 and not math.isclose(float(alpha), own, rel_tol=1e-12):
        raise InputError(f"alpha={float(alpha):g} is not the alpha={own:g} the certificate holds for")
    if (spec.N, spec.n) != (grid.N, grid.n):
        raise InputError("spec dimensions do not match the grid")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim:
        if alpha.shape != grid.shape:
            raise InputError(f"alpha field must have grid shape {grid.shape}, got {alpha.shape}")
        # alpha_bounds_of refuses a field that is not finite and positive
        for name, sup, bound in zip(("sup alpha", "sup 1/alpha"), alpha_bounds_of(alpha), certificate.alpha_bounds):
            if sup > bound * (1.0 + 1e-12):
                raise InputError(f"alpha field has {name} = {sup!r}, above the certificate's bound {name} <= {bound!r}")
        alpha = alpha[None]  # broadcast over the components
    return alpha


def _rhs_norm(f: VectorField) -> float:
    """||f||_2 of a right-hand side; InputError when it is not finite.

    The solves stop at a tolerance relative to it, and a finite f whose norm
    overflows would make that tolerance inf: the solve would stop at once
    as converged, on an infinite residual.
    """
    norm = l2_norm(f)
    if not math.isfinite(norm):
        raise InputError(f"right-hand side has L2 norm {norm}, past the float range")
    return norm


def _iterate(
    spec: NonlinearitySpec,
    alpha: np.ndarray,
    f_phys: VectorField,
    certificate: EllipticityCertificate,
    config: SolveConfig,
    start: tuple[np.ndarray, VectorField] | None = None,
    keep_hessian: bool = False,
) -> tuple[np.ndarray, HessianPairs | None, VectorField, IterationTrace]:
    """The near-operator iteration on checked inputs, cold or from a kept state.

    ``alpha`` is from :func:`_checked_alpha` and ``f_phys`` is physical and
    finite.  ``start`` is the half spectrum ``uhat`` of an iterate and its
    F(., D^2 u), as a previous call returns them; without it the iteration
    starts at zero (see the module notes).  Returns the last iterate's
    ``uhat``, its packed hessian, its F and the closed trace.  The hessian
    is kept only with ``keep_hessian`` (None otherwise); without it each
    step drops its hessian once F is taken (see the module notes).
    """
    g = f_phys.grid
    plan = spectral_plan(spec.tensor, g)
    half = plan.half
    fnorm = _rhs_norm(f_phys)
    tol_abs = config.tol_residual * (fnorm if fnorm > 0 else 1.0)

    work = half.work_buffer()
    if start is None:
        uhat = np.zeros((g.N,) + half.shape, dtype=complex)
        F = _at_zero_hessian(spec, g)
    else:
        uhat, F = start[0], start[1].data
    op_prev = plan.apply(uhat)
    # F - f of the current iterate: its norm is the residual of one step and
    # it is the right-hand side of the next
    misfit = VectorField(g, F - f_phys.data, PHYSICAL)

    trace = IterationTrace()
    for _ in range(config.max_iters):
        hess = F = None  # the previous step's, freed before this step allocates
        rhs = op_prev - half.forward(alpha * misfit.data)
        uhat = plan.invert(rhs)
        op_u = plan.apply(uhat)
        hess = half.hessian_pairs(uhat, work)
        F = evaluate_field(spec, hess)
        if not keep_hessian:
            hess = None
        misfit = F - f_phys
        floor = STAGNATION_FLOOR * max(1.0, half.norm(op_u), fnorm)
        if trace.advance(half.norm(op_u - op_prev), l2_norm(misfit), tol_abs, floor):
            break
        op_prev = op_u
    trace.finish(certificate)
    return uhat, hess, F, trace


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
    more than 1e-12 relative, a field not of the grid's shape, and a field
    that is not finite and positive or whose sup alpha or sup 1/alpha
    exceeds the certificate's ``alpha_bounds`` by more than 1e-12 relative,
    are InputErrors, as is an ``f`` whose L2 norm overflows, since the
    tolerance is relative to it.  Every iterate carries the
    zero-mean gauge inherited from the linear solver.  Without
    ``initial_guess`` it starts from zero, F(., 0) taken at one point (see
    the module notes).  Returns the final field and the full trace.
    """
    alpha = _checked_alpha(spec, alpha, f.grid, certificate)
    f.require_finite("right-hand side")
    half = half_spectrum(f.grid)
    start = None
    if initial_guess is not None:
        initial_guess.require_finite("initial guess")
        uhat = half.coefficients(initial_guess)
        start = (uhat, evaluate_field(spec, half.hessian_pairs(uhat)))
    uhat, _, _, trace = _iterate(spec, alpha, f.to_physical(), certificate, config, start)
    return half.physical_field(uhat), trace


def uniqueness_constant(certificate: EllipticityCertificate) -> float:
    """Constant in the hessian-seminorm comparison estimate.

    ||D^2(w - v)|| <= C ||F(., D^2 w) - F(., D^2 v)|| with
    C = sup(alpha) / (nu (1 - sqrt(beta + gamma))).
    """
    certificate.require_feasible()
    K = certificate.contraction
    return certificate.alpha_sup / (certificate.nu * (1.0 - K))


def _increment_norms(spec: NonlinearitySpec, hw: HessianPairs, hv: HessianPairs) -> tuple[float, float]:
    """(||D^2 w - D^2 v||, ||F(., D^2 w) - F(., D^2 v)||) of two packed hessians of one grid."""
    g = hw.grid
    weight = spec.grid_weight(g)
    Fw, Fv = (evaluate_pairs(spec, h.data.reshape(g.N, -1, g.points), weight) for h in (hw, hv))
    return HessianPairs(g, hw.data - hv.data).norm(), float(np.sqrt(g.cell_volume * ((Fw - Fv) ** 2).sum()))


def verify_comparison(
    spec: NonlinearitySpec,
    certificate: EllipticityCertificate,
    w: VectorField,
    v: VectorField,
) -> float:
    """Margin ||D^2(w - v)|| - C ||F(., D^2 w) - F(., D^2 v)||; <= 0 up to round-off.

    The paper's uniqueness (comparison) estimate, with C of
    :func:`uniqueness_constant`, checked on two given fields.  No solver calls
    it; it is kept for users.
    """
    C = uniqueness_constant(certificate)
    if v.grid != w.grid:
        raise InputError("w and v must share a grid")
    half = half_spectrum(w.grid)
    hess_diff, f_diff = _increment_norms(spec, *(half.hessian_pairs(half.coefficients(x)) for x in (w, v)))
    return float(hess_diff - C * f_diff)
