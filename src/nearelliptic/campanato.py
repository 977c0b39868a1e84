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

A solve also stops as a stall (``max_iters``) once the certificate proves
the tolerance out of reach.  Write d_k = ||A : D^2(u_k - u_{k-1})|| for the
step and r_k for the residual of step k, and K = sqrt(beta + gamma).  The
certificate's K-condition, integrated with the hessian estimate
nu ||D^2 w|| <= ||A : D^2 w||, gives ||A : D^2 w - alpha (F(., D^2(v + w))
- F(., D^2 v))|| <= K ||A : D^2 w||, so

    ||F(., D^2 u_j) - F(., D^2 u_k)|| <= sup(1/alpha) (1 + K) ||A : D^2(u_j - u_k)||,

and the steps after k, each at most K times the last, sum to at most
K/(1 - K) d_k.  So every later residual is at least r_k - B d_k, with
B = sup(1/alpha) (1 + K) K/(1 - K) (1 + REACH_SLACK) (:func:`_reach`); the
slack of 1e-6 covers the round-off of r_k and d_k.  When r_k - B d_k >
tol no later iterate would pass the tolerance, and the loop without the
rule could only have ended as ``max_iters``, later.  The rule is applied
only at a step whose observed ratio d_k/d_{k-1} is at most K: a certificate
that the iteration visibly breaks proves nothing, and such a solve goes on
to its divergence error.  ``_iterate`` folds the rule into the round-off
floor it passes to :meth:`IterationTrace.advance`: the floor is
max(round-off floor, (r_k - tol)/B) at such a step.  A converged solve
keeps its bits, and a stalled solve's trace is the first rows of the trace
it had without the rule.  Typical is a right-hand side whose k = 0 mean F
of no zero-mean iterate matches: its residual levels off at that mean
while the steps still shrink geometrically towards round-off.

The iterate is kept as half-spectrum coefficients of the (tensor, grid)
:class:`~nearelliptic.linear.SpectralPlan`.  One iteration costs one forward
transform of alpha (F - f), one plan multiply, the solve, and the inverse
transform of the n(n+1)/2 distinct hessian components, made in the work
buffer (:meth:`~nearelliptic.fields.HalfSpectrum.hessian_pairs`).  The
operator image A : D^2 u of the new iterate takes no second plan multiply:
off k = 0 the plan's solve is the inverse of the operator it applies, so
the image is the right-hand side with its k = 0 entry zeroed
(:func:`~nearelliptic.linear._zero_gauge`), which the step already holds,
up to the round-off of the two multiplies.  The operator is applied once
per call, to the ``uhat`` of a warm start; a cold start's image is 0.  The
metric d and the residual are one dot product each, d by Plancherel, and
u is transformed back only on exit, into a field that keeps its half
spectrum from birth (:meth:`~nearelliptic.fields.HalfSpectrum.physical_field`):
a later solve warm-started from it, or its hessian, transforms nothing
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
and its F(., D^2 u), and it returns the last iterate's ``uhat``, its packed
hessian, its F and the trace.  The stability outer loop
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

Memory.  Each call of the core allocates its arrays once, before the
loop, and every step writes into them: the complex hessian work buffer
(N, S) + half shape, S = n(n+1)/2, 16 N S |half| bytes for |half| =
M^(n-1) (M/2 + 1) frequencies; the real packed hessian (N, S, M, ..., M),
8 N S M^n bytes, into which the last-axis ``irfft`` writes and from which
F is evaluated; F, F - f and alpha (F - f), 8 N M^n bytes each; and two
half-spectrum coefficient buffers, 16 N |half| bytes each, which swap
roles from step to step as the right-hand side (then the operator image)
and the previous operator image (then the step d is measured on).  At
n = 3, N = 2, M = 32 that is 3.2 + 3.0 + 3 x 0.5 + 2 x 0.53 MiB, about
8.8 MiB.  A step still allocates the new coefficients, the output of the
plan's solve, which the next step reads and the caller keeps, and the
temporaries of evaluating F (:func:`~nearelliptic.nonlinearity.evaluate_pairs`
writes F itself into its array).  F - f is formed once per step: its norm
is the residual, and times alpha it is the right-hand side of the next.
The arrays are not kept across calls: the call hands its last ``uhat``,
hessian and F over to the caller (the hessian as a read-only view of its
array, F as a field on its own), so nothing of the grid's size outlives
a solve but what it returns, and a later call cannot overwrite them.
Arrays kept across calls in a bounded workspace (the idiom of
``certify._workspace``) are refused: in a prototype they took the minor
page faults of a perfbench solve-3d op from about 2500 to 0, but kept
about 9.6 MiB alive through the set-up of later workloads and raised
solve-3d's peak RSS from 84.1 to 91.2 MiB, past its 5% bound.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .certify import EllipticityCertificate, alpha_bounds_of
from .errors import DivergenceError, InputError
from .fields import PHYSICAL, HessianPairs, VectorField, _l2, half_spectrum, l2_norm
from .linear import _zero_gauge, solve_linear, spectral_plan  # noqa: F401  (solve_linear: perfbench wraps it here)
from .nonlinearity import NonlinearitySpec, evaluate_field, evaluate_pairs

DIVERGENCE_PATIENCE = 5
STAGNATION_FLOOR = 1e-13
# relative slack of the stall rule's bound B, for the round-off of the residual and d
REACH_SLACK = 1e-6


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
        ``max_iters`` when the step is at the ``floor`` (a stall), else as
        ``diverged`` after DIVERGENCE_PATIENCE ratios above 1 in a row; an
        undefined ratio neither counts nor breaks the row.  The floor is the
        caller's: the round-off floor, which the near-operator iteration
        raises to (residual - tol_abs)/B at a step whose ratio is at most
        the certified K, where no later iterate can pass the tolerance
        (see the module notes).  The step's ``seconds`` run from the
        previous call, or from the trace's creation.
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


def _reach(certificate: EllipticityCertificate, alpha: np.ndarray) -> float:
    """B of the stall rule: no iterate after step k moves the residual by more than B d_k.

    B = sup(1/alpha) (1 + K) K/(1 - K) (1 + REACH_SLACK), with K the
    certificate's contraction and ``alpha`` as :func:`_checked_alpha` returns
    it (see the module notes).  1/min(alpha) is sup(1/alpha) exactly, since
    the rounded division is monotone.
    """
    K = certificate.contraction
    return float(1.0 / np.min(alpha)) * (1.0 + K) * K / (1.0 - K) * (1.0 + REACH_SLACK)


def _iterate(
    spec: NonlinearitySpec,
    alpha: np.ndarray,
    f_phys: VectorField,
    certificate: EllipticityCertificate,
    config: SolveConfig,
    start: tuple[np.ndarray, VectorField] | None = None,
) -> tuple[np.ndarray, HessianPairs, VectorField, IterationTrace]:
    """The near-operator iteration on checked inputs, cold or from a kept state.

    ``alpha`` is from :func:`_checked_alpha` and ``f_phys`` is physical and
    finite.  ``start`` is the half spectrum ``uhat`` of an iterate and its
    F(., D^2 u), as a previous call returns them; without it the iteration
    starts at zero (see the module notes).  Returns the last iterate's
    ``uhat``, its packed hessian, its F and the closed trace.  The hessian
    and F are the call's own arrays, which the caller takes over (see the
    module notes).
    """
    g = f_phys.grid
    plan = spectral_plan(spec.tensor, g)
    half = plan.half
    fnorm = _rhs_norm(f_phys)
    tol_abs = config.tol_residual * (fnorm if fnorm > 0 else 1.0)
    weight = spec.grid_weight(g)
    f = f_phys.data
    K, reach = certificate.contraction, _reach(certificate, alpha)

    # the call's arrays: every step writes into these (see the module notes)
    work = half.work_buffer()
    packed = np.empty((g.N, len(half.hessian)) + g.shape)
    F, misfit, scaled = (np.empty_like(f) for _ in range(3))
    rhs = np.empty((g.N,) + half.shape, dtype=complex)
    # misfit is F - f of the current iterate: its norm is the residual of one
    # step and, times alpha, it is the right-hand side of the next
    if start is None:
        np.subtract(_at_zero_hessian(spec, g), f, out=misfit)
        op_prev = np.zeros_like(rhs)  # A : D^2 0
    else:
        np.subtract(start[1].data, f, out=misfit)
        op_prev = plan.apply(start[0])

    trace = IterationTrace()
    for _ in range(config.max_iters):
        half.forward(np.multiply(alpha, misfit, out=scaled), out=rhs)
        uhat = plan.invert(np.subtract(op_prev, rhs, out=rhs))
        op_u = _zero_gauge(rhs)  # A : D^2 u, the right-hand side less its mean (see the module notes)
        hess = half.hessian_pairs(uhat, work, packed)
        evaluate_pairs(spec, packed.reshape(g.N, -1, g.points), weight, F.reshape(g.N, -1))
        np.subtract(F, f, out=misfit)
        residual = _l2(misfit, g.cell_volume)
        floor = STAGNATION_FLOOR * max(1.0, half.norm(op_u), fnorm)
        metric = half.norm(np.subtract(op_u, op_prev, out=op_prev))
        prev = trace.records[-1].metric if trace.records else 0.0
        if prev > 0 and metric / prev <= K:
            # no later residual falls below residual - reach * metric (see the module notes)
            floor = max(floor, (residual - tol_abs) / reach)
        if trace.advance(metric, residual, tol_abs, floor):
            break
        rhs, op_prev = op_prev, op_u
    trace.finish(certificate)
    return uhat, hess, VectorField(g, F, PHYSICAL), trace


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
