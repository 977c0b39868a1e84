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
the tolerance out of reach, by a lower bound on every later residual.
Write d_k = ||A : D^2(u_k - u_{k-1})|| for the step and r_k for the
residual of step k, and K = sqrt(beta + gamma).  The certificate's
K-condition, integrated with the hessian estimate
nu ||D^2 w|| <= ||A : D^2 w||, gives ||A : D^2 w - alpha (F(., D^2(v + w))
- F(., D^2 v))|| <= K ||A : D^2 w||, and the steps after step k + 1, each
at most K times the last, sum with it to at most d_{k+1}/(1 - K).
A : D^2 w has zero mean, so with P_0 the projection on the k = 0 mean the
K-condition gives, for every j > k, ||P_0 alpha (F(., D^2 u_j) -
F(., D^2 u_k))|| <= K ||A : D^2(u_j - u_k)|| <= K/(1 - K) d_{k+1}, and
Cauchy-Schwarz gives r_j >= ||P_0 alpha (F(., D^2 u_j) - f)|| / abar,
abar = ||alpha||_2 / sqrt(L^n) (alpha itself when it is a constant).  So
r_j >= (p_k - T d_{k+1}) / abar, the mean bound, with p_k =
||P_0 alpha (F(., D^2 u_k) - f)|| and T = K/(1 - K) (1 + REACH_SLACK).

:func:`_reach` gives T; the slack of 1e-6 covers the round-off of the
residual and the steps.  When the bound exceeds tol no later iterate would
pass the tolerance, and the loop without the rule could only have ended
as ``max_iters``, later.  The rule applies only at a step whose observed
ratios d_k/d_{k-1} and d_{k+1}/d_k are both at most K: a certificate that
the iteration visibly breaks proves nothing, and such a solve goes on to
its divergence error.  It reads only the certificate's K and alpha, not
the declared Lipschitz bound.  ``_iterate`` folds it into the round-off
floor it passes to :meth:`IterationTrace.advance`, as inf where the bound
holds.  A solve that converges without the rule converges with it, bit
for bit, and a stalled solve's trace is the first rows of the trace it had
without it.  Typical is a right-hand side whose k = 0 mean F of no
zero-mean iterate matches, as in the first inner solve of the stability
loop: its residual levels off at that mean while the steps still shrink
geometrically towards round-off.

The same tail gives the distance to the fixed point u* that
``_iterate`` puts on the trace it closes: ||A : D^2(u* - u_k)|| is at most
d_{k+1}/(1 - K) for a solve that stopped without converging, whose next
step the loop has made, and K/(1 - K) d_k for a converged one.

The iterate is kept as half-spectrum coefficients of the (tensor, grid)
:class:`~nearelliptic.linear.SpectralPlan`.  One iteration costs one forward
transform of alpha (F - f), one plan multiply, the solve, and the inverse
transform of the n(n+1)/2 distinct hessian components, made in the work
buffer (:meth:`~nearelliptic.fields.HalfSpectrum.hessian_pairs`).  The
transform belongs to the next step and is made at the end of this one,
only when the residual has not passed the tolerance: its k = 0 entries,
the component means, give p_k, and with them zeroed
(:func:`~nearelliptic.linear._zero_gauge`) it is Q alpha (F(., D^2 u_k)
- f), Q = 1 - P_0.  Since A : D^2(u_{k+1} - u_k) = -Q alpha (F(., D^2 u_k)
- f), its norm is d_{k+1}, the next step's metric, and the next step
subtracts it from the operator image A : D^2 u_k to get the image of
u_{k+1}, which the plan's solve takes to u_{k+1}: off k = 0 the solve is
the inverse of the operator it applies, so the image needs no second plan
multiply, up to the round-off of the two multiplies.  The operator is
applied once per call, to the ``uhat`` of a warm start; a cold start's
image is 0.  A step takes two norms: the residual, and d by Plancherel
on the transform.  The round-off floor STAGNATION_FLOOR max(1,
||A : D^2 u_k||, ||f||) takes no third: the norm of the start's image
(once per call) plus the steps so far bounds ||A : D^2 u_k|| from above,
by the triangle inequality, and stands in for it.  u is transformed back
only on exit, into a field that keeps its half
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
(S,) + half shape, S = n(n+1)/2, the slots of one component, in which the
N components are transformed in turn, 16 S |half| bytes for |half| =
M^(n-1) (M/2 + 1) frequencies; the real packed hessian (N, S, M, ..., M),
8 N S M^n bytes, into whose rows the last-axis ``irfft`` writes and from
which F is evaluated; F and F - f, 8 N M^n bytes each, the second scaled
by alpha in place once its norm is taken; and two half-spectrum
coefficient buffers, 16 N |half| bytes each: the operator image, which
each step updates in place, and the step Q alpha (F - f), into which the
transform writes.  At n = 3, N = 2, M = 32 that is 1.6 + 3.0 + 2 x 0.5 +
2 x 0.53 MiB, about 6.7 MiB (8.3 MiB with a work buffer of all N
components, (N, S) + half shape).  A step still allocates the new
coefficients, the output of the plan's solve, which the next step reads
and the caller keeps, and the temporaries of evaluating F
(:func:`~nearelliptic.nonlinearity.evaluate_pairs` writes F itself into
its array; the sine perturbation takes three (N, M^n) work arrays).  F - f
is formed once per step: its norm is the residual, and times alpha,
transformed and gauged, it is the next step.
The arrays are not kept across calls: the call hands its last ``uhat``,
hessian and F over to the caller (the hessian as a read-only view of its
array, F as a field on its own), so nothing of the grid's size outlives
a solve but what it returns, and a later call cannot overwrite them.
Arrays kept across calls in a bounded workspace (the idiom of
``certify._workspace``, which keeps the sampler's three sample arrays per
key and forms every scale in them) are refused: in a prototype they took
the minor page faults of a perfbench solve-3d op from about 2500 to 0, but
kept about 9.6 MiB alive through the set-up of later workloads and raised
solve-3d's peak RSS from 84.1 to 91.2 MiB, past its 5% bound.  The
one-component work buffer took those faults to 0 with nothing kept: in
perfbench's solve-3d loop at seeds 301 and 303, 2080 minor faults per op
became 0, and peak RSS fell from 84.8 to 82.8-83.0 MiB.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .certify import EllipticityCertificate, alpha_bounds_of
from .errors import DivergenceError, InputError, finite_number
from .fields import PHYSICAL, HalfSpectrum, HessianPairs, VectorField, _l2, _readonly, half_spectrum, l2_norm
from .linear import _zero_gauge, solve_linear, spectral_plan  # noqa: F401  (solve_linear: perfbench wraps it here)
from .nonlinearity import NonlinearitySpec, evaluate_field, evaluate_pairs

DIVERGENCE_PATIENCE = 5
STAGNATION_FLOOR = 1e-13
# relative slack of the stall rule's bound T, for the round-off of the residual and d
REACH_SLACK = 1e-6


@dataclass(frozen=True)
class SolveConfig:
    """Iteration policy; the residual tolerance is relative to ||f||.

    ``tol_residual`` must be a finite positive number and ``max_iters`` an
    integer of at least 1 (a bool is neither): a nan tolerance would never
    pass, an infinite one would pass at once, and a fractional count would
    fail mid-solve.
    """

    tol_residual: float = 1e-8
    max_iters: int = 200

    def __post_init__(self):
        if finite_number(self.tol_residual, "tol_residual") <= 0:
            raise InputError("tol_residual must be positive")
        if finite_number(self.max_iters, "max_iters", integer=True) < 1:
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
    # certified bound on ||A : D^2(u* - u)|| of the last iterate, set by the near-operator iteration (module notes)
    distance_bound: float = field(default=math.nan, init=False, compare=False)

    def advance(self, metric: float, residual: float, tol_abs: float, floor: float) -> bool:
        """Record one step; True when the loop must stop.

        It stops as ``converged`` when the residual passes ``tol_abs``, else as
        ``max_iters`` when the step is at the ``floor`` (a stall), else as
        ``diverged`` after DIVERGENCE_PATIENCE ratios above 1 in a row; an
        undefined ratio neither counts nor breaks the row.  The floor is the
        caller's: the round-off floor, which the near-operator iteration
        raises to inf where the mean bound holds: there no later iterate
        can pass the tolerance (see the module notes).  The step's
        ``seconds`` run from the previous call, or from the trace's
        creation.
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


def _reach(certificate: EllipticityCertificate) -> float:
    """T of the mean bound: no residual after step k is below (p_k - T d_{k+1})/abar.

    T = K/(1 - K) (1 + REACH_SLACK), with K the certificate's contraction
    (see the module notes).
    """
    K = certificate.contraction
    return K / (1.0 - K) * (1.0 + REACH_SLACK)


def _gauged_step(half: HalfSpectrum, alpha: np.ndarray, misfit: np.ndarray, out: np.ndarray) -> tuple[float, float]:
    """(||P_0 alpha (F - f)||, ||Q alpha (F - f)||) of ``misfit`` = F - f; ``out`` is left holding Q alpha (F - f).

    alpha (F - f) is formed in ``misfit``, in place, and transformed into
    ``out``; its k = 0 entries, the component means, give the mean part and
    are then zeroed (:func:`~nearelliptic.linear._zero_gauge`), so that
    ``out`` holds the coefficients of the gauged part, whose norm is the
    next step d.
    """
    half.forward(np.multiply(alpha, misfit, out=misfit), out=out)
    means = out.reshape(out.shape[0], -1)[:, 0]
    mean = math.sqrt(half.grid.volume * float(np.vdot(means, means).real))
    return mean, half.norm(_zero_gauge(out))


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
    ``uhat``, its packed hessian, its F and the closed trace, which
    carries the distance bound.  The hessian and F are the call's own
    arrays, which the caller takes over (see the module notes).
    """
    g = f_phys.grid
    plan = spectral_plan(spec.tensor, g)
    half = plan.half
    fnorm = _rhs_norm(f_phys)
    tol_abs = config.tol_residual * (fnorm if fnorm > 0 else 1.0)
    weight = spec.grid_weight(g)
    f = f_phys.data
    K, T = certificate.contraction, _reach(certificate)
    alpha_rms = math.sqrt(float(np.mean(np.square(alpha))))  # ||alpha||_2 / sqrt(L^n)

    # the call's arrays: every step writes into these (see the module notes)
    work = half.work_buffer()
    packed = np.empty((g.N, len(half.hessian)) + g.shape)
    F, misfit = np.empty_like(f), np.empty_like(f)
    step = np.empty((g.N,) + half.shape, dtype=complex)
    # misfit is F - f of the current iterate: its norm is the residual of one
    # step and, once that is taken, it is scaled by alpha in place and gauged
    # into the step of the next
    if start is None:
        np.subtract(_at_zero_hessian(spec, g), f, out=misfit)
        op = np.zeros_like(step)  # A : D^2 0
    else:
        np.subtract(start[1].data, f, out=misfit)
        op = plan.apply(start[0])
    # a bound from above on ||A : D^2 u|| of the current iterate, for the round-off floor (see the module notes)
    image = half.norm(op)
    _, metric = _gauged_step(half, alpha, misfit, step)

    trace = IterationTrace()
    for _ in range(config.max_iters):
        # the image A : D^2 u_k = A : D^2 u_{k-1} - Q alpha (F_{k-1} - f), and u_k solves it (see the module notes)
        uhat = plan.invert(np.subtract(op, step, out=op))
        hess = half.hessian_pairs(uhat, work, packed)
        evaluate_pairs(spec, packed.reshape(g.N, -1, g.points), weight, F.reshape(g.N, -1))
        np.subtract(F, f, out=misfit)
        residual = _l2(misfit, g.cell_volume)
        image += metric
        floor = STAGNATION_FLOOR * max(1.0, image, fnorm)
        if not residual <= tol_abs:
            # the next step's transform, made here: its mean part bounds every later residual
            mean, following = _gauged_step(half, alpha, misfit, step)
            prev = trace.records[-1].metric if trace.records else 0.0
            kept_to_K = prev > 0 and metric / prev <= K and following <= K * metric  # both observed ratios
            if kept_to_K and mean - T * following > alpha_rms * tol_abs:
                floor = math.inf  # no later residual falls below (mean - T following)/alpha_rms (see the module notes)
        if trace.advance(metric, residual, tol_abs, floor):
            break
        metric = following
    # the steps after the last sum to at most K/(1 - K) times it, or to 1/(1 - K) times the next one, when made
    trace.distance_bound = K / (1.0 - K) * metric if trace.status == "converged" else following / (1.0 - K)
    trace.finish(certificate)
    return uhat, hess, VectorField(g, _readonly(F), PHYSICAL), trace


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
    return HessianPairs(g, _readonly(hw.data - hv.data)).norm(), float(np.sqrt(g.cell_volume * ((Fw - Fv) ** 2).sum()))


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
