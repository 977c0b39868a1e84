"""Solving a perturbed system through an already-solvable anchor operator.

Given a certified solver for F and a second map G whose increment distance

    nu(F, G) = sup_x sup_{X != Y} |(F(x,Y) - F(x,X)) - (G(x,Y) - G(x,X))| / |Y - X|

is smaller than the inverse-modulus lower bound nu(F) of F, the outer
iteration

    u_{k+1} = F^{-1}[ F(., D^2 u_k) - (G(., D^2 u_k) - g) ]

contracts in the metric ||F(., D^2 u) - F(., D^2 v)|| with factor
nu(F,G)/nu(F) and solves G(., D^2 u) = g.  The true nu(F) over all fields is
not computable; the certificate-derived lower bound

    nu(A) (1 - sqrt(beta + gamma)) / sup(alpha)

is the sound admission gate.  A sampled empirical minimum is reported next
to it and checks it: the bound is a lower bound on the very ratio sampled,
so a sample below it (``certificate_suspect``) means the certificate of F,
or the code, is wrong.

The outer loop runs on the inner solve's own state.  Each inner solve is
the iteration core of :mod:`nearelliptic.campanato` (``_iterate``), on
inputs checked once per call; it returns its last iterate's half spectrum,
packed hessian and F.  F of the outer iterate is that F, G is evaluated on
that packed hessian, the next inner solve starts from the kept half
spectrum and F, and u is transformed to physical space once, at the end.
The loop builds no n^2 hessian and computes no hessian or F twice; every
inner right-hand side F - (G - g) is still checked finite, since it can
overflow.

The first inner solve, from u = 0, has the right-hand side
F(., 0) - G(., 0) + g, which is g for F and G that vanish at 0.  Its k = 0
mean is that of g = G(., D^2 u*), which F of no zero-mean iterate matches
in general: the inner residual levels off at the mean's share of it,
above the inner tolerance, while the steps still shrink.  The inner solve
stops there as a stall once its certificate proves the tolerance out of
reach, rather than at round-off, and the outer loop corrects the mean.
The proof is the one stall bound of :mod:`nearelliptic.campanato`, the
mean bound: the norm of the mean part of alpha (F - rhs), less K/(1 - K)
times the next step, over the root mean square of alpha, bounds every
later residual from below.  It holds about where the residual levels off:
on perfbench's stability inputs at seeds 901 and 902 that solve takes 5-6
steps.  The report's ``inner_iterations`` counts the steps of each inner
solve.

The admission runs on the half spectrum: :func:`empirical_nu_F` draws only
the band of its band-limited fields, from one generator, and takes their
packed hessians by one inverse real transform each, made in place in one
work buffer one component at a time, so it makes no full complex
transform, no forward transform and no n^2 hessian.

The admission belongs to the operator pair and the grid, not to the data g,
and both of its sampled estimates are seeded, so each is computed once per
(F, G) and per (F, grid): :func:`nu_FG_estimate` and :func:`empirical_nu_F`
are ``functools.lru_cache`` functions of the last ``_ADMISSION_CACHE_SIZE``
calls.  A spec is keyed by identity (``NonlinearitySpec`` compares by
identity and owns read-only copies of its tensor entries and weight field),
the grid by value.  A caller that solves for many right-hand sides reuses
its spec objects; an equal spec built anew is computed again.  A miss
computes as before, and an exception is not stored.  Each function has
``cache_clear()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .campanato import (
    STAGNATION_FLOOR,
    IterationTrace,
    SolveConfig,
    _at_zero_hessian,
    _checked_alpha,
    _increment_norms,
    _iterate,
    _rhs_norm,
)
from .certify import EllipticityCertificate, SamplerConfig, _increments
from .errors import InputError, NearnessConditionError
from .fields import GridSpec, VectorField, _band_half_spectra, half_spectrum, l2_norm
from .nonlinearity import NonlinearitySpec, NormComboPerturbation, SinePerturbation, evaluate_field

# relative slack of the empirical check, as for round-off in the sampled ratio
SUSPECT_SLACK = 1e-9
EMPIRICAL_PAIRS = 8
EMPIRICAL_SEED = 11
_ADMISSION_CACHE_SIZE = 32


def nu_F_lower_bound(certificate: EllipticityCertificate) -> float:
    """Certified lower bound nu(A)(1 - sqrt(beta + gamma)) / sup(alpha) for the increment modulus."""
    certificate.require_feasible()
    return certificate.nu * (1.0 - certificate.contraction) / certificate.alpha_sup


@dataclass(frozen=True)
class NuFGEstimate:
    """Sampled pointwise distance ratio, with an analytic bound when the catalog provides one."""

    sampled: float
    analytic: float | None

    @property
    def effective(self) -> float:
        """Value used for admission: the analytic bound when available (sound), else the sample max."""
        return self.analytic if self.analytic is not None else self.sampled


def _perturbation_distance_bound(specF: NonlinearitySpec, specG: NonlinearitySpec) -> float | None:
    """Lipschitz bound on the increment difference for matching catalog specs, else None."""
    if not np.array_equal(specF.tensor.entries, specG.tensor.entries):
        return None
    wF, wG = specF.weight, specG.weight
    if isinstance(wF, np.ndarray) or isinstance(wG, np.ndarray):
        if not (isinstance(wF, np.ndarray) and isinstance(wG, np.ndarray) and np.array_equal(wF, wG)):
            return None
    elif wF != wG:
        return None
    pF, pG = specF.perturbation, specG.perturbation
    n = specF.n
    if pF is None and pG is None:
        return 0.0
    if pF is None or pG is None:
        present = pF if pF is not None else pG
        return present.lipschitz_bound(n)
    if isinstance(pF, SinePerturbation) and isinstance(pG, SinePerturbation):
        return abs(pF.amplitude - pG.amplitude)
    if isinstance(pF, NormComboPerturbation) and isinstance(pG, NormComboPerturbation):
        return abs(pF.b - pG.b) + np.sqrt(n) * abs(pF.c - pG.c)
    return None


@lru_cache(maxsize=_ADMISSION_CACHE_SIZE)
def nu_FG_estimate(specF: NonlinearitySpec, specG: NonlinearitySpec) -> NuFGEstimate:
    """Maximum sampled increment-distance ratio between two nonlinearities.

    2000 Gaussian rays read at the lengths of ``certify.SCALES``, at
    seed 3, drawn by the certificate sampler: each ray is one (x, X) and a
    direction Z0, with Z = scale * Z0.  Weights are sampled from the grid when
    spatially varying.  The sample maximum is a lower estimate of the true
    supremum, which is why the analytic catalog bound, when known, is the
    one used for admission decisions.  The estimate is computed once per
    (F, G): it is kept in a bounded LRU keyed on the two spec objects (see
    the module docstring), and a later call with the same specs returns the
    same :class:`NuFGEstimate`.
    """
    if (specF.N, specF.n) != (specG.N, specG.n):
        raise InputError("specs must share dimensions")
    worst = 0.0
    for _, _, _, _, _, (dF, dG), zz, _ in _increments(SamplerConfig(count=2000, seed=3), specF, specG):
        num = np.sqrt(((dF - dG) ** 2).sum(axis=0))
        den = np.sqrt(zz)
        good = den > 0
        if np.any(good):
            worst = max(worst, float((num[good] / den[good]).max()))
    return NuFGEstimate(sampled=worst, analytic=_perturbation_distance_bound(specF, specG))


@lru_cache(maxsize=_ADMISSION_CACHE_SIZE)
def empirical_nu_F(spec: NonlinearitySpec, grid: GridSpec) -> float:
    """Minimum of ||F(., D^2 w) - F(., D^2 v)|| / ||D^2(w - v)|| over random field pairs.

    The 8 pairs are 16 band-limited fields with band max(1, M/4), consecutive
    fields forming a pair, drawn by one generator at seed 11 with the law of
    :func:`~nearelliptic.fields.band_limited_coefficients` but only over the
    band (``fields._band_half_spectra``).  Each field goes from its
    half-spectrum coefficients straight to the packed hessian (the inverse
    transform of its n(n+1)/2 distinct components, made one field component
    at a time in one shared work buffer of that component's slots:
    :meth:`~nearelliptic.fields.HalfSpectrum.hessian_pairs`), and F
    and both norms are taken on those slots as in ``verify_comparison``; no
    field is transformed to physical space first and no n^2 hessian is
    built.  The value is computed once per (F, grid): it is kept in a
    bounded LRU keyed on the spec object and the grid's value (see the
    module docstring), so only a call with a new (F, grid) draws and
    evaluates.
    """
    half = half_spectrum(grid)
    work = half.work_buffer()
    fields = _band_half_spectra(grid, max(1, grid.M // 4), 2 * EMPIRICAL_PAIRS, EMPIRICAL_SEED)
    hessians = (half.hessian_pairs(coef, work) for coef in fields)
    best = np.inf
    for hw, hv in zip(hessians, hessians):
        den, num = _increment_norms(spec, hw, hv)
        if den > 0:
            best = min(best, num / den)
    return float(best)


@dataclass(frozen=True, eq=False)
class StabilityReport:
    nu_F_lower: float
    nu_F_empirical: float
    nu_FG: NuFGEstimate
    condition_met: bool
    outer_trace: IterationTrace | None
    inner_iterations: tuple[int, ...] | None = None  # of the inner solve of each outer step

    @property
    def certificate_suspect(self) -> bool:
        """True when the sampled modulus is below the certified bound on it: F's certificate, or the code, is wrong.

        It catches a forged nu or alpha; a forged beta or gamma almost never,
        since ``nu_F_lower`` = nu (1 - sqrt(beta + gamma))/alpha_sup stays
        below the sampled modulus, which sits near nu/alpha_sup.
        """
        return self.nu_F_empirical < self.nu_F_lower * (1.0 - SUSPECT_SLACK)

    @property
    def admission_margin(self) -> float:
        """nu_F_lower - nu_FG.effective: positive when admitted, <= 0 when refused."""
        return self.nu_F_lower - self.nu_FG.effective

    def as_dict(self) -> dict:
        return {
            "nu_F_lower": self.nu_F_lower,
            "nu_F_empirical": self.nu_F_empirical,
            "nu_FG_sampled": self.nu_FG.sampled,
            "nu_FG_analytic": self.nu_FG.analytic,
            "condition_met": self.condition_met,
            "admission_margin": self.admission_margin,
            "certificate_suspect": self.certificate_suspect,
            "outer_iterations": None if self.outer_trace is None else self.outer_trace.iterations,
            "inner_iterations": None if self.inner_iterations is None else list(self.inner_iterations),
        }


def solve_via_nearness(
    specF: NonlinearitySpec,
    specG: NonlinearitySpec,
    alphaF,
    certificateF: EllipticityCertificate,
    g: VectorField,
    config: SolveConfig = SolveConfig(),
) -> tuple[VectorField, StabilityReport]:
    """Solve G(., D^2 u) = g through the certified F solver.

    Refuses (with the report attached to the exception) when the estimated
    increment distance does not fall below the certified lower bound on the
    modulus of F.  The outer loop starts at u = 0, since it contracts to one
    fixed point from any start: F(., 0) and G(., 0) are each taken at one
    point and broadcast, and the first inner solve starts cold, so no
    hessian of zero is built.  Later inner solves warm-start from the
    current outer iterate's kept half spectrum and F (see the module
    notes).  ``alphaF`` is checked as by :func:`campanato_solve`, once, after
    the admission.  The outer loop stops by the rule of the inner
    one (:meth:`IterationTrace.advance`) in the metric
    ||F(., D^2 u_k) - F(., D^2 u_{k-1})||: on the residual, on a stall at
    round-off, or with a ``DivergenceError`` citing ``certificateF`` once it
    stops contracting; it takes at most 60 outer steps.  A ``g`` that is
    not finite or whose L2 norm overflows is an InputError, before the
    admission; so is an inner right-hand side F - (G - g) that overflows.
    """
    g.require_finite("right-hand side")
    g_phys = g.to_physical()
    gnorm = _rhs_norm(g_phys)
    lower = nu_F_lower_bound(certificateF)
    estimate = nu_FG_estimate(specF, specG)
    grid = g.grid
    empirical = empirical_nu_F(specF, grid)
    condition = estimate.effective < lower
    if not condition:
        report = StabilityReport(
            nu_F_lower=lower,
            nu_F_empirical=empirical,
            nu_FG=estimate,
            condition_met=False,
            outer_trace=None,
        )
        raise NearnessConditionError(
            f"nearness admission failed: nu(F,G) ~ {estimate.effective:g} is not below "
            f"the certified bound nu(F) >= {lower:g}",
            report=report,
        )

    alpha = _checked_alpha(specF, alphaF, grid, certificateF)
    tol_abs = config.tol_residual * (gnorm if gnorm > 0 else 1.0)
    inner_config = replace(config, tol_residual=0.1 * config.tol_residual)

    # F and G of the current iterate; each inner solve returns its last
    # iterate's half spectrum, packed hessian and F, and G is taken on that
    # hessian, so the bottom of iteration k computes them for the top of k + 1
    state = None  # the first inner solve starts cold
    shape = (grid.N,) + grid.shape
    F_u, G_u = (VectorField(grid, np.broadcast_to(_at_zero_hessian(s, grid), shape)) for s in (specF, specG))
    F_prev = F_u
    trace = IterationTrace()
    inner = []
    for _ in range(60):
        rhs = (F_u - (G_u - g_phys)).require_finite("right-hand side")
        uhat, hess, F_u, inner_trace = _iterate(specF, alpha, rhs, certificateF, inner_config, state)
        inner.append(inner_trace.iterations)
        state = (uhat, F_u)
        G_u = evaluate_field(specG, hess)
        del hess  # freed before the next inner solve makes its own
        floor = STAGNATION_FLOOR * max(1.0, l2_norm(F_u), gnorm)
        if trace.advance(l2_norm(F_u - F_prev), l2_norm(G_u - g_phys), tol_abs, floor):
            break
        F_prev = F_u
    trace.finish(certificateF)
    u = half_spectrum(grid).physical_field(uhat)

    report = StabilityReport(
        nu_F_lower=lower,
        nu_F_empirical=empirical,
        nu_FG=estimate,
        condition_met=True,
        outer_trace=trace,
        inner_iterations=tuple(inner),
    )
    return u, report
