"""Ellipticity certification: sampling checks and constant fitting.

Two equivalent sets of constants describe ellipticity of a nonlinearity
relative to its anchor tensor A with rank-one constant nu:

* the quadratic-bound form ("two-constant" or K form), beta, gamma > 0 with
  beta + gamma < 1:

      |A:Z - alpha(x) (F(x, X+Z) - F(x, X))|^2
          <= beta nu^2 |Z|^2 + gamma |A:Z|^2,

* the signed form, lambda > kappa > 0:

      (A:Z)^T (F(x, X+Z) - F(x, X))
          >= lambda/alpha(x) |A:Z|^2 - kappa/alpha(x) nu^2 |Z|^2.

Quantifying over all (x, X, Z) is not decidable at desk scale; the verifier
and the fitter sample Gaussian (x, X, Z) triples and report the worst
violation, so every certificate means "certified on samples", never a
proof.  beta and gamma are global; only alpha may vary with x.  The scale
sweep :data:`SCALES` probes non-homogeneity: each sample is one ray, (x, X)
and a Gaussian direction Z0, read at Z = scale * Z0 for every scale, so
F(x, X) is evaluated once per sample and F(x, X+Z) once per scale.  The
sweep is one module constant, read at call time; the bound quantifies over
every Z, and the sweep is only how the sampler probes that.

The samples are packed, component-major (N, n(n+1)/2, count).  X and Z are
symmetric Gaussian matrices, and only their n(n+1)/2 distinct entries are
drawn: the diagonal ones N(0, 1), the off-diagonal ones N(0, 1/2), all
independent, which is the law of 0.5 (X + X^T) for a standard Gaussian X
(:func:`_draw_symmetric`).  Every Gaussian value of the sampler, these and
lemma 1's eta and a, is drawn by Box–Muller from ``Generator.random``
uniforms (:func:`_standard_normal`), about twice as fast as numpy's ziggurat
``standard_normal``: the law is N(0, 1) with the tail past about 8.57 sigma
(mass 1e-17) cut, and a seed gives other values than ``standard_normal``
would.  F is evaluated on the samples by the solvers' one evaluator,
:func:`~nearelliptic.nonlinearity.evaluate_pairs`; verify, fit and the
stability admission's nu(F, G) read their increments from one helper,
:func:`_increments`.

A ``nu`` passed to verify, fit, lemma 1 or the example-1 certificate must be
finite and positive; without one, nu(A) is searched and must be positive.
Both rules are :func:`~nearelliptic.tensors._certified_nu`'s, which the
linear solver shares; anything else is an InputError.

Work arrays.  The sampler keeps three (N, n(n+1)/2, count) float64 arrays
per (count, N, n), X, Z0 and W, for the last :data:`WORKSPACE_CACHE_SIZE`
keys, so a repeated certificate allocates and faults in no sample array.
A draw needs no array for its uniforms: Box–Muller draws the radius
uniforms into the head of the array it fills and turns them into radii
there, and streams the angle uniforms through a small tile.  Each scale
forms Z = scale * Z0 in W, takes A:Z and |Z|^2 from it, forms Z there
again and adds X, so W holds X + Z for F.  Lemma 1 forms Z and then X + Z
in W, and draws eta and a into Z0's array, which it leaves free.  A caller
checks the arrays out for the length of its call; a second caller of the
same key while they are out gets fresh ones.  Of a sampling generator's
yield, X and Z0 are work arrays, valid until the generator finishes;
everything else it yields is fresh.  Everything in a report or a
certificate, and every value the sampler's callers keep, is the caller's
own copy.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import InputError, finite_number, report_json
from .fields import HessianPairs
from .nonlinearity import NonlinearitySpec, evaluate_pairs
from .tensors import _certified_nu, contract_pairs

CONSTANT_FLOOR = 1e-6
# the margin 1 - (beta + gamma) at which def2_from_def1 takes its sigma
MARGIN_FLOOR = 2.0 * np.finfo(float).eps
# bound on the round-off absorption steps of fit_k_condition
ABSORB_STEPS = 64
# the lengths |Z| / |Z0| at which every sampled ray is read
SCALES = (1e-2, 1.0, 1e2)
# the most (count, N, n) keys whose work arrays are kept between calls
WORKSPACE_CACHE_SIZE = 4
# the angle uniforms of a Box–Muller draw taken at a time (_standard_normal)
NORMAL_TILE = 8192

# key -> the kept work arrays that no caller has checked out, oldest given back first
_workspaces: dict[tuple[int, int, int], np.ndarray] = {}
_workspaces_lock = threading.Lock()


@dataclass(frozen=True)
class SamplerConfig:
    """Gaussian sampling plan: ``count`` rays (x, X, Z0) at ``seed``.

    Each ray is read at Z = scale * Z0 for every scale of :data:`SCALES`.
    """

    count: int = 1500
    seed: int = 0

    def __post_init__(self):
        if finite_number(self.count, "sampler count", integer=True) < 1:
            raise InputError(f"sampler count must be >= 1, got {self.count}")


@dataclass(frozen=True, eq=False)
class EllipticityCertificate:
    """Fitted or declared ellipticity constants plus the sampling evidence."""

    nu: float
    beta: float
    gamma: float
    lam: float
    kappa: float
    alpha: float | None
    alpha_bounds: tuple[float, float]
    lipschitz_M: float
    sample_count: int = 0
    worst_violation: float | None = None

    @property
    def feasible(self) -> bool:
        return self.beta > 0 and self.gamma > 0 and self.beta + self.gamma < 1

    @property
    def contraction(self) -> float:
        """Lipschitz constant sqrt(beta + gamma) of the fixed-point map in the nearness metric."""
        return float(np.sqrt(self.beta + self.gamma))

    @property
    def alpha_sup(self) -> float:
        return self.alpha_bounds[0]

    def require_feasible(self) -> "EllipticityCertificate":
        if not self.feasible:
            raise InputError(
                f"certificate infeasible: beta={self.beta}, gamma={self.gamma}, "
                f"beta+gamma={self.beta + self.gamma}"
            )
        return self

    def as_dict(self) -> dict:
        return {
            "nu": self.nu,
            "beta": self.beta,
            "gamma": self.gamma,
            "lambda": self.lam,
            "kappa": self.kappa,
            "alpha": self.alpha,
            "alpha_bounds": list(self.alpha_bounds),
            "lipschitz_M": self.lipschitz_M,
            "sample_count": self.sample_count,
            "worst_violation": self.worst_violation,
        }

    def to_text(self) -> str:
        """JSON of :meth:`as_dict`; the NaN constants of an infeasible fit are written as null."""
        return report_json(self.as_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "EllipticityCertificate":
        """The inverse of :meth:`as_dict`.

        ``nu``, ``beta``, ``gamma``, ``lambda``, ``kappa``, ``lipschitz_M`` and
        the pair ``alpha_bounds`` must be finite numbers, the pair positive,
        ``alpha`` and ``worst_violation`` finite too when given, and
        ``sample_count``, 0 when absent, a non-negative integer; anything
        else is an InputError.
        """
        if not isinstance(doc, dict):
            raise InputError(f"certificate must be a mapping, got {doc!r}")
        bounds = doc.get("alpha_bounds")
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise InputError(f"certificate 'alpha_bounds' must be a pair, got {bounds!r}")
        for value in bounds:  # sup alpha and sup 1/alpha
            if finite_number(value, "certificate 'alpha_bounds'") <= 0:
                raise InputError(f"certificate 'alpha_bounds' must be positive, got {bounds!r}")
        given = tuple(key for key in ("alpha", "worst_violation") if doc.get(key) is not None)
        for key in ("nu", "beta", "gamma", "lambda", "kappa", "lipschitz_M") + given:
            finite_number(doc.get(key), f"certificate {key!r}")
        sample_count = finite_number(doc.get("sample_count", 0), "certificate 'sample_count'", integer=True)
        return cls(
            nu=doc["nu"],
            beta=doc["beta"],
            gamma=doc["gamma"],
            lam=doc["lambda"],
            kappa=doc["kappa"],
            alpha=doc.get("alpha"),
            alpha_bounds=tuple(bounds),
            lipschitz_M=doc["lipschitz_M"],
            sample_count=sample_count,
            worst_violation=doc.get("worst_violation"),
        )


@dataclass(frozen=True, eq=False)
class KConditionReport:
    """Sampled verification outcome: worst LHS - RHS gap and where it occurred."""

    worst_violation: float
    worst_sample: tuple  # (scale, X, Z, alpha) of the worst sample
    sample_count: int
    violations: np.ndarray  # LHS - RHS per sample
    scales: np.ndarray  # the scale of each sample

    @property
    def certified(self) -> bool:
        return self.worst_violation <= 0.0

    def violations_csv(self) -> str:
        """Per-sample gaps for plotting, one row per (scale, sample).

        Rows k of the scales are one ray: they share (x, X), and their Z are
        the scales times one Gaussian Z0.
        """
        lines = ["scale,violation"]
        for s, v in zip(self.scales, self.violations):
            lines.append(f"{float(s)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"


def _standard_normal(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, C-contiguous float64, with independent N(0, 1) values by Box–Muller.

    Box and Muller, Ann. Math. Stat. 29 (1958): for the S entries of ``out``
    and h = ceil(S/2), the first h uniforms of ``rng.random`` go straight
    into the head of ``out`` and become the radii r = sqrt(-2 log(1 - u0))
    there; the next h, the angle uniforms u1, are drawn in order
    :data:`NORMAL_TILE` at a time into a small tile, theta = 2 pi (u1 - 1/2).
    Pair k takes the k-th of each, and entry k of ``out`` is r cos theta and
    entry h + k is r sin theta (the last sine is dropped when S is odd);
    entry h + k is written before the radius at entry k is overwritten, and
    nothing of the sample's size is allocated.  ``rng.random`` goes on with
    one stream across calls, so the values and the generator's final state
    are those of one draw of 2h uniforms.  cos and sin come from
    t = tan(theta/2) as (1 - t^2)/(1 + t^2) and 2t/(1 + t^2), the idiom of
    ``SinePerturbation.delta_pairs``: numpy 2.4's float64 ``sin`` and
    ``cos`` each take about six times as long as its ``tan`` (90000 values,
    an AVX-512 Xeon).  1 - u0 >= 2^-53, so |value| <= sqrt(2 * 53 ln 2),
    about 8.57: the tail past 8.57 sigma, of mass about 1e-17, is never
    drawn.
    """
    flat = out.reshape(-1)  # a view, since out is C-contiguous
    size = flat.size
    half = (size + 1) // 2
    radius = flat[:half]
    rng.random(out=radius)
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    # two tile arrays, each under glibc's default mmap threshold of 128 KiB
    angles, quotients = np.empty(min(NORMAL_TILE, half)), np.empty(min(NORMAL_TILE, half))
    for start in range(0, half, NORMAL_TILE):
        stop = min(start + NORMAL_TILE, half)
        t, scaled = angles[: stop - start], quotients[: stop - start]
        rng.random(out=t)
        t -= 0.5
        t *= np.pi
        np.tan(t, out=t)
        # r / (1 + t^2), the sine entries from it, then the cosine entries over the radii
        np.multiply(t, t, out=scaled)
        scaled += 1.0
        np.divide(radius[start:stop], scaled, out=scaled)
        sine = flat[half + start : half + stop]  # one short at the end when S is odd
        np.multiply(t[: len(sine)], scaled[: len(sine)], out=sine)
        sine *= 2.0
        np.multiply(t, t, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(scaled, t, out=radius[start:stop])
    return out


def _draw_symmetric(rng: np.random.Generator, out: np.ndarray, n: int) -> np.ndarray:
    """Fill ``out`` (N, n(n+1)/2, count), C-contiguous float64, with ``count`` packed symmetric Gaussian matrices.

    :func:`_standard_normal` fills the packed slots in place, and each
    off-diagonal slot is scaled in place by sqrt(1/2).  That is the law of
    the upper triangle of 0.5 (X + X^T) for a standard Gaussian X: diagonal
    entries N(0, 1), off-diagonal entries N(0, 1/2), all independent.  The
    values are not those of ``rng.standard_normal`` (numpy's ziggurat) at
    the same seed: the law is the same, the stream is not.
    """
    _standard_normal(rng, out)
    out *= np.sqrt(1.0 / HessianPairs.multiplicity(n))[:, None]  # exactly 1 on the diagonal
    return out


@contextmanager
def _workspace(count: int, N: int, n: int):
    """The (3, N, n(n+1)/2, count) float64 work arrays of the key, checked out for the ``with`` block.

    Kept arrays are handed out when no other caller holds them, fresh ones
    otherwise; on exit they are given back, and the oldest key past
    :data:`WORKSPACE_CACHE_SIZE` is dropped.  Their contents on entry are
    arbitrary.  A block of 24 N n(n+1)/2 ``count`` bytes, the three arrays,
    past the memory budget ``fields._DEFAULT_BUDGET`` is an InputError,
    raised before anything is allocated.
    """
    block = 24 * N * (n * (n + 1) // 2) * count
    if block > fields._DEFAULT_BUDGET:
        raise InputError(
            f"{count} samples need a {block}-byte work block, over the memory budget {fields._DEFAULT_BUDGET} bytes"
        )
    key = (count, N, n)
    with _workspaces_lock:
        work = _workspaces.pop(key, None)
    if work is None:
        work = np.empty((3, N, n * (n + 1) // 2, count))
    try:
        yield work
    finally:
        with _workspaces_lock:
            _workspaces[key] = work
            while len(_workspaces) > WORKSPACE_CACHE_SIZE:
                del _workspaces[next(iter(_workspaces))]


def sample_weights(rng: np.random.Generator, count: int, *specs: NonlinearitySpec):
    """Flat grid indices drawn for the spatially varying weights, and each spec's weights there.

    The indices are None when every weight is constant.  Varying weights share
    the indices, so they must lie on one grid: fields of different shapes are
    an :class:`InputError`.
    """
    varying = [s.weight for s in specs if isinstance(s.weight, np.ndarray)]
    shapes = sorted({w.shape for w in varying})
    if len(shapes) > 1:
        raise InputError(f"weight fields on different grids cannot be sampled together: shapes {shapes}")
    flat = rng.integers(0, varying[0].size, size=count) if varying else None
    weights = [
        s.weight.ravel()[flat] if isinstance(s.weight, np.ndarray) else np.full(count, s.weight) for s in specs
    ]
    return flat, weights


def _increments(sampler: SamplerConfig, *specs: NonlinearitySpec):
    """(scale, x indices, X, Z0, A:Z, each spec's F(X+Z) - F(X), |Z|^2, |A:Z|^2) per scale; A of the first spec.

    Each sample is one ray: X, then one Gaussian Z0, then the grid points x
    are drawn once, in that order, and each scale reads Z = scale * Z0.  Z0
    is not normalised, so each scale's samples keep the law of an
    independent draw; only the scales are coupled.  The specs share their
    dimensions and the drawn x; the samplers of verify, fit and nu(F, G) all
    draw here.  X is the same at every scale, so each spec's F(X) is
    evaluated once and only F(X+Z) per scale.  Each scale forms Z in the
    third work array, takes A:Z and then |Z|^2 from it (squared in place),
    forms Z there again and adds X, and evaluates F(X+Z) into the array of
    its increment, from which F(X) is subtracted in place.  X and Z0 are
    work arrays, valid until the generator finishes; a caller that needs a
    sample's Z forms scale * Z0 there.  The rest is fresh.
    """
    n = specs[0].n
    rng = np.random.default_rng(sampler.seed)
    with _workspace(sampler.count, specs[0].N, n) as (X, Z0, W):
        _draw_symmetric(rng, X, n)
        _draw_symmetric(rng, Z0, n)
        flat, weights = sample_weights(rng, sampler.count, *specs)
        FX = [evaluate_pairs(spec, X, w) for spec, w in zip(specs, weights)]
        for scale in SCALES:
            np.multiply(scale, Z0, out=W)
            AZ = contract_pairs(specs[0].tensor, W)
            np.square(W, out=W)
            zz = (HessianPairs.multiplicity(n) @ W).sum(axis=0)  # off-diagonal slots count twice
            np.multiply(scale, Z0, out=W)
            W += X
            D = [evaluate_pairs(spec, W, w, np.empty_like(fx)) for spec, w, fx in zip(specs, weights, FX)]
            for d, fx in zip(D, FX):
                d -= fx
            yield scale, flat, X, Z0, AZ, D, zz, (AZ**2).sum(axis=0)
            del AZ, D, zz  # the caller holds this scale's arrays for as long as it needs them


def _alpha_values(alpha, flat_idx):
    """alpha at the drawn grid points of a field, or the constant itself as a float."""
    if isinstance(alpha, np.ndarray):
        if flat_idx is None:
            raise InputError("spatially varying alpha requires a spatially varying weight grid")
        return alpha.ravel()[flat_idx]
    return float(alpha)


def alpha_bounds_of(alpha) -> tuple[float, float]:
    """(sup alpha, sup 1/alpha) for a constant or a positive field."""
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise InputError("alpha must be finite and strictly positive")
    return float(arr.max()), float((1.0 / arr).max())


def verify_k_condition(
    spec: NonlinearitySpec,
    alpha,
    beta: float,
    gamma: float,
    sampler: SamplerConfig = SamplerConfig(),
    nu: float | None = None,
) -> KConditionReport:
    """Sample the quadratic bound and report the maximum of LHS - RHS.

    A nonpositive worst violation certifies the pair (beta, gamma) on the
    drawn samples.  The argmax sample is returned for diagnosis, X and Z unpacked.
    """
    if beta <= 0 or gamma <= 0:
        raise InputError("beta and gamma must be positive")
    nu = _certified_nu(spec.tensor, nu)
    index = HessianPairs.slot_index(spec.n)
    # each scale keeps only its own worst sample, the first argmax like the global one
    candidates, violations = [], []
    for scale, flat, X, Z0, AZ, (D,), zz, waz in _increments(sampler, spec):
        al = _alpha_values(alpha, flat)
        # the gap (A:Z - alpha D)^2, formed in D's own array
        D *= al
        np.subtract(AZ, D, out=D)
        np.square(D, out=D)
        violations.append(D.sum(axis=0) - beta * nu**2 * zz - gamma * waz)
        k = int(np.argmax(violations[-1]))
        at = al[k] if isinstance(al, np.ndarray) else al
        candidates.append((scale, X[:, index, k], scale * Z0[:, index, k], float(at)))
        del AZ, D, zz, waz  # freed before the next scale forms its own
    violations = np.concatenate(violations)
    worst = int(np.argmax(violations))
    return KConditionReport(
        worst_violation=float(violations[worst]),
        worst_sample=candidates[worst // sampler.count],
        sample_count=len(violations),
        violations=violations,
        scales=np.repeat(np.asarray(SCALES, dtype=float), sampler.count),
    )


def fit_k_condition(
    spec: NonlinearitySpec,
    sampler: SamplerConfig = SamplerConfig(),
    nu: float | None = None,
) -> EllipticityCertificate:
    """Search constant alpha and the (beta, gamma) pair minimizing beta + gamma on samples.

    For each of 41 candidate alphas (log-spaced over two decades around the
    reciprocal median weight) the smallest admissible beta is a max-ratio
    over samples once gamma is fixed, so a 1-D sweep over 109 gammas in
    [1e-6, 0.99] suffices.  Constants are floored at 1e-6;
    a linear nonlinearity therefore comes back with the floor pair.
    Infeasibility (best beta + gamma >= 1) is returned, not raised.
    """
    nu = _certified_nu(spec.tensor, nu)
    alpha_grid = (1.0 / float(np.median(spec.weight))) * np.geomspace(0.1, 10.0, 41)
    gamma_grid = np.unique(np.concatenate([np.geomspace(CONSTANT_FLOOR, 0.99, 60), np.linspace(0.01, 0.99, 50)]))

    batches = [(AZ, D, zz, waz) for _, _, _, _, AZ, (D,), zz, waz in _increments(sampler, spec)]
    AZ, D, zz, waz = (np.concatenate(part, axis=-1) for part in zip(*batches))

    # beta required for each gamma: worst sample ratio after gamma absorbs |A:Z|^2,
    # (lhs - gamma |A:Z|^2) / (nu^2 |Z|^2), maximised block by block of samples
    # in one (block, gammas) work array; a max is exact, so the blocks change no bit
    block = 1024
    work = np.empty((min(block, len(zz)), len(gamma_grid)))
    scaled_zz = nu**2 * zz
    best = None
    for alpha in alpha_grid:
        lhs = ((AZ - alpha * D) ** 2).sum(axis=0)
        beta_req = np.full(len(gamma_grid), -np.inf)
        for start in range(0, len(zz), block):
            part = slice(start, start + block)
            needed = work[: len(zz[part])]
            np.multiply(gamma_grid, waz[part, None], out=needed)
            np.subtract(lhs[part, None], needed, out=needed)
            needed /= scaled_zz[part, None]
            np.maximum(beta_req, needed.max(axis=0), out=beta_req)
        beta_req = np.maximum(beta_req, CONSTANT_FLOOR)
        sums = beta_req + gamma_grid
        k = int(np.argmin(sums))
        if best is None or sums[k] < best[0]:
            best = (float(sums[k]), float(alpha), float(beta_req[k]), float(gamma_grid[k]))

    _, alpha, beta, gamma = best
    lhs = ((AZ - alpha * D) ** 2).sum(axis=0)
    # round-off from recomputation; absorb it into beta so the returned pair
    # certifies the drawn samples exactly, by the worst sample's own shortfall.
    # A step can be lost to rounding (beta + step == beta, or the recomputed
    # margin rounds back above 0), so repeat it, at least one ulp at a time.
    margin = lhs - beta * nu**2 * zz - gamma * waz
    for _ in range(ABSORB_STEPS):
        k = int(np.argmax(margin))
        if margin[k] <= 0:
            break
        beta = max(beta + float(margin[k]) / (nu**2 * float(zz[k])), float(np.nextafter(beta, np.inf)))
        margin = lhs - beta * nu**2 * zz - gamma * waz
    worst = float(margin.max())
    if beta > 0 and gamma > 0 and beta + gamma < 1:
        lam, kappa = def1_from_def2(beta, gamma)
    else:
        lam, kappa = float("nan"), float("nan")
    return EllipticityCertificate(
        nu=nu,
        beta=beta,
        gamma=gamma,
        lam=lam,
        kappa=kappa,
        alpha=alpha,
        alpha_bounds=(alpha, 1.0 / alpha),
        lipschitz_M=spec.f_lipschitz_bound(),
        sample_count=len(zz),
        worst_violation=worst,
    )


def def1_from_def2(beta: float, gamma: float) -> tuple[float, float]:
    """Signed-form constants from the quadratic-bound pair: lambda = (1-gamma)/2, kappa = beta/2."""
    if beta <= 0 or gamma <= 0 or beta + gamma >= 1:
        raise InputError(f"need beta, gamma > 0 with beta + gamma < 1, got ({beta}, {gamma})")
    lam = (1.0 - gamma) / 2.0
    kappa = beta / 2.0
    return lam, kappa


@dataclass(frozen=True)
class Def2Conversion:
    """Outcome of converting signed-form constants to the quadratic bound; NaNs and ``anomaly`` when it fails."""

    sigma: float
    beta: float
    gamma: float
    alpha_scale: float
    margin: float
    sigma_floor: float
    anomaly: bool = False


def def2_from_def1(
    lam: float, kappa: float, M: float, alpha_sup: float, nu: float
) -> Def2Conversion:
    """The smallest sigma > 2 whose quadratic-bound pair keeps a margin of MARGIN_FLOOR.

    beta(sigma) = (2/sigma) (kappa/lambda + (1/(2 sigma)) (M alpha_sup / (lambda nu))^2),
    gamma(sigma) = 1 - 2/sigma, and the rescaled alpha carries the factor
    1/(lambda sigma).  With q = (M alpha_sup / (lambda nu))^2 and
    d = 1 - kappa/lambda the margin 1 - (beta + gamma) is 2d/sigma - q/sigma^2,
    so it first reaches tau = MARGIN_FLOOR at the smaller root of
    tau sigma^2 - 2 d sigma + q = 0, q / (d + sqrt(d^2 - tau q)); when
    d^2 < tau q no sigma reaches tau (the largest margin, at sigma = q/d, is
    d^2/q).  sigma is that root, but at least 2 (1 + 1e-9).  A pair that is
    not feasible in floating point, beta + gamma < 1 with beta / 2 > 0 (the
    kappa of :func:`def1_from_def2`), is flagged as an anomaly instead of
    raising: q may overflow to inf, and kappa/lambda underflow to 0.  A
    constant that is not a finite number is an InputError.
    """
    for value, name in ((lam, "lambda"), (kappa, "kappa"), (M, "M"), (alpha_sup, "alpha_sup"), (nu, "nu")):
        finite_number(value, f"conversion constant {name}")
    if not (lam > kappa > 0):
        raise InputError(f"need lambda > kappa > 0, got ({lam}, {kappa})")
    if M < 0 or alpha_sup <= 0 or nu <= 0:
        raise InputError("need M >= 0, alpha_sup > 0, nu > 0")

    # float * and / overflow to inf where ** raises; dividing in turn keeps lam * nu from underflowing to 0
    r = M * alpha_sup / lam / nu
    q = r * r
    d = 1.0 - kappa / lam
    sigma_floor = max(2.0, q / (2.0 * d))
    radicand = d * d - MARGIN_FLOOR * q
    sigma_tau = q / (d + math.sqrt(radicand)) if radicand >= 0 else math.inf
    sigma = max(sigma_tau, 2.0 * (1.0 + 1e-9))
    beta = (2.0 / sigma) * (kappa / lam + q / (2.0 * sigma))
    gamma = 1.0 - 2.0 / sigma
    # beta / 2 is the pair's kappa (def1_from_def2): kappa / lambda may underflow to 0, and a subnormal beta halves to 0
    if not (beta / 2.0 > 0 and beta + gamma < 1.0):
        nan = float("nan")
        return Def2Conversion(nan, nan, nan, nan, nan, sigma_floor=sigma_floor, anomaly=True)
    return Def2Conversion(
        sigma=sigma,
        beta=beta,
        gamma=gamma,
        alpha_scale=1.0 / (lam * sigma),
        margin=1.0 - (beta + gamma),
        sigma_floor=sigma_floor,
    )


def lemma1_check(
    spec: NonlinearitySpec,
    lam: float,
    kappa: float,
    alpha,
    count: int = 2000,
    seed: int = 0,
    nu: float | None = None,
) -> float:
    """Worst margin of the rank-one consequence of the signed form.

    Samples (x, X, eta, a), forms Z = eta (x) a (x) a and returns the minimum
    of (F(x, X+Z) - F(x, X)) . (A:Z) - (lambda - kappa) nu^2 / sup(alpha)
    |eta|^2 |a|^4; nonnegative when the signed-form constants are valid.
    ``count`` must be an integer >= 1.
    """
    if finite_number(count, "lemma-1 sample count", integer=True) < 1:
        raise InputError(f"lemma-1 sample count must be >= 1, got {count!r}")
    nu = _certified_nu(spec.tensor, nu)
    alpha_sup, _ = alpha_bounds_of(alpha)
    rng = np.random.default_rng(seed)
    rows, cols = HessianPairs.components(spec.n)
    with _workspace(count, spec.N, spec.n) as (X, spare, W):
        _draw_symmetric(rng, X, spec.n)
        # eta and a, component-major so every product below runs over contiguous rows, are drawn
        # into the middle array, which lemma 1 leaves free: N + n <= N n(n+1)/2 rows of count
        free = spare.reshape(-1, count)
        eta = _standard_normal(rng, free[: spec.N])
        a = _standard_normal(rng, free[spec.N : spec.N + spec.n])
        np.multiply(eta[:, None], a[rows], out=W)
        W *= a[cols]  # Z
        AZ = contract_pairs(spec.tensor, W)
        W += X
        _, (w,) = sample_weights(rng, count, spec)
        diff = evaluate_pairs(spec, W, w)
        diff -= evaluate_pairs(spec, X, w)
        diff *= AZ
        lhs = diff.sum(axis=0)
        rhs = (lam - kappa) * nu**2 / alpha_sup * (eta**2).sum(axis=0) * ((a**2).sum(axis=0)) ** 2
    return float((lhs - rhs).min())


def example1_certificate(spec: NonlinearitySpec, nu: float | None = None) -> EllipticityCertificate:
    """Analytic certificate for weighted-anchor-plus-Lipschitz-perturbation specs.

    With alpha = 1/weight the linear parts cancel exactly and the gap is the
    perturbation difference, so beta = rho^2 with rho the declared Lipschitz
    ratio, and any gamma in (0, 1 - beta) works; this takes gamma = (1 - beta)/2.
    """
    nu = _certified_nu(spec.tensor, nu)
    rho = spec.lipschitz_ratio(nu)
    if rho >= 1:
        raise InputError(f"declared Lipschitz ratio {rho} is not below 1; no certificate")
    beta = max(rho**2, CONSTANT_FLOOR)
    gamma = (1.0 - beta) / 2.0
    lam, kappa = def1_from_def2(beta, gamma)
    alpha_const = None if isinstance(spec.weight, np.ndarray) else 1.0 / spec.weight
    return EllipticityCertificate(
        nu=nu,
        beta=beta,
        gamma=gamma,
        lam=lam,
        kappa=kappa,
        alpha=alpha_const,
        alpha_bounds=(1.0 / spec.weight_inf, spec.weight_sup),
        lipschitz_M=spec.f_lipschitz_bound(),
    )


def example1_alpha(spec: NonlinearitySpec):
    """The matching alpha = 1/weight, constant or field."""
    return 1.0 / spec.weight
