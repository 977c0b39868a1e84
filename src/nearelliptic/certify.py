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
and the fitter sample Gaussian (X, Z) pairs under a scale sweep and report
the worst violation, so every certificate means "certified on samples",
never a proof.  beta and gamma are global; only alpha may vary with x.

The samples are packed, component-major (N, n(n+1)/2, count), and F is
evaluated on them by the solvers' one evaluator,
:func:`~nearelliptic.nonlinearity.evaluate_pairs`; verify, fit and the
stability admission's nu(F, G) read their increments from one helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, finite_number, report_json
from .fields import HessianPairs
from .nonlinearity import NonlinearitySpec, contract_pairs, evaluate_pairs
from .tensors import ellipticity_constant

CONSTANT_FLOOR = 1e-6
SIGMA_CAP = 1e9
# bound on the round-off absorption steps of fit_k_condition
ABSORB_STEPS = 64


@dataclass(frozen=True)
class SamplerConfig:
    """Gaussian sampling plan: ``count`` triples per scale, sweep to probe non-homogeneity."""

    count: int = 1500
    seed: int = 0
    scales: tuple[float, ...] = (1e-2, 1.0, 1e2)

    def __post_init__(self):
        if finite_number(self.count, "sampler count", integer=True) < 1:
            raise InputError(f"sampler count must be >= 1, got {self.count}")
        if not self.scales or not all(finite_number(s, "sampler scale") > 0 for s in self.scales):
            raise InputError(f"sampler scales must be positive numbers, at least one, got {self.scales!r}")


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
        the pair ``alpha_bounds`` must be finite numbers, and ``alpha`` and
        ``worst_violation`` too when given; anything else is an InputError.
        """
        if not isinstance(doc, dict):
            raise InputError(f"certificate must be a mapping, got {doc!r}")
        bounds = doc.get("alpha_bounds")
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise InputError(f"certificate 'alpha_bounds' must be a pair, got {bounds!r}")
        for value in bounds:
            finite_number(value, "certificate 'alpha_bounds'")
        given = tuple(key for key in ("alpha", "worst_violation") if doc.get(key) is not None)
        for key in ("nu", "beta", "gamma", "lambda", "kappa", "lipschitz_M") + given:
            finite_number(doc.get(key), f"certificate {key!r}")
        return cls(
            nu=doc["nu"],
            beta=doc["beta"],
            gamma=doc["gamma"],
            lam=doc["lambda"],
            kappa=doc["kappa"],
            alpha=doc.get("alpha"),
            alpha_bounds=tuple(bounds),
            lipschitz_M=doc["lipschitz_M"],
            sample_count=doc.get("sample_count", 0),
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
        """Per-sample gaps for plotting; one row per drawn (x, X, Z)."""
        lines = ["scale,violation"]
        for s, v in zip(self.scales, self.violations):
            lines.append(f"{float(s)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"


def symmetric_gaussian(rng: np.random.Generator, count: int, N: int, n: int) -> np.ndarray:
    """A standard Gaussian draw (count, N, n, n) symmetrized in (i, j), packed to (N, n(n+1)/2, count).

    Slot (i, j) holds 0.5 (X[i, j] + X[j, i]), the bits of that entry of 0.5 (X + X^T).
    """
    X = rng.standard_normal((count, N, n, n))
    return np.ascontiguousarray(0.5 * (HessianPairs.pack(X) + HessianPairs.pack(np.swapaxes(X, -1, -2))))


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


def _draw_pairs(sampler: SamplerConfig, *specs: NonlinearitySpec):
    """(scale, x indices, each spec's weights there, X, Z) per scale, drawn in that order: X, Z, x.

    The specs share their dimensions; the samplers of verify, fit and nu(F, G) all draw here.
    """
    N, n = specs[0].N, specs[0].n
    rng = np.random.default_rng(sampler.seed)
    per_scale = []
    for scale in sampler.scales:
        X = symmetric_gaussian(rng, sampler.count, N, n)
        Z = symmetric_gaussian(rng, sampler.count, N, n) * scale
        flat, weights = sample_weights(rng, sampler.count, *specs)
        per_scale.append((scale, flat, weights, X, Z))
    return per_scale


def _increments(sampler: SamplerConfig, *specs: NonlinearitySpec):
    """(scale, x indices, X, Z, A:Z, each spec's F(X+Z) - F(X), |Z|^2, |A:Z|^2) per scale; A of the first spec."""
    for scale, flat, weights, X, Z in _draw_pairs(sampler, *specs):
        AZ = contract_pairs(specs[0].tensor, Z)
        Y = X + Z
        D = [evaluate_pairs(spec, Y, w) - evaluate_pairs(spec, X, w) for spec, w in zip(specs, weights)]
        zz = (HessianPairs.multiplicity(specs[0].n) @ Z**2).sum(axis=0)  # off-diagonal slots count twice
        yield scale, flat, X, Z, AZ, D, zz, (AZ**2).sum(axis=0)


def _alpha_values(alpha, flat_idx, count):
    if isinstance(alpha, np.ndarray):
        if flat_idx is None:
            raise InputError("spatially varying alpha requires a spatially varying weight grid")
        return alpha.ravel()[flat_idx]
    return np.full(count, float(alpha))


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
    if nu is None:
        nu = ellipticity_constant(spec.tensor).nu
    draws, violations = [], []
    for scale, flat, X, Z, AZ, (D,), zz, waz in _increments(sampler, spec):
        al = _alpha_values(alpha, flat, sampler.count)
        lhs = ((AZ - al * D) ** 2).sum(axis=0)
        violations.append(lhs - beta * nu**2 * zz - gamma * waz)
        draws.append((scale, X, Z, al))
    violations = np.concatenate(violations)
    worst = int(np.argmax(violations))
    scale, X, Z, al = draws[worst // sampler.count]
    k, index = worst % sampler.count, HessianPairs.slot_index(spec.n)
    return KConditionReport(
        worst_violation=float(violations[worst]),
        worst_sample=(scale, X[:, index, k], Z[:, index, k], float(al[k])),
        sample_count=len(violations),
        violations=violations,
        scales=np.repeat(np.asarray(sampler.scales, dtype=float), sampler.count),
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
    if nu is None:
        nu = ellipticity_constant(spec.tensor).nu
    if nu <= 0:
        raise InputError(f"anchor tensor is not rank-one positive (nu = {nu})")
    alpha_grid = (1.0 / float(np.median(spec.weight))) * np.geomspace(0.1, 10.0, 41)
    gamma_grid = np.unique(np.concatenate([np.geomspace(CONSTANT_FLOOR, 0.99, 60), np.linspace(0.01, 0.99, 50)]))

    batches = [(AZ, D, zz, waz) for _, _, _, _, AZ, (D,), zz, waz in _increments(sampler, spec)]
    AZ, D, zz, waz = (np.concatenate(part, axis=-1) for part in zip(*batches))

    best = None
    for alpha in alpha_grid:
        lhs = ((AZ - alpha * D) ** 2).sum(axis=0)
        # beta required for each gamma: worst sample ratio after gamma absorbs |A:Z|^2
        needed = (lhs[:, None] - gamma_grid[None, :] * waz[:, None]) / (nu**2 * zz[:, None])
        beta_req = np.maximum(needed.max(axis=0), CONSTANT_FLOOR)
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
    """Outcome of the sigma search converting signed-form constants to the quadratic bound."""

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
    """Smallest sigma > 2 making the quadratic-bound pair feasible.

    beta(sigma) = (2/sigma) (kappa/lambda + (1/(2 sigma)) (M alpha_sup / (lambda nu))^2),
    gamma(sigma) = 1 - 2/sigma, and the rescaled alpha carries the factor
    1/(lambda sigma).  Feasibility for large sigma is guaranteed; failure to
    bracket below the cap is flagged as an anomaly instead of raising.
    """
    if not (lam > kappa > 0):
        raise InputError(f"need lambda > kappa > 0, got ({lam}, {kappa})")
    if M < 0 or alpha_sup <= 0 or nu <= 0:
        raise InputError("need M >= 0, alpha_sup > 0, nu > 0")

    q = (M * alpha_sup / (lam * nu)) ** 2

    def pair(sigma: float) -> tuple[float, float]:
        beta = (2.0 / sigma) * (kappa / lam + q / (2.0 * sigma))
        gamma = 1.0 - 2.0 / sigma
        return beta, gamma

    def feasible(sigma: float) -> bool:
        if sigma <= 2.0:
            return False
        beta, gamma = pair(sigma)
        return beta + gamma < 1.0

    sigma_floor = max(2.0, q / (2.0 * (1.0 - kappa / lam)))
    lo = 2.0
    hi = max(4.0, 2.0 * sigma_floor)
    anomaly = False
    while not feasible(hi):
        hi *= 2.0
        if hi > SIGMA_CAP:
            anomaly = True
            break
    if anomaly:
        return Def2Conversion(
            sigma=float("nan"),
            beta=float("nan"),
            gamma=float("nan"),
            alpha_scale=float("nan"),
            margin=float("nan"),
            sigma_floor=sigma_floor,
            anomaly=True,
        )
    while hi - lo > 1e-9 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    sigma = hi
    beta, gamma = pair(sigma)
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
    """
    if nu is None:
        nu = ellipticity_constant(spec.tensor).nu
    alpha_sup, _ = alpha_bounds_of(alpha)
    rng = np.random.default_rng(seed)
    X = symmetric_gaussian(rng, count, spec.N, spec.n)
    eta = rng.standard_normal((count, spec.N))
    a = rng.standard_normal((count, spec.n))
    rows, cols = HessianPairs.components(spec.n)
    Z = np.ascontiguousarray(eta.T[:, None] * a.T[rows] * a.T[cols])
    _, (w,) = sample_weights(rng, count, spec)
    diff = evaluate_pairs(spec, X + Z, w) - evaluate_pairs(spec, X, w)
    lhs = (diff * contract_pairs(spec.tensor, Z)).sum(axis=0)
    rhs = (lam - kappa) * nu**2 / alpha_sup * (eta**2).sum(axis=1) * ((a**2).sum(axis=1)) ** 2
    return float((lhs - rhs).min())


def example1_certificate(spec: NonlinearitySpec, nu: float | None = None) -> EllipticityCertificate:
    """Analytic certificate for weighted-anchor-plus-Lipschitz-perturbation specs.

    With alpha = 1/weight the linear parts cancel exactly and the gap is the
    perturbation difference, so beta = rho^2 with rho the declared Lipschitz
    ratio, and any gamma in (0, 1 - beta) works; this takes gamma = (1 - beta)/2.
    """
    if nu is None:
        nu = ellipticity_constant(spec.tensor).nu
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
