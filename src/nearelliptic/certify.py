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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nonlinearity import NonlinearitySpec, evaluate_batch, linear_part
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
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "EllipticityCertificate":
        return cls(
            nu=doc["nu"],
            beta=doc["beta"],
            gamma=doc["gamma"],
            lam=doc["lambda"],
            kappa=doc["kappa"],
            alpha=doc.get("alpha"),
            alpha_bounds=tuple(doc["alpha_bounds"]),
            lipschitz_M=doc["lipschitz_M"],
            sample_count=doc.get("sample_count", 0),
            worst_violation=doc.get("worst_violation"),
        )


@dataclass(frozen=True, eq=False)
class KConditionReport:
    """Sampled verification outcome: worst LHS - RHS gap and where it occurred."""

    worst_violation: float
    worst_sample: tuple | None
    sample_count: int
    violations: np.ndarray | None = None  # (scale, LHS - RHS) per sample
    scales: np.ndarray | None = None

    @property
    def certified(self) -> bool:
        return self.worst_violation <= 0.0

    def violations_csv(self) -> str:
        """Per-sample gaps for plotting; one row per drawn (x, X, Z)."""
        if self.violations is None:
            raise InputError("report carries no per-sample record")
        lines = ["scale,violation"]
        for s, v in zip(self.scales, self.violations):
            lines.append(f"{float(s)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"


def _symmetrize_batch(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + np.swapaxes(X, -1, -2))


def _draw_pairs(spec: NonlinearitySpec, sampler: SamplerConfig):
    """Sampled (x index, weight value, alpha slot, X, Z) batches under the scale sweep."""
    rng = np.random.default_rng(sampler.seed)
    per_scale = []
    shape = (sampler.count, spec.N, spec.n, spec.n)
    for scale in sampler.scales:
        X = _symmetrize_batch(rng.standard_normal(shape))
        Z = _symmetrize_batch(rng.standard_normal(shape)) * scale
        if isinstance(spec.weight, np.ndarray):
            flat = rng.integers(0, spec.weight.size, size=sampler.count)
            w = spec.weight.ravel()[flat]
        else:
            flat = None
            w = np.full(sampler.count, spec.weight)
        per_scale.append((scale, flat, w, X, Z))
    return per_scale


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
    drawn samples.  The argmax sample is returned for diagnosis.
    """
    if beta <= 0 or gamma <= 0:
        raise InputError("beta and gamma must be positive")
    if nu is None:
        nu = ellipticity_constant(spec.tensor).nu
    worst = -np.inf
    worst_sample = None
    all_violations = []
    all_scales = []
    for scale, flat, w, X, Z in _draw_pairs(spec, sampler):
        AZ = linear_part(spec, Z)
        F1 = evaluate_batch(spec, X + Z, w)
        F0 = evaluate_batch(spec, X, w)
        al = _alpha_values(alpha, flat, len(w))
        lhs = ((AZ - al[:, None] * (F1 - F0)) ** 2).sum(axis=1)
        zz = (Z**2).sum(axis=(1, 2, 3))
        waz = (AZ**2).sum(axis=1)
        violation = lhs - beta * nu**2 * zz - gamma * waz
        k = int(np.argmax(violation))
        if violation[k] > worst:
            worst = float(violation[k])
            worst_sample = (scale, X[k], Z[k], float(al[k]))
        all_violations.append(violation)
        all_scales.append(np.full(len(w), scale))
    violations = np.concatenate(all_violations)
    return KConditionReport(
        worst_violation=worst,
        worst_sample=worst_sample,
        sample_count=len(violations),
        violations=violations,
        scales=np.concatenate(all_scales),
    )


def fit_k_condition(
    spec: NonlinearitySpec,
    sampler: SamplerConfig = SamplerConfig(),
    nu: float | None = None,
    alpha_grid: np.ndarray | None = None,
    gamma_grid: np.ndarray | None = None,
) -> EllipticityCertificate:
    """Search constant alpha and the (beta, gamma) pair minimizing beta + gamma on samples.

    For each candidate alpha (log-spaced around the reciprocal median weight)
    the smallest admissible beta is a max-ratio over samples once gamma is
    fixed, so a 1-D gamma sweep suffices.  Constants are floored at 1e-6;
    a linear nonlinearity therefore comes back with the floor pair.
    Infeasibility (best beta + gamma >= 1) is returned, not raised.
    """
    if nu is None:
        nu = ellipticity_constant(spec.tensor).nu
    if nu <= 0:
        raise InputError(f"anchor tensor is not rank-one positive (nu = {nu})")
    if alpha_grid is None:
        if isinstance(spec.weight, np.ndarray):
            center = 1.0 / float(np.median(spec.weight))
        else:
            center = 1.0 / spec.weight
        alpha_grid = center * np.geomspace(0.1, 10.0, 41)
    if gamma_grid is None:
        gamma_grid = np.unique(
            np.concatenate([np.geomspace(CONSTANT_FLOOR, 0.99, 60), np.linspace(0.01, 0.99, 50)])
        )

    batches = _draw_pairs(spec, sampler)
    AZ = np.concatenate([linear_part(spec, Z) for _, _, _, _, Z in batches])
    D = np.concatenate(
        [evaluate_batch(spec, X + Z, w) - evaluate_batch(spec, X, w) for _, _, w, X, Z in batches]
    )
    zz = np.concatenate([(Z**2).sum(axis=(1, 2, 3)) for _, _, _, _, Z in batches])
    waz = (AZ**2).sum(axis=1)
    total = len(zz)

    best = None
    for alpha in alpha_grid:
        lhs = ((AZ - alpha * D) ** 2).sum(axis=1)
        # beta required for each gamma: worst sample ratio after gamma absorbs |A:Z|^2
        needed = (lhs[:, None] - gamma_grid[None, :] * waz[:, None]) / (nu**2 * zz[:, None])
        beta_req = np.maximum(needed.max(axis=0), CONSTANT_FLOOR)
        sums = beta_req + gamma_grid
        k = int(np.argmin(sums))
        if best is None or sums[k] < best[0]:
            best = (float(sums[k]), float(alpha), float(beta_req[k]), float(gamma_grid[k]))

    _, alpha, beta, gamma = best
    lhs = ((AZ - alpha * D) ** 2).sum(axis=1)
    worst = float((lhs - beta * nu**2 * zz - gamma * waz).max())
    # round-off from recomputation; absorb it into beta so the returned pair
    # certifies the drawn samples exactly.  One step can be lost to rounding
    # (beta + step == beta, or the recomputed margin rounds back above 0), so
    # repeat it, at least one ulp at a time.
    for _ in range(ABSORB_STEPS):
        if worst <= 0:
            break
        beta = max(beta + worst / (nu**2 * float(zz.min())), float(np.nextafter(beta, np.inf)))
        worst = float((lhs - beta * nu**2 * zz - gamma * waz).max())
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
        sample_count=total,
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
    X = _symmetrize_batch(rng.standard_normal((count, spec.N, spec.n, spec.n)))
    eta = rng.standard_normal((count, spec.N))
    a = rng.standard_normal((count, spec.n))
    Z = np.einsum("ka,ki,kj->kaij", eta, a, a)
    if isinstance(spec.weight, np.ndarray):
        flat = rng.integers(0, spec.weight.size, size=count)
        w = spec.weight.ravel()[flat]
    else:
        w = np.full(count, spec.weight)
    diff = evaluate_batch(spec, X + Z, w) - evaluate_batch(spec, X, w)
    AZ = linear_part(spec, Z)
    lhs = (diff * AZ).sum(axis=1)
    rhs = (lam - kappa) * nu**2 / alpha_sup * (eta**2).sum(axis=1) * ((a**2).sum(axis=1)) ** 2
    return float((lhs - rhs).min())


def example1_certificate(
    spec: NonlinearitySpec,
    nu: float | None = None,
    gamma: float | None = None,
) -> EllipticityCertificate:
    """Analytic certificate for weighted-anchor-plus-Lipschitz-perturbation specs.

    With alpha = 1/weight the linear parts cancel exactly and the gap is the
    perturbation difference, so beta = rho^2 with rho the declared Lipschitz
    ratio, and any gamma in (0, 1 - beta) works; default gamma = (1 - beta)/2.
    """
    if nu is None:
        nu = ellipticity_constant(spec.tensor).nu
    rho = spec.lipschitz_ratio(nu)
    if rho >= 1:
        raise InputError(f"declared Lipschitz ratio {rho} is not below 1; no certificate")
    beta = max(rho**2, CONSTANT_FLOOR)
    if gamma is None:
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
