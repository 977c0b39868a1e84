"""Executable counterexample analyses for the ellipticity conditions.

Two built-in studies, runnable from the CLI example suite:

* :func:`example2_analysis` — the block tensor family that is strictly convex
  yet admits no trace-anchored two-constant lower bound (the classical
  A-condition): probing two hessians yields contradictory constraints on the
  constants.

* :func:`example3_analysis` — the scalar norm-combination nonlinearity
  F(X) = X:I - b|X| - c|X:I| for which the two-term quadratic bound holds on
  an explicit window of alpha scalings and provably needs both terms: witness
  matrices saturate the bound outside the window and realize equality with
  the plain |Z| norm inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import SCALES
from .errors import InputError
from .tensors import SymTensor4, contract_hessian, example2_tensor


def trace_pairing(A: SymTensor4, X: np.ndarray) -> tuple[float, float, float]:
    """The three scalars of the trace-anchored condition at one hessian probe.

    Returns ((A:X) . (X:I), |X:I|^2, |X|^2), the quantities compared by
    (A:X)^T (X:I) >= c2 |X:I|^2 - c1 |X|^2.
    """
    X = np.asarray(X, dtype=float)
    ax = contract_hessian(A, X)
    traces = np.trace(X, axis1=1, axis2=2)
    return float(ax @ traces), float(traces @ traces), float((X**2).sum())


@dataclass(frozen=True)
class Example2Report:
    m: float
    probe_a: tuple[float, float, float]
    probe_b: tuple[float, float, float]
    c2_upper: float
    c2_lower: float
    infeasible: bool
    convexity_margin_min: float
    expansion_max_error: float

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "probe_a": list(self.probe_a),
            "probe_b": list(self.probe_b),
            "c2_upper": self.c2_upper,
            "c2_lower": self.c2_lower,
            "infeasible": self.infeasible,
            "convexity_margin_min": self.convexity_margin_min,
            "expansion_max_error": self.expansion_max_error,
        }


def example2_analysis(m: float, samples: int = 2000, seed: int = 0) -> Example2Report:
    """Blocked strictly-convex tensor versus the trace-anchored condition.

    Verifies convexity A:Q(x)Q >= |Q|^2 + m (Q21 + Q22)^2 on random Q together
    with the exact quadratic expansion, then evaluates the trace-anchored
    pairing at the two probe hessians.  Probe one forces c2 < 2, probe two
    forces c2 > m/4; for m >= 8 the two are jointly infeasible, so no
    constants c2 > c1 > 0 exist.
    """
    if m < 8:
        raise InputError(f"analysis requires m >= 8, got {m}")
    A = example2_tensor(m)
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((samples, 2, 2))
    quad = np.einsum("abij,kai,kbj->k", A.entries, Q, Q)
    lower = (Q**2).sum(axis=(1, 2)) + m * (Q[:, 1, 0] + Q[:, 1, 1]) ** 2
    expansion = (
        Q[:, 0, 0] ** 2
        + Q[:, 0, 1] ** 2
        + 2 * m * (Q[:, 1, 0] ** 2 + Q[:, 1, 1] ** 2)
        + 2 * m * Q[:, 1, 0] * Q[:, 1, 1]
    )
    probe_a = trace_pairing(A, np.stack([np.eye(2), np.zeros((2, 2))]))
    probe_b = trace_pairing(
        A, np.stack([np.zeros((2, 2)), np.array([[-1.0, 3.0], [3.0, -1.0]])])
    )
    # probe one: 4 >= 4 c2 - 2 c1 with c1 < c2 gives c2 < 2;
    # probe two: -4m >= 4 c2 - 20 c1 with c1 < c2 gives c2 > m/4.
    c2_upper = 2.0
    c2_lower = m / 4.0
    return Example2Report(
        m=m,
        probe_a=probe_a,
        probe_b=probe_b,
        c2_upper=c2_upper,
        c2_lower=c2_lower,
        infeasible=bool(c2_lower >= c2_upper),
        convexity_margin_min=float((quad - lower).min()),
        expansion_max_error=float(np.abs(quad - expansion).max()),
    )


def scalar_norm_combo(X: np.ndarray, b: float, c: float) -> np.ndarray:
    """F(X) = X:I - b |X| - c |X:I| over a batch (..., n, n)."""
    tr = np.trace(X, axis1=-2, axis2=-1)
    frob = np.sqrt((X**2).sum(axis=(-2, -1)))
    return tr - b * frob - c * np.abs(tr)


def window_constants(alpha: float, b: float, c: float) -> tuple[float, float]:
    """The alpha-dependent pair: gamma = 2(|1-alpha| + alpha c)^2, beta = 2 (alpha b)^2."""
    gamma = 2.0 * (abs(1.0 - alpha) + alpha * c) ** 2
    beta = 2.0 * (alpha * b) ** 2
    return gamma, beta


def saturating_witness(n: int, alpha: float, b: float, c: float) -> np.ndarray:
    """Matrix making the two-term bound an equality: sgn(1-alpha) and t in a 2x2 corner.

    t balances the two terms, sqrt(beta/2)|Z| = sqrt(gamma/2)|Z:I|, which is
    admissible because gamma/beta >= (c/b)^2 > 1.
    """
    if alpha == 1.0:
        raise InputError("saturating witness needs alpha != 1")
    gamma, beta = window_constants(alpha, b, c)
    t = np.sqrt(0.5 * (gamma / beta - 1.0))
    Z = np.zeros((n, n))
    Z[0, 0] = np.sign(1.0 - alpha)
    Z[0, 1] = Z[1, 0] = t
    return Z


def equality_witness(n: int, alpha: float, b: float, c: float) -> np.ndarray:
    """Matrix with ones off the diagonal and +/- zeta on it realizing |gap| = |Z|.

    zeta = (1 - alpha b) sqrt(n-1) / sqrt(n (|1-alpha| + alpha c)^2 - (1 - alpha b)^2);
    the radicand is positive whenever sqrt(n) c + b > 1.  The diagonal sign
    follows alpha: positive at or below 1, negative above, so the signed trace
    term has the right orientation.
    """
    t_gamma = abs(1.0 - alpha) + alpha * c
    t_beta = alpha * b
    radicand = n * t_gamma**2 - (1.0 - t_beta) ** 2
    if radicand <= 0:
        raise InputError(f"witness undefined at alpha={alpha}: radicand {radicand} <= 0")
    zeta = (1.0 - t_beta) * np.sqrt(n - 1.0) / np.sqrt(radicand)
    sign = 1.0 if alpha <= 1.0 else -1.0
    Z = np.ones((n, n))
    np.fill_diagonal(Z, sign * zeta)
    return Z


@dataclass(frozen=True)
class InsideAlphaRecord:
    alpha: float
    constant_sum: float
    sampled_violation_max: float
    equality_rel_error: float
    pi_rel_error: float


@dataclass(frozen=True)
class OutsideAlphaRecord:
    alpha: float
    constant_sum: float
    saturation_rel_error: float
    violation: float


@dataclass(frozen=True)
class Example3Report:
    n: int
    b: float
    c: float
    sum_at_one: float
    alpha_lo: float
    alpha_hi: float
    alpha0: float
    inside: tuple[InsideAlphaRecord, ...]
    outside: tuple[OutsideAlphaRecord, ...]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "b": self.b,
            "c": self.c,
            "sum_at_one": self.sum_at_one,
            "alpha_lo": self.alpha_lo,
            "alpha_hi": self.alpha_hi,
            "alpha0": self.alpha0,
            "inside": [vars(r) for r in self.inside],
            "outside": [vars(r) for r in self.outside],
        }


def default_parameters(n: int) -> tuple[float, float]:
    """The standard admissible choice c = 1/sqrt(n), b = 1/(10 + sqrt(n))."""
    return 1.0 / (10.0 + np.sqrt(n)), 1.0 / np.sqrt(n)


def validate_parameters(n: int, b: float, c: float) -> None:
    if n < 3:
        raise InputError(f"analysis requires n >= 3, got {n}")
    if not (c > b > 0):
        raise InputError(f"need c > b > 0, got b={b}, c={c}")
    if not (np.sqrt(n) * c + b > 1):
        raise InputError(f"need sqrt(n) c + b > 1, got {np.sqrt(n) * c + b}")
    if not (b + c < 1):
        raise InputError(f"need b + c < 1, got {b + c}")
    if not (b**2 + c**2 < 0.5):
        raise InputError(f"need b^2 + c^2 < 1/2, got {b**2 + c**2}")


def example3_analysis(
    n: int = 9,
    b: float | None = None,
    c: float | None = None,
    alpha_samples: int = 20,
    sample_count: int = 4000,
    seed: int = 0,
) -> Example3Report:
    """Window analysis of the two-term bound for the scalar norm-combination map.

    (i) locates both crossings of gamma(alpha) + beta(alpha) = 1 in closed
    form: with |1 - alpha| + alpha c = |1 - t alpha|, t = 1 - c below
    alpha = 1 and t = 1 + c above, each is a root of
    2(t^2 + b^2) alpha^2 - 4 t alpha + 1, the smaller one for t = 1 - c and
    the larger one for t = 1 + c (the sum is 2(b^2 + c^2) < 1 at
    alpha = 1); the window radius alpha0 is the distance to the farther
    crossing, the left one, since the sum grows faster to the right.
    (ii) inside the true window (alpha_lo, alpha_hi), random (X, Z) samples
    confirm the bound with the alpha-dependent constants.
    (iii) outside, the saturating witness makes the bound an equality while
    the constants sum to >= 1, so no rescaling of the pair onto the feasible
    simplex covers the witness: the reported violation
    LHS - RHS/(gamma + beta) is then >= 0.
    (iv) inside, the equality witness realizes |gap| = |Z| exactly, which is
    why the |Z:I|^2 term can never be dropped from the bound.
    """
    if b is None or c is None:
        db, dc = default_parameters(n)
        b = db if b is None else b
        c = dc if c is None else c
    validate_parameters(n, b, c)

    sum_at_one = sum(window_constants(1.0, b, c))
    # the roots are (t -+ s)/(t^2 + b^2), s = sqrt((t^2 - b^2)/2), and b + c < 1 makes them real; the
    # smaller one is taken as their product 1/(2(t^2 + b^2)) over the larger, 1/(2(t + s)), free of cancellation
    t_lo, t_hi = 1.0 - c, 1.0 + c
    alpha_lo = float(0.5 / (t_lo + np.sqrt(0.5 * (t_lo**2 - b**2))))
    alpha_hi = float((t_hi + np.sqrt(0.5 * (t_hi**2 - b**2))) / (t_hi**2 + b**2))
    alpha0 = 1.0 - alpha_lo

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((sample_count, n, n))
    X = 0.5 * (X + np.swapaxes(X, -1, -2))
    Z = rng.standard_normal((sample_count, n, n))
    Z = 0.5 * (Z + np.swapaxes(Z, -1, -2))
    scales = np.array(SCALES)[rng.integers(0, len(SCALES), size=sample_count)]
    Z = Z * scales[:, None, None]
    trZ = np.trace(Z, axis1=-2, axis2=-1)
    zz = (Z**2).sum(axis=(-2, -1))
    tz2 = trZ**2

    margin = 1e-3 * (alpha_hi - alpha_lo)
    inside_alphas = np.linspace(alpha_lo + margin, alpha_hi - margin, alpha_samples)
    inside = []
    for alpha in inside_alphas:
        gamma, beta = window_constants(alpha, b, c)
        gap = trZ - alpha * (scalar_norm_combo(X + Z, b, c) - scalar_norm_combo(X, b, c))
        violation = float((gap**2 - beta * zz - gamma * tz2).max())
        Z0 = equality_witness(n, alpha, b, c)
        lhs = abs(
            float(np.trace(Z0)) - alpha * (scalar_norm_combo(Z0, b, c) - scalar_norm_combo(np.zeros((n, n)), b, c))
        )
        z0_norm = float(np.sqrt((Z0**2).sum()))
        eq_err = abs(lhs - z0_norm) / z0_norm
        t_gamma = abs(1.0 - alpha) + alpha * c
        t_beta = alpha * b
        tr0 = float(np.trace(Z0))
        pi = (1.0 - t_beta) ** 2 * z0_norm**2 - t_gamma**2 * tr0**2
        pi_scale = (1.0 - t_beta) ** 2 * z0_norm**2 + t_gamma**2 * tr0**2
        inside.append(
            InsideAlphaRecord(
                alpha=float(alpha),
                constant_sum=gamma + beta,
                sampled_violation_max=violation,
                equality_rel_error=eq_err,
                pi_rel_error=abs(pi) / pi_scale,
            )
        )

    outside = []
    for alpha in (1.0 - 1.5 * alpha0, 1.0 + 1.5 * alpha0):
        gamma, beta = window_constants(alpha, b, c)
        Z0 = saturating_witness(n, alpha, b, c)
        gap = float(np.trace(Z0)) - alpha * (
            scalar_norm_combo(Z0, b, c) - scalar_norm_combo(np.zeros((n, n)), b, c)
        )
        lhs_sq = gap**2
        rhs = gamma * float(np.trace(Z0)) ** 2 + beta * float((Z0**2).sum())
        outside.append(
            OutsideAlphaRecord(
                alpha=float(alpha),
                constant_sum=gamma + beta,
                saturation_rel_error=abs(lhs_sq - rhs) / rhs,
                violation=lhs_sq - rhs / (gamma + beta),
            )
        )

    return Example3Report(
        n=n,
        b=float(b),
        c=float(c),
        sum_at_one=sum_at_one,
        alpha_lo=alpha_lo,
        alpha_hi=alpha_hi,
        alpha0=alpha0,
        inside=tuple(inside),
        outside=tuple(outside),
    )
