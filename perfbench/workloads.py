"""The four benchmark workloads: inputs from a seed, one op, and its correctness check.

Each workload is a closed loop with one caller.  ``__init__`` is the set-up:
it derives every input from (seed, slot) and keeps them, so the timed op does
nothing but call the package.  ``op(i)`` runs op ``i`` on slot ``i % slots``
and returns its outputs; ``check(i, out)`` returns the list of failed
acceptance conditions (empty when the op is correct) and runs outside the
timed interval.  The op calls the package through ``nearelliptic.<name>`` at
call time, so the tracer's wrappers see it.

The hessian errors are computed here with ``numpy.fft`` directly, not with
the package's ``spectral_hessian``, so a defect in the package's transform
code cannot hide itself.
"""

from __future__ import annotations

import numpy as np

import nearelliptic as ne
from nearelliptic.fields import PHYSICAL
from nearelliptic.nonlinearity import evaluate_field
from nearelliptic.stability import nu_F_lower_bound
from nearelliptic.tensors import random_rank_one_positive

# Acceptance tolerances; each mirrors the one the test suite pins.
SOLVE_TOL = 1e-8
HESSIAN_ERR_NONLINEAR = 1e-7
HESSIAN_ERR_LINEAR = 1e-10
RATIO_SLACK = 0.05
ESTIMATE_RATIO_MAX = 1.0 + 1e-9
OUTER_RATIO_MAX = 0.15


def derive_seed(*parts: int) -> int:
    """Independent 32-bit seed for one (workload seed, slot, ...) tuple."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def hessian_seminorm(data: np.ndarray, L: float) -> float:
    """||D^2 u||_{L2} of a physical field (N, M, ..., M), via Plancherel.

    sum_ij |k_i k_j|^2 = |k|^4, so the seminorm needs one transform and no
    hessian array.
    """
    n = data.ndim - 1
    M = data.shape[1]
    coef = np.fft.fftn(data, axes=tuple(range(1, n + 1))) / M**n
    k = np.fft.fftfreq(M, d=1.0 / M) / L
    ksq = sum(np.reshape(k, [M if a == b else 1 for b in range(n)]) ** 2 for a in range(n))
    weight = (2 * np.pi) ** 4 * ksq**2
    return float(np.sqrt(L**n * (weight * np.abs(coef) ** 2).sum()))


def hessian_rel_error(u, ustar) -> float:
    L = ustar.grid.L
    return hessian_seminorm(u.to_physical().data - ustar.data, L) / hessian_seminorm(ustar.data, L)


class Solve3D:
    """Cold near-operator solve at n=3, N=2, M=32 (sine amplitude 0.9, K ~ 0.95)."""

    name = "solve-3d"
    sizes = {"full": dict(M=32, band=4, slots=4), "tiny": dict(M=8, band=2, slots=2)}

    def __init__(self, seed: int, size: str = "full"):
        p = self.sizes[size]
        self.slots = p["slots"]
        self.grid = ne.GridSpec(n=3, N=2, M=p["M"])
        self.spec = ne.NonlinearitySpec(
            tensor=ne.identity_tensor(3, 2), perturbation=ne.SinePerturbation(0.9)
        )
        self.cert = ne.example1_certificate(self.spec)
        self.alpha = 1.0
        self.config = ne.SolveConfig(tol_residual=SOLVE_TOL)
        self.ustar, self.rhs = [], []
        for slot in range(self.slots):
            u = ne.random_band_limited(self.grid, band=p["band"], seed=derive_seed(seed, 1, slot))
            self.ustar.append(u)
            self.rhs.append(evaluate_field(self.spec, ne.spectral_hessian(u, PHYSICAL)))

    def op(self, i: int):
        k = i % self.slots
        return ne.campanato_solve(self.spec, self.alpha, self.rhs[k], self.cert, self.config)

    def check(self, i: int, out) -> list[str]:
        k = i % self.slots
        u, trace = out
        bad = []
        if trace.status != "converged":
            bad.append(f"status {trace.status}")
        if not trace.final_residual <= SOLVE_TOL * ne.l2_norm(self.rhs[k]):
            bad.append(f"residual {trace.final_residual:.3e}")
        err = hessian_rel_error(u, self.ustar[k])
        if not err <= HESSIAN_ERR_NONLINEAR:
            bad.append(f"hessian error {err:.3e}")
        limit = self.cert.contraction + RATIO_SLACK
        if not all(r <= limit for r in trace.ratios):
            bad.append(f"ratio {max(trace.ratios):.3f} > {limit:.3f}")
        return bad


class LinearSweep:
    """apply_operator, solve_linear and the hessian estimate at n=2, M=64, for each of five tensors.

    One op sweeps all five tensors: a single call takes under 10 ms, and on a
    shared machine the tail of so short an op measures the machine, not the
    package.
    """

    name = "linear-sweep"
    sizes = {"full": dict(M=64, band=16), "tiny": dict(M=16, band=4)}
    slots = 1

    def __init__(self, seed: int, size: str = "full"):
        p = self.sizes[size]
        grid = ne.GridSpec(n=2, N=2, M=p["M"])
        self.ustar = ne.random_band_limited(grid, band=p["band"], seed=derive_seed(seed, 2))
        self.tensors = [ne.identity_tensor(2, 2), ne.example2_tensor(8.0)]
        self.tensors += [
            random_rank_one_positive(2, 2, seed=derive_seed(seed, 3, k))[0] for k in range(3)
        ]
        self.nus = [ne.ellipticity_constant(A).nu for A in self.tensors]

    def op(self, i: int):
        out = []
        for A, nu in zip(self.tensors, self.nus):
            f = ne.apply_operator(A, self.ustar)
            result = ne.solve_linear(A, f, nu=nu)
            out.append((result, ne.hessian_estimate_check(A, self.ustar, nu=nu)))
        return out

    def check(self, i: int, out) -> list[str]:
        bad = []
        for k, (result, ratio) in enumerate(out):
            err = hessian_rel_error(result.u, self.ustar)
            if not err <= HESSIAN_ERR_LINEAR:
                bad.append(f"tensor {k}: round-trip hessian error {err:.3e}")
            if not 0.0 < ratio <= ESTIMATE_RATIO_MAX:
                bad.append(f"tensor {k}: estimate ratio {ratio!r}")
        return bad


class Stability:
    """Admitted solve of G(., D^2 u) = g through the certified F solver at n=2, M=64."""

    name = "stability"
    sizes = {"full": dict(M=64, band=8, slots=4), "tiny": dict(M=16, band=4, slots=2)}

    def __init__(self, seed: int, size: str = "full"):
        p = self.sizes[size]
        self.slots = p["slots"]
        grid = ne.GridSpec(n=2, N=2, M=p["M"])
        A = ne.identity_tensor(2, 2)
        self.specF = ne.NonlinearitySpec(tensor=A, perturbation=ne.SinePerturbation(0.3))
        self.certF = ne.example1_certificate(self.specF)
        self.alphaF = ne.example1_alpha(self.specF)
        # G sits a tenth of the acceptance distance away from F
        amplitude = 0.3 + 0.1 * nu_F_lower_bound(self.certF)
        self.specG = ne.NonlinearitySpec(tensor=A, perturbation=ne.SinePerturbation(amplitude))
        self.ustar, self.rhs = [], []
        for slot in range(self.slots):
            u = ne.random_band_limited(grid, band=p["band"], seed=derive_seed(seed, 4, slot))
            self.ustar.append(u)
            self.rhs.append(evaluate_field(self.specG, ne.spectral_hessian(u, PHYSICAL)))

    def op(self, i: int):
        k = i % self.slots
        return ne.solve_via_nearness(self.specF, self.specG, self.alphaF, self.certF, self.rhs[k])

    def check(self, i: int, out) -> list[str]:
        u, report = out
        bad = []
        if not report.condition_met:
            bad.append("nearness condition not met")
        trace = report.outer_trace
        if trace is None or trace.status != "converged":
            bad.append("outer iteration did not converge")
        err = hessian_rel_error(u, self.ustar[i % self.slots])
        if not err <= HESSIAN_ERR_NONLINEAR:
            bad.append(f"hessian error {err:.3e}")
        if trace is not None and not all(r <= OUTER_RATIO_MAX for r in trace.ratios):
            bad.append(f"outer ratio {max(trace.ratios):.3f} > {OUTER_RATIO_MAX}")
        return bad


class Certify:
    """nu, then the analytic two-constant certificate verified on samples, for n=3 tensors.

    One op searches nu, builds the example-1 certificate of a sine-0.3 nu
    spec (beta = 0.09, gamma = 0.455, alpha = 1), verifies it on a seeded
    sampler and checks its rank-one consequence (lemma 1).  The sampled
    fitter ``fit_k_condition`` is not called: its round-off absorption can
    return a pair that its own samples violate by about 1e-21 (about one op
    in 20 at count 1500), so its output fails the verify check for a reason
    that is a defect of the package, not of the op.  The nu search's cost
    depends on the tensor (its polish iterations), so the ops cycle over
    several tensors drawn in set-up instead of timing one.
    """

    name = "certify"
    sizes = {"full": dict(count=15000, slots=8), "tiny": dict(count=100, slots=2)}

    def __init__(self, seed: int, size: str = "full"):
        p = self.sizes[size]
        self.seed = seed
        self.count = p["count"]
        self.slots = p["slots"]
        self.tensors = [
            random_rank_one_positive(3, 2, seed=derive_seed(seed, 5, slot))[0] for slot in range(self.slots)
        ]

    def op(self, i: int):
        tensor = self.tensors[i % self.slots]
        nu = ne.ellipticity_constant(tensor).nu
        spec = ne.NonlinearitySpec(tensor=tensor, perturbation=ne.SinePerturbation(0.3 * nu))
        cert = ne.example1_certificate(spec, nu=nu)
        alpha = ne.example1_alpha(spec)
        sampler = ne.SamplerConfig(count=self.count, seed=derive_seed(self.seed, 6, i))
        report = ne.verify_k_condition(spec, alpha, cert.beta, cert.gamma, sampler, nu=nu)
        margin = ne.lemma1_check(
            spec, cert.lam, cert.kappa, alpha, count=self.count, seed=derive_seed(self.seed, 7, i), nu=nu
        )
        return cert, report, margin

    def check(self, i: int, out) -> list[str]:
        cert, report, margin = out
        bad = []
        if not (cert.feasible and cert.beta + cert.gamma < 1.0):
            bad.append(f"infeasible certificate beta={cert.beta} gamma={cert.gamma}")
        if not report.worst_violation <= 0.0:
            bad.append(f"verify worst violation {report.worst_violation:.3e}")
        if not margin >= 0.0:
            bad.append(f"lemma 1 margin {margin:.3e}")
        return bad


WORKLOADS = {w.name: w for w in (Solve3D, LinearSweep, Stability, Certify)}
