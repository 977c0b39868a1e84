"""Config-driven experiments: manufactured solves, refinement studies, example suite.

A single JSON config describes grid, tensor, nonlinearity, right-hand side,
and solver policy; :func:`resolve_config` fills in every default so the echo
in the report re-parses to an equivalent run.  Manufactured right-hand sides
come from three families:

* ``modes``   — a short list of sin/cos lattice modes with closed-form hessian,
* ``random``  — a seeded band-limited field (band at most M/4 to keep the
                pseudo-spectral product evaluations alias-clean),
* ``analytic``— a separable product of exp(s sin(2 pi x_i / L)) factors whose
                hessian is evaluated in closed form on the grid; it is not
                band-limited, which is what a refinement study needs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .campanato import SolveConfig, campanato_solve
from .certify import (
    EllipticityCertificate,
    def1_from_def2,
    def2_from_def1,
    example1_alpha,
    example1_certificate,
    fit_k_condition,
)
from .counterexamples import example2_analysis, example3_analysis
from .errors import InputError
from .fields import (
    PHYSICAL,
    GridSpec,
    HessianField,
    VectorField,
    l2_norm,
    load_field,
    random_band_limited,
    save_field,
    spectral_hessian,
)
from .linear import LinearSolveResult, hessian_estimate_check, solve_linear
from .nonlinearity import NonlinearitySpec, evaluate_field, perturbation_from_dict
from .tensors import SymTensor4, builtin_tensor, ellipticity_constant, example2_tensor, identity_tensor

_DEFAULTS = {
    "grid": {"n": 2, "N": 2, "M": 64, "L": 1.0},
    "tensor": "identity",
    "spec": {"perturbation": None, "weight": 1.0},
    "alpha": 1.0,
    "rhs": {"kind": "random", "band": None, "seed": 1, "modes": None, "path": None, "analytic_scale": 3.0},
    "solver": {
        "mode": "campanato",
        "tol_residual": 1e-8,
        "max_iters": 200,
        "epsilon": None,
    },
    "certificate": "analytic",
    "seed": 0,
}


def _merge(defaults, given):
    if isinstance(defaults, dict) and isinstance(given, dict):
        out = dict(defaults)
        for key, value in given.items():
            out[key] = _merge(defaults.get(key), value) if key in defaults else value
        return out
    return given if given is not None else defaults


def _check_types(cfg: dict) -> None:
    """Raise InputError on a config section that is not a mapping or a number of the wrong kind.

    A numeric value is None only where its default is None, meaning unset.
    """
    for section, default in _DEFAULTS.items():
        if isinstance(default, dict) and not isinstance(cfg[section], dict):
            raise InputError(f"config {section!r} must be a mapping, got {cfg[section]!r}")
    integers = ("grid.n", "grid.N", "grid.M", "rhs.band", "rhs.seed", "solver.max_iters", "seed")
    reals = ("grid.L", "rhs.analytic_scale", "solver.tol_residual", "solver.epsilon")
    for name in integers + reals:
        kind, what = (Integral, "an integer") if name in integers else (Real, "a finite number")
        section, _, key = name.rpartition(".")
        value = (cfg[section] if section else cfg)[key]
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
            raise InputError(f"config {name!r} must be {what}, got {value!r}")
        if kind is Integral and value < 0:
            raise InputError(f"config {name!r} must not be negative, got {value}")


def resolve_config(doc: dict) -> dict:
    """Fill every default in, so the result is a complete, re-parseable echo."""
    cfg = _merge(_DEFAULTS, doc or {})
    _check_types(cfg)
    grid = cfg["grid"]
    if cfg["rhs"]["kind"] == "random":
        band = cfg["rhs"].get("band")
        if band is None:
            cfg["rhs"] = dict(cfg["rhs"], band=grid["M"] // 4)
        elif band > grid["M"] // 4:
            raise InputError(
                f"manufactured band {band} exceeds the anti-aliasing limit M/4 = {grid['M'] // 4}"
            )
    return cfg


def build_grid(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    return GridSpec(n=g["n"], N=g["N"], M=g["M"], L=g["L"])


def build_tensor(cfg: dict, grid: GridSpec) -> SymTensor4:
    t = cfg["tensor"]
    if isinstance(t, str):
        return builtin_tensor(t, n=grid.n, N=grid.N)
    if isinstance(t, dict) and "path" in t:
        try:
            text = Path(t["path"]).read_text()
        except OSError as exc:
            raise InputError(f"cannot read the tensor file: {exc}") from exc
        return SymTensor4.from_text(text)
    raise InputError(f"cannot interpret tensor config {t!r}")


def build_spec(cfg: dict, tensor: SymTensor4) -> NonlinearitySpec:
    s = cfg["spec"]
    weight = s.get("weight", 1.0)
    if isinstance(weight, str):
        weight = load_field(weight).to_physical().data[0]
    pert_doc = s.get("perturbation")
    pert = None if pert_doc is None else perturbation_from_dict(pert_doc)
    return NonlinearitySpec(tensor=tensor, weight=weight, perturbation=pert)


def build_problem(cfg: dict) -> tuple[GridSpec, SymTensor4, NonlinearitySpec, float]:
    """Grid, tensor, spec and the tensor's nu(A), which must be positive."""
    grid = build_grid(cfg)
    tensor = build_tensor(cfg, grid)
    spec = build_spec(cfg, tensor)
    nu = ellipticity_constant(tensor).nu
    if nu <= 0:
        raise InputError(f"tensor is not rank-one positive: nu = {nu}")
    return grid, tensor, spec, nu


def build_solve_config(cfg: dict) -> SolveConfig:
    solver = cfg["solver"]
    return SolveConfig(tol_residual=solver["tol_residual"], max_iters=solver["max_iters"])


def solve_linear_spec(cfg: dict, spec: NonlinearitySpec, f: VectorField, nu: float) -> LinearSolveResult:
    """Solve weight * (A : D^2 u) = f for a linear spec with a constant weight."""
    if not spec.is_linear or spec.weight_sup != spec.weight_inf:
        raise InputError("the linear solve needs a linear spec with a constant weight")
    rhs = f if spec.weight_sup == 1.0 else f * (1.0 / spec.weight_sup)
    return solve_linear(spec.tensor, rhs, epsilon=cfg["solver"]["epsilon"], nu=nu)


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact field (physical) with its closed-form hessian on the grid."""

    u: VectorField
    hessian: HessianField


def modes_solution(grid: GridSpec, modes: list[dict]) -> ManufacturedSolution:
    """Sum of sin/cos lattice modes; the hessian multiplier is exact."""
    x = grid.axes()[0]
    coords = np.meshgrid(*grid.axes(), indexing="ij")
    u = np.zeros((grid.N,) + grid.shape)
    hess = np.zeros((grid.N, grid.n, grid.n) + grid.shape)
    for mode in modes:
        comp = int(mode.get("component", 0))
        k = np.asarray(mode["k"], dtype=float)
        if k.shape != (grid.n,) or not np.any(k):
            raise InputError(f"mode frequency must be a nonzero {grid.n}-vector, got {mode['k']}")
        amp = float(mode.get("amplitude", 1.0))
        kind = mode.get("kind", "sin")
        phase = 2 * np.pi * sum(k[i] * coords[i] for i in range(grid.n)) / grid.L
        wave = np.sin(phase) if kind == "sin" else np.cos(phase)
        u[comp] += amp * wave
        factor = -((2 * np.pi / grid.L) ** 2)
        for i in range(grid.n):
            for j in range(grid.n):
                hess[comp, i, j] += amp * factor * k[i] * k[j] * wave
    return ManufacturedSolution(
        u=VectorField(grid, u, PHYSICAL),
        hessian=HessianField(grid, hess, PHYSICAL),
    )


def analytic_solution(grid: GridSpec, scale: float = 3.0) -> ManufacturedSolution:
    """Separable smooth field u_a = prod_i exp(s_ai sin(2 pi x_i / L)), not band-limited.

    With g_i = s (2 pi / L) cos(2 pi x_i / L) and g_i' = -s (2 pi / L)^2
    sin(2 pi x_i / L), the hessian is u (g_i g_j + delta_ij g_i').
    """
    coords = np.meshgrid(*grid.axes(), indexing="ij")
    two_pi = 2 * np.pi / grid.L
    u = np.zeros((grid.N,) + grid.shape)
    hess = np.zeros((grid.N, grid.n, grid.n) + grid.shape)
    for a in range(grid.N):
        s = scale * (1.0 + 0.2 * a + 0.05 * np.arange(grid.n))
        value = np.ones(grid.shape)
        g = []
        gp = []
        for i in range(grid.n):
            value = value * np.exp(s[i] * np.sin(two_pi * coords[i]))
            g.append(s[i] * two_pi * np.cos(two_pi * coords[i]))
            gp.append(-s[i] * two_pi**2 * np.sin(two_pi * coords[i]))
        u[a] = value
        for i in range(grid.n):
            for j in range(grid.n):
                hess[a, i, j] = value * g[i] * g[j]
            hess[a, i, i] += value * gp[i]
    return ManufacturedSolution(
        u=VectorField(grid, u, PHYSICAL),
        hessian=HessianField(grid, hess, PHYSICAL),
    )


def build_rhs(cfg: dict, grid: GridSpec, spec: NonlinearitySpec):
    """Right-hand side and, when manufactured, the exact solution."""
    r = cfg["rhs"]
    kind = r["kind"]
    if kind == "file":
        return load_field(r["path"]), None
    if kind == "random":
        ustar = random_band_limited(grid, int(r["band"]), int(r["seed"]))
        exact = ManufacturedSolution(u=ustar, hessian=spectral_hessian(ustar, PHYSICAL))
    elif kind == "modes":
        exact = modes_solution(grid, r["modes"])
    elif kind == "analytic":
        exact = analytic_solution(grid, float(r.get("analytic_scale", 3.0)))
    else:
        raise InputError(f"unknown rhs kind {kind!r}")
    f = evaluate_field(spec, exact.hessian)
    return f, exact


def build_certificate(cfg: dict, spec: NonlinearitySpec, nu: float) -> EllipticityCertificate:
    c = cfg["certificate"]
    if c == "analytic":
        return example1_certificate(spec, nu=nu)
    if c == "fitted":
        return fit_k_condition(spec, nu=nu)
    if isinstance(c, dict):
        return EllipticityCertificate.from_dict(c)
    raise InputError(f"cannot interpret certificate config {c!r}")


@dataclass(frozen=True)
class RunReport:
    config: dict
    certificate: dict | None
    error_l2: float | None
    error_hessian_rel: float | None
    residual: float
    iterations: int
    wall_time_s: float
    n_ge_5: bool
    outputs: dict

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "certificate": self.certificate,
            "error_l2": self.error_l2,
            "error_hessian_rel": self.error_hessian_rel,
            "residual": self.residual,
            "iterations": self.iterations,
            "wall_time_s": self.wall_time_s,
            "n_ge_5": self.n_ge_5,
            "outputs": self.outputs,
        }


def _gauge_comparison(u: VectorField, exact: ManufacturedSolution):
    """Errors against the exact solution, mean-adjusted (the solve is gauged)."""
    grid = u.grid
    mean = exact.u.mean()
    shift = exact.u.data - mean.reshape((grid.N,) + (1,) * grid.n)
    err = VectorField(grid, u.to_physical().data - shift, PHYSICAL)
    hess_diff = spectral_hessian(u, PHYSICAL) - exact.hessian
    denom = l2_norm(exact.hessian)
    return l2_norm(err), (l2_norm(hess_diff) / denom if denom > 0 else l2_norm(hess_diff))


def run_manufactured(config: dict, out_dir: str | Path | None = None) -> RunReport:
    """Build the exact solution, feed F(., D^2 u*) to the solver, report errors."""
    cfg = resolve_config(config)
    started = time.monotonic()
    grid, _, spec, nu = build_problem(cfg)
    f, exact = build_rhs(cfg, grid, spec)

    outputs: dict = {}
    cert_dict = None
    if cfg["solver"]["mode"] == "linear":
        result = solve_linear_spec(cfg, spec, f, nu)
        u = result.u
        residual = result.residual_l2
        iterations = 1
    else:
        certificate = build_certificate(cfg, spec, nu)
        cert_dict = certificate.as_dict()
        alpha = cfg["alpha"] if not isinstance(cfg["alpha"], str) else example1_alpha(spec)
        u, trace = campanato_solve(spec, alpha, f, certificate, config=build_solve_config(cfg))
        residual = trace.final_residual
        iterations = trace.iterations
        if out_dir is not None:
            trace_path = Path(out_dir) / "trace.csv"
            trace_path.write_text(trace.to_csv())
            outputs["trace"] = str(trace_path)

    error_l2 = error_hess = None
    if exact is not None:
        error_l2, error_hess = _gauge_comparison(u, exact)

    if out_dir is not None:
        field_path = Path(out_dir) / "solution.field"
        save_field(field_path, u)
        outputs["solution"] = str(field_path)

    report = RunReport(
        config=cfg,
        certificate=cert_dict,
        error_l2=error_l2,
        error_hessian_rel=error_hess,
        residual=residual,
        iterations=iterations,
        wall_time_s=time.monotonic() - started,
        n_ge_5=grid.n >= 5,
        outputs=outputs,
    )
    if out_dir is not None:
        (Path(out_dir) / "report.json").write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True)
        )
    return report


def run_convergence_study(config: dict, m_values: list[int]) -> list[dict]:
    """Fixed analytic exact solution, increasing M; spectral decay of the recovery error."""
    if sorted(m_values) != list(m_values):
        raise InputError("M list must be increasing")
    rows = []
    for M in m_values:
        doc = dict(config or {})
        doc["grid"] = dict(doc.get("grid", {}), M=M)
        doc["rhs"] = dict(doc.get("rhs", {}), kind=doc.get("rhs", {}).get("kind", "analytic"))
        report = run_manufactured(doc)
        rows.append(
            {
                "M": M,
                "error_l2": report.error_l2,
                "error_hessian_rel": report.error_hessian_rel,
                "residual": report.residual,
            }
        )
    return rows


def study_csv(rows: list[dict]) -> str:
    lines = ["M,error_l2,error_hessian_rel,residual"]
    for row in rows:
        lines.append(
            f"{row['M']},{row['error_l2']!r},{row['error_hessian_rel']!r},{row['residual']!r}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    passed: bool
    detail: str


def example_suite(seed: int = 0) -> list[SuiteCheck]:
    """Built-in verification bundle: counterexample analyses, hessian estimate, conversions."""
    checks: list[SuiteCheck] = []

    for m in (8.0, 16.0, 100.0):
        rep = example2_analysis(m)
        ok = (
            rep.infeasible
            and rep.convexity_margin_min >= -1e-12
            and rep.expansion_max_error <= 1e-10
            and np.allclose(rep.probe_a, (4.0, 4.0, 2.0), atol=1e-12)
            and np.allclose(rep.probe_b, (-4.0 * m, 4.0, 20.0), atol=1e-12)
        )
        checks.append(
            SuiteCheck(
                name=f"block-tensor-analysis(m={m:g})",
                passed=ok,
                detail=f"probes {rep.probe_a}, {rep.probe_b}; c2 in ({rep.c2_lower:g}, {rep.c2_upper:g}) empty",
            )
        )

    rep3 = example3_analysis(n=9)
    ok3 = (
        rep3.sum_at_one < 1.0
        and all(r.sampled_violation_max <= 1e-9 for r in rep3.inside)
        and all(r.equality_rel_error <= 1e-9 for r in rep3.inside)
        and all(r.pi_rel_error <= 1e-9 for r in rep3.inside)
        and all(r.violation >= -1e-12 for r in rep3.outside)
    )
    checks.append(
        SuiteCheck(
            name="norm-combo-window-analysis(n=9)",
            passed=ok3,
            detail=f"window [{rep3.alpha_lo:.6f}, {rep3.alpha_hi:.6f}], sum(1) = {rep3.sum_at_one:.6f}",
        )
    )

    grid = GridSpec(n=2, N=2, M=32)
    worst = 0.0
    for name, tensor in (("identity", identity_tensor(2, 2)), ("example2", example2_tensor(8.0))):
        nu = ellipticity_constant(tensor).nu
        for j in range(100):
            u = random_band_limited(grid, band=8, seed=seed + j)
            worst = max(worst, hessian_estimate_check(tensor, u, nu=nu))
    checks.append(
        SuiteCheck(
            name="hessian-estimate(200 fields)",
            passed=worst <= 1.0 + 1e-9,
            detail=f"max nu ||D^2 u|| / ||A:D^2 u|| = {worst:.12f}",
        )
    )

    rng = np.random.default_rng(seed)
    ok_conv = True
    for _ in range(50):
        lam = rng.uniform(0.2, 2.0)
        kappa = lam * rng.uniform(0.05, 0.95)
        M = rng.uniform(0.0, 3.0)
        conv = def2_from_def1(lam, kappa, M, alpha_sup=1.0, nu=1.0)
        if conv.anomaly or not (conv.beta + conv.gamma < 1.0):
            ok_conv = False
            break
        lam2, kap2 = def1_from_def2(conv.beta, conv.gamma)
        if not (lam2 > kap2 > 0):
            ok_conv = False
            break
    checks.append(
        SuiteCheck(
            name="constant-conversion-round-trip(50)",
            passed=ok_conv,
            detail="signed-form <-> quadratic-bound conversions stay feasible",
        )
    )
    return checks
