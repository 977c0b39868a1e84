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

Exact hessians are packed (:class:`~nearelliptic.fields.HessianPairs`): the
closed forms fill the n(n+1)/2 distinct slots directly, and the recovery
error is a packed norm.  A right-hand-side file must hold a vector field on
the config's grid; a convergence study, which needs an exact solution, refuses one.

Each concept has one reader: ``tensor`` and ``spec`` go to
:meth:`~nearelliptic.nonlinearity.NonlinearitySpec.from_dict` with the grid,
and ``certificate``, ``alpha`` and the fit ``seed`` to
:func:`build_certificate`, which ``solve``, ``study`` and
``solve-stability`` share.
:func:`resolve_config` also checks the sections only some commands read
(``spec_g``, ``solver.mode``, ``certificate``), so a malformed config is an
InputError in every command.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .campanato import SolveConfig, campanato_solve
from .certify import (
    EllipticityCertificate,
    SamplerConfig,
    def1_from_def2,
    def2_from_def1,
    example1_alpha,
    example1_certificate,
    fit_k_condition,
)
from .counterexamples import example2_analysis, example3_analysis
from .errors import InputError, finite_number, report_json
from .fields import (
    PHYSICAL,
    GridSpec,
    HessianPairs,
    VectorField,
    _load_vector_field,
    half_spectrum,
    l2_norm,
    random_band_limited,
    save_field,
)
from .linear import LinearSolveResult, hessian_estimate_check, solve_linear
from .nonlinearity import NonlinearitySpec, evaluate_field, perturbation_from_dict
from .tensors import _certified_nu, ellipticity_constant, example2_tensor, identity_tensor

_DEFAULTS = {
    "grid": {"n": 2, "N": 2, "M": 64, "L": 1.0},
    "tensor": "identity",
    "spec": {"perturbation": None, "weight": 1.0},
    "spec_g": {"perturbation": None},
    "alpha": None,
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
    """Raise InputError on a config section that is not a mapping or a value of the wrong kind.

    A numeric value is None only where its default is None, meaning unset.
    """
    for section, default in _DEFAULTS.items():
        if isinstance(default, dict) and not isinstance(cfg[section], dict):
            raise InputError(f"config {section!r} must be a mapping, got {cfg[section]!r}")
    integers = ("grid.n", "grid.N", "grid.M", "rhs.band", "rhs.seed", "solver.max_iters", "seed")
    reals = ("grid.L", "rhs.analytic_scale", "solver.tol_residual", "solver.epsilon")
    if not isinstance(cfg["alpha"], str):  # a string asks for the matching alpha = 1/weight
        reals += ("alpha",)
    for name in integers + reals:
        section, _, key = name.rpartition(".")
        value = (cfg[section] if section else cfg)[key]
        if value is not None:
            finite_number(value, f"config {name!r}", integer=name in integers)
    # sections that only some commands read: every command refuses them malformed
    if cfg["spec_g"]["perturbation"] is not None:
        perturbation_from_dict(cfg["spec_g"]["perturbation"])
    if cfg["solver"]["mode"] not in ("campanato", "linear"):
        raise InputError(f"config 'solver.mode' must be 'campanato' or 'linear', got {cfg['solver']['mode']!r}")
    certificate = cfg["certificate"]
    if isinstance(certificate, dict):
        EllipticityCertificate.from_dict(certificate)
    elif certificate not in ("analytic", "fitted"):
        raise InputError(f"config 'certificate' must be 'analytic', 'fitted' or a mapping, got {certificate!r}")


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


def build_problem(cfg: dict) -> tuple[GridSpec, NonlinearitySpec, float]:
    """Grid, the spec of ``tensor`` and ``spec``, and the tensor's nu(A), which must be positive."""
    grid = build_grid(cfg)
    spec = NonlinearitySpec.from_dict(dict(cfg["spec"], tensor=cfg["tensor"]), grid)
    return grid, spec, _certified_nu(spec.tensor, None)


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
    """Exact field (physical) with its closed-form hessian on the grid, packed."""

    u: VectorField
    hessian: HessianPairs


def modes_solution(grid: GridSpec, modes: list[dict]) -> ManufacturedSolution:
    """Sum of sin/cos lattice modes; the hessian multiplier is exact.

    Each mode is ``{"k": [...], "component": 0, "amplitude": 1.0, "kind":
    "sin"}``, only ``k`` required; a malformed one is an InputError.
    """
    if not isinstance(modes, list):
        raise InputError(f"rhs kind 'modes' needs a list of modes, got {modes!r}")
    coords = np.meshgrid(*grid.axes(), indexing="ij")
    rows, cols = HessianPairs.components(grid.n)
    u = np.zeros((grid.N,) + grid.shape)
    hess = np.zeros((grid.N, len(rows)) + grid.shape)
    for mode in modes:
        if not isinstance(mode, dict) or "k" not in mode:
            raise InputError(f"a mode needs a frequency 'k', got {mode!r}")
        comp = finite_number(mode.get("component", 0), "mode component", integer=True)
        amp = finite_number(mode.get("amplitude", 1.0), "mode amplitude")
        kind = mode.get("kind", "sin")
        try:
            k = np.asarray(mode["k"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"mode frequency must be numbers: {exc}") from exc
        if comp >= grid.N or kind not in ("sin", "cos") or k.shape != (grid.n,) or not np.any(k):
            raise InputError(
                f"a mode needs a component below {grid.N}, kind 'sin' or 'cos' and a nonzero "
                f"{grid.n}-vector k, got {mode!r}"
            )
        phase = 2 * np.pi * sum(k[i] * coords[i] for i in range(grid.n)) / grid.L
        wave = np.sin(phase) if kind == "sin" else np.cos(phase)
        u[comp] += amp * wave
        factor = -((2 * np.pi / grid.L) ** 2)
        hess[comp] += (amp * factor * k[rows] * k[cols]).reshape((-1,) + (1,) * grid.n) * wave
    return ManufacturedSolution(u=VectorField(grid, u, PHYSICAL), hessian=HessianPairs(grid, hess))


def analytic_solution(grid: GridSpec, scale: float = 3.0) -> ManufacturedSolution:
    """Separable smooth field u_a = prod_i exp(s_ai sin(2 pi x_i / L)), not band-limited.

    With g_i = s (2 pi / L) cos(2 pi x_i / L) and g_i' = -s (2 pi / L)^2
    sin(2 pi x_i / L), the hessian is u (g_i g_j + delta_ij g_i').
    """
    coords = np.meshgrid(*grid.axes(), indexing="ij")
    two_pi = 2 * np.pi / grid.L
    rows, cols = HessianPairs.components(grid.n)
    u = np.zeros((grid.N,) + grid.shape)
    hess = np.zeros((grid.N, len(rows)) + grid.shape)
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
        for p, (i, j) in enumerate(zip(rows, cols)):
            hess[a, p] = value * g[i] * g[j]
            if i == j:
                hess[a, p] += value * gp[i]
    return ManufacturedSolution(u=VectorField(grid, u, PHYSICAL), hessian=HessianPairs(grid, hess))


def build_rhs(cfg: dict, grid: GridSpec, spec: NonlinearitySpec):
    """Right-hand side and, when manufactured, the exact solution; a file must hold a vector field on the config's grid."""
    r = cfg["rhs"]
    kind = r["kind"]
    if kind == "file":
        if not isinstance(r["path"], str):
            raise InputError(f"rhs kind 'file' needs a 'path', got {r['path']!r}")
        return _load_vector_field(r["path"], "right-hand-side", grid), None
    if kind == "random":
        ustar = random_band_limited(grid, int(r["band"]), int(r["seed"]))
        half = half_spectrum(grid)
        exact = ManufacturedSolution(u=ustar, hessian=half.hessian_pairs(half.coefficients(ustar)))
    elif kind == "modes":
        exact = modes_solution(grid, r["modes"])
    elif kind == "analytic":
        exact = analytic_solution(grid, r["analytic_scale"])
    else:
        raise InputError(f"unknown rhs kind {kind!r}")
    f = evaluate_field(spec, exact.hessian)
    return f, exact


def build_certificate(cfg: dict, spec: NonlinearitySpec, nu: float):
    """The certificate of ``certificate`` and the alpha it is solved with: the one reader of both.

    ``"fitted"`` is fitted at the config's ``seed``, as ``certify`` fits it.
    An unset ``alpha`` is the certificate's own; failing that, 1/weight for
    the analytic certificate (of a weight field) and 1 for a declared one.  A
    string asks for the matching alpha = 1/weight.
    """
    c = cfg["certificate"]
    if c == "analytic":
        certificate = example1_certificate(spec, nu=nu)
    elif c == "fitted":
        certificate = fit_k_condition(spec, SamplerConfig(seed=cfg["seed"]), nu=nu)
    else:
        certificate = EllipticityCertificate.from_dict(c)
    alpha = cfg["alpha"]
    if alpha is None:
        alpha = certificate.alpha if certificate.alpha is not None else ("matching" if c == "analytic" else 1.0)
    if isinstance(alpha, str):
        alpha = example1_alpha(spec)
    return certificate, alpha


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
    iteration_seconds: list[float] | None  # per fixed-point step; None for a linear solve
    contraction_bound: float | None  # certified K = sqrt(beta + gamma); None for a linear solve
    max_ratio: float | None  # largest finite contraction ratio of the trace; None when there is none
    status: str | None  # the trace's status, "converged" or "max_iters"; None for a linear solve
    # certified bound on ||A : D^2(u_fixed - u)||, u_fixed the fixed point: the trace's (see campanato's
    # module notes); None for a linear solve
    distance_bound: float | None

    def as_dict(self) -> dict:
        return asdict(self)


def _gauge_comparison(u: VectorField, exact: ManufacturedSolution):
    """Errors against the exact solution, mean-adjusted (the solve is gauged)."""
    grid = u.grid
    mean = exact.u.mean()
    shift = exact.u.data - mean.reshape((grid.N,) + (1,) * grid.n)
    err = VectorField(grid, u.to_physical().data - shift, PHYSICAL)
    half = half_spectrum(grid)
    hess_diff = HessianPairs(grid, half.hessian_pairs(half.coefficients(u)).data - exact.hessian.data).norm()
    denom = exact.hessian.norm()
    return l2_norm(err), (hess_diff / denom if denom > 0 else hess_diff)


def run_manufactured(config: dict, out_dir: str | Path | None = None) -> RunReport:
    """Build the exact solution, feed F(., D^2 u*) to the solver, report errors."""
    cfg = resolve_config(config)
    started = time.monotonic()
    grid, spec, nu = build_problem(cfg)
    f, exact = build_rhs(cfg, grid, spec)

    outputs: dict = {}
    cert_dict = seconds = bound = max_ratio = status = distance = None
    if cfg["solver"]["mode"] == "linear":
        result = solve_linear_spec(cfg, spec, f, nu)
        u = result.u
        residual = result.residual_l2
        iterations = 1
    else:
        certificate, alpha = build_certificate(cfg, spec, nu)
        cert_dict = certificate.as_dict()
        u, trace = campanato_solve(spec, alpha, f, certificate, config=build_solve_config(cfg))
        residual = trace.final_residual
        iterations = trace.iterations
        seconds = [r.seconds for r in trace.records]
        bound = certificate.contraction
        max_ratio = max(trace.ratios, default=None)
        status = trace.status
        distance = trace.distance_bound
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
        iteration_seconds=seconds,
        contraction_bound=bound,
        max_ratio=max_ratio,
        status=status,
        distance_bound=distance,
    )
    if out_dir is not None:
        (Path(out_dir) / "report.json").write_text(report_json(report.as_dict()))
    return report


def run_convergence_study(config: dict, m_values: list[int]) -> list[dict]:
    """Fixed manufactured exact solution (analytic by default), increasing M; spectral decay of the recovery error."""
    if sorted(m_values) != list(m_values):
        raise InputError("M list must be increasing")
    grid, rhs = (config or {}).get("grid", {}), (config or {}).get("rhs", {})
    if not (isinstance(grid, dict) and isinstance(rhs, dict)):
        raise InputError(f"config 'grid' and 'rhs' must be mappings, got {grid!r} and {rhs!r}")
    kind = rhs.get("kind", "analytic")
    if kind == "file":
        raise InputError("a convergence study needs a manufactured right-hand side, not rhs kind 'file'")
    rows = []
    for M in m_values:
        doc = dict(config or {}, grid=dict(grid, M=M), rhs=dict(rhs, kind=kind))
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
    """Built-in verification bundle: counterexample analyses, hessian estimate, conversions.

    ``seed`` must be a non-negative integer.
    """
    finite_number(seed, "example-suite seed", integer=True)
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
        if conv.anomaly:
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
