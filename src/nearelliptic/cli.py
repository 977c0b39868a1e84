"""Command-line front end for solves, certification, studies, and the example suite."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .certify import SamplerConfig, fit_k_condition, verify_k_condition
from .errors import InputError, NearEllipticError, NearnessConditionError, report_json
from .fields import save_field
from .harness import (
    build_certificate,
    build_problem,
    build_rhs,
    build_solve_config,
    example_suite,
    resolve_config,
    run_convergence_study,
    run_manufactured,
    solve_linear_spec,
    study_csv,
)
from .nonlinearity import NonlinearitySpec
from .stability import solve_via_nearness


def _load_config(path: str | None, overrides: dict) -> dict:
    try:
        doc = json.loads(Path(path).read_text()) if path else {}
    except OSError as exc:
        raise InputError(f"cannot read the config file: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"config file is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"config must be a mapping, got {doc!r}")
    for key, value in overrides.items():
        if value is None:
            continue
        section, _, leaf = key.partition(".")
        if leaf:
            # a section that is not a mapping is refused by resolve_config
            if isinstance(doc.setdefault(section, {}), dict):
                doc[section][leaf] = value
        else:
            doc[section] = value
    return doc


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make the output directory: {exc}") from exc
    return out


def _out_of_range(kind: str, flag: int) -> None:
    raise InputError(f"arithmetic left the float range ({kind}): an input is too large or too small")


class _Stages(click.Group):
    """Runs each command as one stage: a refused admission exits 3, any other package error 1, naming the command.

    Floating-point overflow, division by zero and invalid operations are
    InputErrors in a stage, so a run neither warns nor reports inf or nan.
    """

    def invoke(self, ctx):
        try:
            with np.errstate(over="call", divide="call", invalid="call", call=_out_of_range):
                return super().invoke(ctx)
        except NearEllipticError as exc:
            refused = isinstance(exc, NearnessConditionError)
            click.echo(f"{'REFUSED' if refused else 'FAIL'} [{ctx.invoked_subcommand}] {exc}", err=True)
            sys.exit(3 if refused else 1)


@click.group(cls=_Stages)
def main():
    """Spectral solver for fully nonlinear second-order elliptic systems."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=None, help="Sampling seed override.")
@click.option("--out-dir", default=".", show_default=True)
def certify(config_path, seed, out_dir):
    """Fit the two-constant ellipticity certificate for the configured nonlinearity."""
    cfg = resolve_config(_load_config(config_path, {"seed": seed}))
    _, spec, nu = build_problem(cfg)
    sampler = SamplerConfig(seed=cfg["seed"])
    cert = fit_k_condition(spec, sampler, nu=nu)
    check = verify_k_condition(spec, cert.alpha, cert.beta, cert.gamma, sampler, nu=nu)
    out = _out_dir(out_dir)
    (out / "certificate.json").write_text(cert.to_text())
    (out / "violations.csv").write_text(check.violations_csv())
    click.echo(
        f"nu={cert.nu:.6g} alpha={cert.alpha:.6g} beta={cert.beta:.6g} "
        f"gamma={cert.gamma:.6g} sum={cert.beta + cert.gamma:.6g} "
        f"feasible={cert.feasible} verify_worst={check.worst_violation:.3e}"
    )
    if not cert.feasible:
        click.echo("no feasible certificate found", err=True)
        sys.exit(2)


@main.command("solve-linear")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--epsilon", type=float, default=None, help="Regularized multiplier 1/(|z|^2 + eps).")
@click.option("--grid-m", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", default=".", show_default=True)
def solve_linear_cmd(config_path, epsilon, grid_m, seed, out_dir):
    """Solve the constant-coefficient system A : D^2 u = f by symbol inversion."""
    overrides = {"solver.epsilon": epsilon, "grid.M": grid_m, "rhs.seed": seed}
    cfg = resolve_config(_load_config(config_path, overrides))
    grid, spec, nu = build_problem(cfg)
    f, _ = build_rhs(cfg, grid, spec)
    result = solve_linear_spec(cfg, spec, f, nu)
    out = _out_dir(out_dir)
    save_field(out / "solution.field", result.u)
    (out / "report.json").write_text(report_json(result.report()))
    click.echo(
        f"residual={result.residual_l2:.3e} hessian_ratio={result.hessian_ratio:.6f} "
        f"dropped_mean={np.linalg.norm(result.dropped_mean):.3e} reg={result.regularization}"
    )


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--tol", type=float, default=None)
@click.option("--grid-m", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", default=".", show_default=True)
def solve(config_path, tol, grid_m, seed, out_dir):
    """Solve F(., D^2 u) = f by the near-operator contraction."""
    cfg = _load_config(config_path, {"solver.tol_residual": tol, "grid.M": grid_m, "rhs.seed": seed})
    report = run_manufactured(cfg, out_dir=_out_dir(out_dir))
    click.echo(
        f"iterations={report.iterations} residual={report.residual:.3e} "
        f"error_hessian_rel={report.error_hessian_rel} n_ge_5={report.n_ge_5}"
    )


@main.command("solve-stability")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=None, help="Right-hand-side seed override.")
@click.option("--out-dir", default=".", show_default=True)
def solve_stability(config_path, seed, out_dir):
    """Solve G(., D^2 u) = g through the certified F solver (two specs in one config)."""
    cfg = resolve_config(_load_config(config_path, {"rhs.seed": seed}))
    grid, spec_f, nu = build_problem(cfg)
    g_doc = dict(cfg["spec"], tensor=cfg["tensor"], perturbation=cfg["spec_g"]["perturbation"])
    spec_g = NonlinearitySpec.from_dict(g_doc, grid)
    cert, alpha = build_certificate(cfg, spec_f, nu)
    g_field, _ = build_rhs(cfg, grid, spec_g)
    u, rep = solve_via_nearness(spec_f, spec_g, alpha, cert, g_field, config=build_solve_config(cfg))
    out = _out_dir(out_dir)
    save_field(out / "solution.field", u)
    (out / "stability_report.json").write_text(report_json(rep.as_dict()))
    click.echo(
        f"condition_met={rep.condition_met} nu_F_lower={rep.nu_F_lower:.6g} "
        f"nu_FG={rep.nu_FG.effective:.6g} outer_iters={rep.outer_trace.iterations}"
    )


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--m-list", default="16,32,64", show_default=True)
@click.option("--seed", type=int, default=None, help="Right-hand-side seed override.")
@click.option("--out-dir", default=".", show_default=True)
def study(config_path, m_list, seed, out_dir):
    """Grid-refinement convergence study against an analytic manufactured solution."""
    cfg = _load_config(config_path, {"rhs.seed": seed})
    try:
        m_values = [int(tok) for tok in m_list.split(",")]
    except ValueError:
        raise InputError(f"--m-list must be comma-separated integers, got {m_list!r}") from None
    rows = run_convergence_study(cfg, m_values)
    out = _out_dir(out_dir)
    (out / "study.csv").write_text(study_csv(rows))
    for row in rows:
        click.echo(f"M={row['M']:>4d} error_hessian_rel={row['error_hessian_rel']:.6e}")


@main.command("example-suite")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", default=None, help="Also write the analysis reports as JSON.")
def example_suite_cmd(seed, out_dir):
    """Run the built-in verification bundle and report pass/fail per check."""
    checks = example_suite(seed=seed)
    if out_dir is not None:
        from .counterexamples import example2_analysis, example3_analysis

        out = _out_dir(out_dir)
        (out / "block_tensor_report.json").write_text(report_json(example2_analysis(8.0).as_dict()))
        (out / "window_report.json").write_text(report_json(example3_analysis(n=9).as_dict()))
    failed = [c for c in checks if not c.passed]
    for check in checks:
        click.echo(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    if failed:
        click.echo(f"{len(failed)} check(s) failed", err=True)
        sys.exit(1)

if __name__ == "__main__":
    main()
