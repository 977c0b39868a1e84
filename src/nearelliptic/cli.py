"""Command-line front end for solves, certification, studies, and the example suite."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .certify import SamplerConfig, example1_alpha, example1_certificate, fit_k_condition, verify_k_condition
from .errors import NearEllipticError, NearnessConditionError
from .fields import save_field
from .harness import (
    build_problem,
    build_rhs,
    build_solve_config,
    build_spec,
    example_suite,
    resolve_config,
    run_convergence_study,
    run_manufactured,
    solve_linear_spec,
    study_csv,
)
from .stability import solve_via_nearness


def _load_config(path: str | None, overrides: dict) -> dict:
    doc = json.loads(Path(path).read_text()) if path else {}
    for key, value in overrides.items():
        if value is None:
            continue
        section, _, leaf = key.partition(".")
        if leaf:
            doc.setdefault(section, {})
            doc[section][leaf] = value
        else:
            doc[section] = value
    return doc


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fail(stage: str, exc: Exception) -> None:
    click.echo(f"FAIL [{stage}] {exc}", err=True)
    sys.exit(1)


@click.group()
def main():
    """Spectral solver for fully nonlinear second-order elliptic systems."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=None, help="Sampling seed override.")
@click.option("--out-dir", default=".", show_default=True)
def certify(config_path, seed, out_dir):
    """Fit the two-constant ellipticity certificate for the configured nonlinearity."""
    try:
        cfg = resolve_config(_load_config(config_path, {"seed": seed}))
        _, _, spec, nu = build_problem(cfg)
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
    except NearEllipticError as exc:
        _fail("certify", exc)


@main.command("solve-linear")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--epsilon", type=float, default=None, help="Regularized multiplier 1/(|z|^2 + eps).")
@click.option("--grid-m", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", default=".", show_default=True)
def solve_linear_cmd(config_path, epsilon, grid_m, seed, out_dir):
    """Solve the constant-coefficient system A : D^2 u = f by symbol inversion."""
    try:
        cfg = resolve_config(
            _load_config(
                config_path,
                {"solver.epsilon": epsilon, "grid.M": grid_m, "rhs.seed": seed},
            )
        )
        grid, _, spec, nu = build_problem(cfg)
        f, _ = build_rhs(cfg, grid, spec)
        result = solve_linear_spec(cfg, spec, f, nu)
        out = _out_dir(out_dir)
        save_field(out / "solution.field", result.u)
        (out / "report.json").write_text(json.dumps(result.report(), indent=2, sort_keys=True))
        click.echo(
            f"residual={result.residual_l2:.3e} hessian_ratio={result.hessian_ratio:.6f} "
            f"dropped_mean={np.linalg.norm(result.dropped_mean):.3e} reg={result.regularization}"
        )
    except NearEllipticError as exc:
        _fail("solve-linear", exc)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--tol", type=float, default=None)
@click.option("--grid-m", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", default=".", show_default=True)
def solve(config_path, tol, grid_m, seed, out_dir):
    """Solve F(., D^2 u) = f by the near-operator contraction."""
    try:
        cfg = _load_config(
            config_path,
            {"solver.tol_residual": tol, "grid.M": grid_m, "rhs.seed": seed},
        )
        report = run_manufactured(cfg, out_dir=_out_dir(out_dir))
        click.echo(
            f"iterations={report.iterations} residual={report.residual:.3e} "
            f"error_hessian_rel={report.error_hessian_rel} n_ge_5={report.n_ge_5}"
        )
    except NearEllipticError as exc:
        _fail("solve", exc)


@main.command("solve-stability")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=None, help="Right-hand-side seed override.")
@click.option("--out-dir", default=".", show_default=True)
def solve_stability(config_path, seed, out_dir):
    """Solve G(., D^2 u) = g through the certified F solver (two specs in one config)."""
    try:
        doc = json.loads(Path(config_path).read_text())
        if seed is not None:
            doc.setdefault("rhs", {})["seed"] = seed
        base = resolve_config(doc)
        pert_g = doc.get("spec_g", {}).get("perturbation")
        cfg_g = dict(base, spec=dict(base["spec"], perturbation=pert_g))
        grid, tensor, spec_f, nu = build_problem(base)
        spec_g = build_spec(cfg_g, tensor)
        cert = example1_certificate(spec_f, nu=nu)
        g_field, _ = build_rhs(cfg_g, grid, spec_g)
        u, rep = solve_via_nearness(
            spec_f,
            spec_g,
            example1_alpha(spec_f),
            cert,
            g_field,
            config=build_solve_config(base),
        )
        out = _out_dir(out_dir)
        save_field(out / "solution.field", u)
        (out / "stability_report.json").write_text(
            json.dumps(rep.as_dict(), indent=2, sort_keys=True)
        )
        click.echo(
            f"condition_met={rep.condition_met} nu_F_lower={rep.nu_F_lower:.6g} "
            f"nu_FG={rep.nu_FG.effective:.6g} outer_iters={rep.outer_trace.iterations}"
        )
    except NearnessConditionError as exc:
        click.echo(f"REFUSED [solve-stability] {exc}", err=True)
        sys.exit(3)
    except NearEllipticError as exc:
        _fail("solve-stability", exc)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--m-list", default="16,32,64", show_default=True)
@click.option("--seed", type=int, default=None, help="Right-hand-side seed override.")
@click.option("--out-dir", default=".", show_default=True)
def study(config_path, m_list, seed, out_dir):
    """Grid-refinement convergence study against an analytic manufactured solution."""
    try:
        cfg = _load_config(config_path, {"rhs.seed": seed})
        m_values = [int(tok) for tok in m_list.split(",")]
        rows = run_convergence_study(cfg, m_values)
        out = _out_dir(out_dir)
        (out / "study.csv").write_text(study_csv(rows))
        for row in rows:
            click.echo(
                f"M={row['M']:>4d} error_hessian_rel={row['error_hessian_rel']:.6e}"
            )
    except NearEllipticError as exc:
        _fail("study", exc)


@main.command("example-suite")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", default=None, help="Also write the analysis reports as JSON.")
def example_suite_cmd(seed, out_dir):
    """Run the built-in verification bundle and report pass/fail per check."""
    try:
        checks = example_suite(seed=seed)
        if out_dir is not None:
            from .counterexamples import example2_analysis, example3_analysis

            out = _out_dir(out_dir)
            (out / "block_tensor_report.json").write_text(
                json.dumps(example2_analysis(8.0).as_dict(), indent=2, sort_keys=True)
            )
            (out / "window_report.json").write_text(
                json.dumps(example3_analysis(n=9).as_dict(), indent=2, sort_keys=True)
            )
    except NearEllipticError as exc:
        _fail("example-suite", exc)
        return
    failed = [c for c in checks if not c.passed]
    for check in checks:
        click.echo(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    if failed:
        click.echo(f"{len(failed)} check(s) failed", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
