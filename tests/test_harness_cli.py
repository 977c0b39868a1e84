import json

import numpy as np
import pytest
from click.testing import CliRunner

import nearelliptic.cli as cli
import nearelliptic.fields as fields_module
from nearelliptic.certify import EllipticityCertificate
from nearelliptic.cli import main
from nearelliptic.errors import InputError, report_json
from nearelliptic.harness import (
    analytic_solution,
    build_problem,
    build_rhs,
    example_suite,
    modes_solution,
    resolve_config,
    run_convergence_study,
    run_manufactured,
    study_csv,
)
from nearelliptic.fields import PHYSICAL, GridSpec, VectorField, load_field, random_band_limited, save_field
from nearelliptic.fields import spectral_hessian, l2_norm
from nearelliptic.linear import apply_operator
from nearelliptic.tensors import SymTensor4, identity_tensor
from conftest import refuse_full_hessian


class TestConfig:
    def test_defaults_filled(self):
        cfg = resolve_config({})
        assert cfg["grid"]["M"] == 64
        assert cfg["solver"]["mode"] == "campanato"

    def test_echo_round_trip(self):
        cfg = resolve_config({"grid": {"M": 32}, "solver": {"tol_residual": 1e-6}})
        assert resolve_config(cfg) == cfg
        assert resolve_config(json.loads(json.dumps(cfg))) == cfg

    def test_band_limit_enforced(self):
        with pytest.raises(InputError):
            resolve_config({"grid": {"M": 32}, "rhs": {"kind": "random", "band": 9}})


class TestManufacturedSolutions:
    def test_modes_hessian_matches_spectral(self):
        grid = GridSpec(n=2, N=2, M=32)
        exact = modes_solution(grid, [{"component": 0, "k": [1, 0], "amplitude": 1.0}])
        spectral = spectral_hessian(exact.u)
        assert np.abs(exact.hessian.data - spectral.data).max() <= 1e-9

    def test_analytic_hessian_matches_spectral(self):
        grid = GridSpec(n=2, N=2, M=64)
        exact = analytic_solution(grid, scale=1.0)
        spectral = spectral_hessian(exact.u)
        rel = np.abs(exact.hessian.data - spectral.data).max() / np.abs(exact.hessian.data).max()
        assert rel <= 1e-9  # closed form vs spectral differentiation

    def test_mode_requires_nonzero_k(self):
        grid = GridSpec(n=2, N=2, M=16)
        with pytest.raises(InputError):
            modes_solution(grid, [{"component": 0, "k": [0, 0]}])


class TestRunManufactured:
    @pytest.mark.parametrize("mode", ["campanato", "linear"])
    @pytest.mark.parametrize(
        "rhs",
        [
            {"kind": "random", "band": 3},
            {"kind": "modes", "modes": [{"k": [1, 2]}, {"k": [2, -1], "component": 1, "kind": "cos"}]},
            {"kind": "analytic"},
        ],
    )
    def test_builds_no_full_hessian(self, monkeypatch, mode, rhs):
        spec = {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3} if mode == "campanato" else None}
        refuse_full_hessian(monkeypatch)
        report = run_manufactured({"grid": {"M": 16}, "spec": spec, "rhs": rhs, "solver": {"mode": mode}})
        assert np.isfinite(report.error_l2) and np.isfinite(report.error_hessian_rel)

    def test_linear_single_mode(self, tmp_path):
        report = run_manufactured(
            {
                "grid": {"M": 32},
                "solver": {"mode": "linear"},
                "rhs": {"kind": "modes", "modes": [{"component": 0, "k": [1, 0]}]},
            },
            out_dir=tmp_path,
        )
        assert report.error_l2 <= 1e-12
        assert (tmp_path / "solution.field").exists()
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["iteration_seconds"] is doc["contraction_bound"] is doc["max_ratio"] is None

    def test_nonlinear_run_writes_trace(self, tmp_path):
        report = run_manufactured(
            {
                "grid": {"M": 32},
                "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}},
                "rhs": {"kind": "random", "band": 6, "seed": 2},
            },
            out_dir=tmp_path,
        )
        assert report.error_hessian_rel <= 1e-7
        assert report.certificate is not None
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,metric,residual,ratio"
        assert len(trace) == 1 + report.iterations
        doc = json.loads((tmp_path / "report.json").read_text())
        seconds = doc["iteration_seconds"]
        assert len(seconds) == report.iterations
        assert all(0 < s <= report.wall_time_s for s in seconds)
        cert = report.certificate
        assert doc["contraction_bound"] == report.contraction_bound == np.sqrt(cert["beta"] + cert["gamma"])
        ratios = [float(line.split(",")[3]) for line in trace[1:]]
        assert doc["max_ratio"] == report.max_ratio == max(r for r in ratios if np.isfinite(r))
        assert report.max_ratio < report.contraction_bound

    def test_the_report_tells_a_stalled_solve_from_a_converged_one(self, tmp_path):
        # a right-hand side of mean 1 is out of reach of F of any zero-mean iterate: the solve stalls
        grid = GridSpec(n=2, N=2, M=16)
        save_field(tmp_path / "rhs.field", VectorField(grid, random_band_limited(grid, band=3, seed=8).data + 1.0))
        sine = {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}}
        doc = {"grid": {"M": 16}, "spec": sine, "rhs": {"kind": "file", "path": str(tmp_path / "rhs.field")}}
        stalled = run_manufactured(doc, out_dir=tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["status"] == stalled.status == "max_iters"
        assert stalled.iterations < stalled.config["solver"]["max_iters"]
        converged = run_manufactured({"grid": {"M": 16}, "spec": sine, "rhs": {"kind": "random", "band": 3, "seed": 2}})
        assert converged.status == "converged"
        linear = run_manufactured({"grid": {"M": 16}, "solver": {"mode": "linear"}})
        assert linear.status is None

    def test_the_distance_bound_holds_for_the_returned_iterate(self, tmp_path):
        # the manufactured u* is the fixed point: ||A : D^2(u* - u)|| is at most K/(1 - K) d_last
        sine = {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}}
        config = {"grid": {"M": 16}, "spec": sine, "rhs": {"kind": "random", "band": 3, "seed": 2}}
        config["solver"] = {"tol_residual": 1e-4}
        report = run_manufactured(config, out_dir=tmp_path)
        last = float((tmp_path / "trace.csv").read_text().splitlines()[-1].split(",")[1])
        K = report.contraction_bound
        assert json.loads((tmp_path / "report.json").read_text())["distance_bound"] == report.distance_bound
        assert report.distance_bound == K / (1 - K) * last
        cfg = resolve_config(config)
        grid, spec, _ = build_problem(cfg)
        _, exact = build_rhs(cfg, grid, spec)
        distance = l2_norm(apply_operator(spec.tensor, exact.u - load_field(tmp_path / "solution.field")))
        assert 0 < distance <= report.distance_bound
        assert run_manufactured({"grid": {"M": 16}, "solver": {"mode": "linear"}}).distance_bound is None

    def test_nonlinear_single_mode_tight(self):
        # small-scale manufactured mode at a tight tolerance: the recovered
        # field is exact to 1e-9 and the count respects the contraction bound
        report = run_manufactured(
            {
                "grid": {"M": 64},
                "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}},
                "rhs": {"kind": "modes", "modes": [{"component": 0, "k": [1, 0], "amplitude": 1.0}]},
                "solver": {"tol_residual": 1e-10},
            }
        )
        assert report.error_l2 <= 1e-9
        K = np.sqrt(report.certificate["beta"] + report.certificate["gamma"])
        assert report.iterations <= int(np.ceil(np.log(1e-10) / np.log(K))) + 5

    def test_zero_solution_zero_error(self):
        # band 0 manufactures the zero field; the solve returns it exactly
        report = run_manufactured(
            {"grid": {"M": 16}, "solver": {"mode": "linear"}, "rhs": {"kind": "random", "band": 0, "seed": 1}}
        )
        assert report.error_l2 == 0.0

    def test_high_dimension_smoke(self):
        report = run_manufactured(
            {
                "grid": {"n": 5, "M": 8},
                "solver": {"mode": "linear"},
                "rhs": {"kind": "random", "band": 2, "seed": 3},
            }
        )
        assert report.n_ge_5
        assert report.error_hessian_rel <= 1e-10

    def test_report_config_reparses(self, tmp_path):
        report = run_manufactured({"grid": {"M": 32}, "solver": {"mode": "linear"}}, out_dir=tmp_path)
        echoed = json.loads((tmp_path / "report.json").read_text())["config"]
        assert resolve_config(echoed) == report.config


class TestStudy:
    def test_spectral_decay(self):
        rows = run_convergence_study({"solver": {"mode": "linear"}, "rhs": {"kind": "analytic"}}, [16, 32, 64])
        errs = [row["error_hessian_rel"] for row in rows]
        assert errs[1] / errs[0] < (16 / 32) ** 4
        assert errs[2] / errs[1] < (32 / 64) ** 4

    def test_band_limited_exact_at_all_m(self):
        rows = run_convergence_study(
            {"solver": {"mode": "linear"}, "rhs": {"kind": "random", "band": 2, "seed": 1}},
            [16, 32],
        )
        for row in rows:
            assert row["error_hessian_rel"] <= 1e-10

    def test_decreasing_m_rejected(self):
        with pytest.raises(InputError):
            run_convergence_study({}, [32, 16])

    def test_csv_output(self):
        rows = [{"M": 16, "error_l2": 0.5, "error_hessian_rel": 0.25, "residual": 0.0}]
        text = study_csv(rows)
        assert text.startswith("M,error_l2,error_hessian_rel,residual\n16,0.5,0.25,0.0")


class TestExampleSuite:
    def test_all_checks_pass(self):
        checks = example_suite(seed=0)
        assert len(checks) >= 5
        for check in checks:
            assert check.passed, f"{check.name}: {check.detail}"


class TestCli:
    def test_example_suite_command(self):
        result = CliRunner().invoke(main, ["example-suite"])
        assert result.exit_code == 0
        assert "PASS" in result.output
        assert "FAIL" not in result.output

    def test_solve_linear_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"M": 16}, "rhs": {"kind": "random", "band": 3, "seed": 1}}))
        result = CliRunner().invoke(
            main, ["solve-linear", "--config", str(cfg), "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["residual_l2"] <= 1e-8
        u = load_field(tmp_path / "solution.field")
        assert l2_norm(u) > 0

    def test_solve_command_deterministic_trace(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": {"M": 16},
                    "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}},
                    "rhs": {"kind": "random", "band": 3, "seed": 7},
                }
            )
        )
        runner = CliRunner()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(main, ["solve", "--config", str(cfg), "--out-dir", str(out)])
            assert result.exit_code == 0, result.output
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "solution.field").read_bytes() == (out_b / "solution.field").read_bytes()

    def test_certify_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": {"M": 16},
                    "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.4}},
                }
            )
        )
        result = CliRunner().invoke(main, ["certify", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["beta"] + cert["gamma"] < 1

    def test_certify_infeasible_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": {"M": 16},
                    "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 3.0}},
                }
            )
        )
        result = CliRunner().invoke(main, ["certify", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert result.exit_code == 2

        # an infeasible fit has no lambda or kappa: the file is strict JSON, with null for them
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads((tmp_path / "certificate.json").read_text(), parse_constant=refuse)
        assert doc["lambda"] is None and doc["kappa"] is None
        with pytest.raises(InputError):
            EllipticityCertificate.from_dict(doc)

    def test_report_writer_writes_non_finite_numbers_as_null(self):
        doc = {"a": float("nan"), "b": [1.5, float("inf"), (np.float64(-np.inf), 2)], "c": {"d": None, "e": 0}}
        assert json.loads(report_json(doc)) == {"a": None, "b": [1.5, None, [None, 2]], "c": {"d": None, "e": 0}}

    def test_stability_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": {"M": 16},
                    "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}},
                    "spec_g": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.31}},
                    "rhs": {"kind": "random", "band": 3, "seed": 5},
                }
            )
        )
        result = CliRunner().invoke(
            main, ["solve-stability", "--config", str(cfg), "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "stability_report.json").read_text())
        assert report["condition_met"] is True
        assert report["certificate_suspect"] is False

    def test_stability_refusal_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": {"M": 16},
                    "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}},
                    "spec_g": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.9}},
                    "rhs": {"kind": "random", "band": 3, "seed": 5},
                }
            )
        )
        result = CliRunner().invoke(main, ["solve-stability", "--config", str(cfg)])
        assert result.exit_code == 3
        assert "REFUSED" in result.output

    def test_study_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"mode": "linear"}, "rhs": {"kind": "analytic"}}))
        result = CliRunner().invoke(
            main, ["study", "--config", str(cfg), "--m-list", "16,32", "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "study.csv").read_text().startswith("M,")


# a well-formed declared certificate, as EllipticityCertificate.as_dict writes it
CERTIFICATE = {
    "nu": 1.0, "beta": 0.09, "gamma": 0.455, "lambda": 0.2725, "kappa": 0.045,
    "alpha": 1.0, "alpha_bounds": [1.0, 1.0], "lipschitz_M": 1.3,
}


# the analytic certificate of this spec is built for alpha = 1/weight = 1/2
WEIGHTED_SINE = {"grid": {"M": 16}, "spec": {"weight": 2.0, "perturbation": {"kind": "scaled_sine", "amplitude": 0.3}}}


MALFORMED_PERTURBATIONS = [
    {"amplitude": 0.3},
    {"kind": "scaled_sine"},
    {"kind": "scaled_sine", "amplitude": "x"},
    # a custom hook is code: no config names one
    {"kind": "custom_lipschitz", "name": "tanh-sum", "lipschitz": 0.2},
]


MISTYPED_CONFIGS = [
    {"grid": {"M": "x"}},
    {"solver": {"max_iters": "x"}},
    {"rhs": {"kind": "random", "band": "3"}},
    {"spec": {"weight": [1, 2]}},
    {"spec": {"weight": "missing.field"}},
    {"tensor": {"path": "missing.txt"}},
    {"rhs": {"seed": -1}},
    {"spec": 5},
    {"spec_g": 5},
    {"spec_g": {"perturbation": 5}},
    {"certificate": {"nu": 1}},
    {"certificate": dict(CERTIFICATE, alpha_bounds=5)},
    {"certificate": dict(CERTIFICATE, beta="x")},
    {"tensor": "example2:m=x"},
    {"rhs": {"kind": "modes"}},
    {"rhs": {"kind": "modes", "modes": [{"component": 0}]}},
    {"rhs": {"kind": "modes", "modes": [{"k": [1, 0], "component": 5}]}},
    {"rhs": {"kind": "file", "path": None}},
    {"solver": {"mode": "bogus"}},
    {"alpha": {}},
]


class TestConfigPaths:
    """Every CLI command turns its config into a solve the way run_manufactured does."""

    @staticmethod
    def invoke(tmp_path, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return CliRunner().invoke(main, [command, "--config", str(cfg), "--out-dir", str(tmp_path)])

    def test_solve_linear_divides_by_the_weight(self, tmp_path):
        doc = {"grid": {"M": 16}, "spec": {"weight": 2.0}, "rhs": {"kind": "random", "band": 3, "seed": 1}}
        result = self.invoke(tmp_path, "solve-linear", doc)
        assert result.exit_code == 0, result.output
        ustar = random_band_limited(GridSpec(n=2, N=2, M=16), band=3, seed=1)
        u = load_field(tmp_path / "solution.field")
        assert np.abs(u.data - ustar.data).max() <= 1e-10

    @pytest.mark.parametrize("command", ["solve", "solve-stability"])
    def test_a_right_hand_side_whose_norm_overflows_exits_1(self, tmp_path, command):
        grid = GridSpec(n=2, N=2, M=16)
        data = random_band_limited(grid, band=4, seed=2).data.copy()
        data[0, 3, 5] = 1e300
        save_field(tmp_path / "rhs.field", VectorField(grid, data, PHYSICAL))
        doc = {
            "grid": {"M": 16},
            "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}},
            "spec_g": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.31}},
            "rhs": {"kind": "file", "path": str(tmp_path / "rhs.field")},
        }
        result = self.invoke(tmp_path, command, doc)
        assert result.exit_code == 1, result.output
        assert f"FAIL [{command}]" in result.output
        assert not (tmp_path / "solution.field").exists()

    @pytest.mark.parametrize("command", ["solve", "solve-linear", "solve-stability"])
    @pytest.mark.parametrize("case", ["hessian", "other-grid"])
    def test_a_right_hand_side_file_must_be_a_vector_field_on_the_config_grid(self, tmp_path, command, case):
        # a hessian file once ended in a traceback; a file on another grid was solved on its own grid
        grid = GridSpec(n=2, N=2, M=16 if case == "hessian" else 32)
        u = random_band_limited(grid, band=3, seed=4)
        path = tmp_path / "rhs.field"
        save_field(path, spectral_hessian(u) if case == "hessian" else u)
        doc = {
            "grid": {"M": 16},
            "spec_g": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.01}},
            "rhs": {"kind": "file", "path": str(path)},
        }
        result = self.invoke(tmp_path, command, doc)
        assert result.exit_code == 1, result.output
        assert f"FAIL [{command}]" in result.output and str(path) in result.output
        assert not (tmp_path / "solution.field").exists()

    @pytest.mark.parametrize("command", ["solve", "solve-linear", "solve-stability", "certify"])
    def test_a_hessian_weight_file_is_an_input_error_naming_the_file(self, tmp_path, command):
        path = tmp_path / "weight.field"
        save_field(path, spectral_hessian(random_band_limited(GridSpec(n=2, N=2, M=16), band=3, seed=5)))
        result = self.invoke(tmp_path, command, {"grid": {"M": 16}, "spec": {"weight": str(path)}})
        assert result.exit_code == 1, result.output
        assert f"FAIL [{command}]" in result.output and str(path) in result.output and "hessian" in result.output

    def test_study_refuses_a_right_hand_side_file(self, tmp_path):
        # it once solved the file's one grid under every M and then stopped on error_hessian_rel=None
        path = tmp_path / "rhs.field"
        save_field(path, random_band_limited(GridSpec(n=2, N=2, M=16), band=3, seed=6))
        doc = {"grid": {"M": 16}, "rhs": {"kind": "file", "path": str(path)}}
        with pytest.raises(InputError, match="manufactured right-hand side"):
            run_convergence_study(doc, [16, 32])
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        args = ["study", "--config", str(tmp_path / "cfg.json"), "--m-list", "16,32", "--out-dir", str(tmp_path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "FAIL [study]" in result.output
        assert not (tmp_path / "study.csv").exists()

    def test_solve_linear_refuses_a_spatial_weight(self, tmp_path):
        grid = GridSpec(n=2, N=2, M=16)
        weight = 1.5 + 0.5 * np.sin(2 * np.pi * np.arange(16) / 16)[:, None] * np.ones((16, 16))
        save_field(tmp_path / "weight.field", VectorField(grid, np.stack([weight, weight]), PHYSICAL))
        doc = {"grid": {"M": 16}, "spec": {"weight": str(tmp_path / "weight.field")}}
        result = self.invoke(tmp_path, "solve-linear", doc)
        assert result.exit_code == 1
        assert "FAIL [solve-linear]" in result.output

    @pytest.mark.parametrize("pert", MALFORMED_PERTURBATIONS)
    def test_solve_fails_on_a_malformed_perturbation(self, tmp_path, pert):
        result = self.invoke(tmp_path, "solve", {"grid": {"M": 16}, "spec": {"perturbation": pert}})
        assert result.exit_code == 1
        assert "FAIL [solve]" in result.output

    @pytest.mark.parametrize("doc", MISTYPED_CONFIGS)
    def test_solve_fails_on_a_mistyped_value(self, tmp_path, monkeypatch, doc):
        monkeypatch.chdir(tmp_path)
        for command in ("solve", "solve-stability"):
            result = self.invoke(tmp_path, command, doc)
            assert result.exit_code == 1, result.output
            assert f"FAIL [{command}]" in result.output

    def test_study_fails_on_a_malformed_m_list(self, tmp_path):
        args = ["study", "--m-list", "a,b", "--out-dir", str(tmp_path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "FAIL [study]" in result.output

    @pytest.mark.parametrize(
        "text", ['{"grid": ', "[1]", '{"grid": 5, "rhs": 5}', '{"grid": {"n": 1000000}}', '{"grid": {"M": 8, "L": 1e-300}}']
    )
    @pytest.mark.parametrize("command", ["certify", "solve-linear", "solve", "solve-stability", "study"])
    def test_every_command_fails_on_a_malformed_config_file(self, tmp_path, command, text):
        # not JSON, not a mapping, sections that a --seed override cannot enter, and grids
        # too large to count or with a period that leaves the float range
        (tmp_path / "cfg.json").write_text(text)
        args = [command, "--config", str(tmp_path / "cfg.json"), "--seed", "3", "--out-dir", str(tmp_path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert f"FAIL [{command}]" in result.output

    def test_declared_certificate_is_read(self, tmp_path):
        doc = {"grid": {"M": 16}, "certificate": CERTIFICATE, "rhs": {"kind": "random", "band": 3, "seed": 1}}
        result = self.invoke(tmp_path, "solve", doc)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["certificate"] == dict(CERTIFICATE, sample_count=0, worst_violation=None)

    @pytest.mark.parametrize("doc", [WEIGHTED_SINE, {"spec": {"weight": 3.0}, "certificate": "fitted"}])
    def test_solve_takes_the_alpha_of_its_certificate_by_default(self, tmp_path, doc):
        # the analytic certificate is built for alpha = 1/weight, the fitted one for its own alpha
        result = self.invoke(tmp_path, "solve", doc)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["alpha"] is None

    def test_an_explicit_alpha_overrides_the_certificate(self, tmp_path):
        result = self.invoke(tmp_path, "solve", dict(WEIGHTED_SINE, alpha=1.0))
        assert result.exit_code == 1
        # the certificate of weight 2 holds for alpha = 1/2 only, and the solve says so before iterating
        assert "FAIL [solve]" in result.output and "alpha=1 is not the alpha=0.5" in result.output

    @pytest.mark.parametrize("command", ["solve", "solve-linear", "solve-stability", "certify"])
    def test_every_command_reads_the_tensor_and_weight_files(self, tmp_path, command):
        # the tensor file holds 2 * identity and the weight file 0.5: F is the plain Laplacian again
        grid = GridSpec(n=2, N=2, M=16)
        (tmp_path / "tensor.txt").write_text(SymTensor4(2.0 * identity_tensor(2, 2).entries).to_text())
        save_field(tmp_path / "weight.field", VectorField(grid, np.full((2, 16, 16), 0.5), PHYSICAL))
        spec = {"weight": str(tmp_path / "weight.field"), "perturbation": None}
        doc = {
            "grid": {"M": 16},
            "tensor": {"path": str(tmp_path / "tensor.txt")},
            "spec": spec,
            "spec_g": {"perturbation": None},
            "rhs": {"kind": "random", "band": 3, "seed": 1},
        }
        if command == "solve-linear":
            # a weight field is refused by the linear solve; the constant 0.5 is the same weight
            doc["spec"] = dict(spec, weight=0.5)
        result = self.invoke(tmp_path, command, doc)
        assert result.exit_code == 0, result.output
        if command != "certify":
            u = load_field(tmp_path / "solution.field")
            ustar = random_band_limited(grid, band=3, seed=1)
            # the nonlinear solves stop at the residual tolerance 1e-8 of the default solver
            assert np.abs(u.data - ustar.data).max() <= 1e-6 * np.abs(ustar.data).max()

    def test_outputs_key_is_gone_but_tolerated(self, tmp_path):
        assert "outputs" not in resolve_config({})
        doc = {"grid": {"M": 16}, "solver": {"mode": "linear"}, "outputs": {"dir": "x", "formats": ["json"]}}
        result = self.invoke(tmp_path, "solve", doc)
        assert result.exit_code == 0, result.output

    def test_certify_seed_picks_the_samples(self, tmp_path):
        doc = {"grid": {"M": 16}, "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.4}}}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        samples = []
        for run, seed in enumerate(([], ["--seed", "1"], ["--seed", "2"], ["--seed", "1"])):
            out = tmp_path / str(run)
            args = ["certify", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)] + seed
            assert CliRunner().invoke(main, args).exit_code == 0
            samples.append((out / "violations.csv").read_bytes())
        default, one, two, one_again = samples
        assert one != two and one != default
        assert one == one_again

    def test_solve_stability_passes_max_iters(self, tmp_path, monkeypatch):
        seen = []
        solve = cli.solve_via_nearness

        def spy(*args, **kwargs):
            seen.append(kwargs["config"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_via_nearness", spy)
        doc = {
            "grid": {"M": 16},
            "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}},
            "spec_g": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.31}},
            "rhs": {"kind": "random", "band": 3, "seed": 5},
            "solver": {"tol_residual": 1e-7, "max_iters": 17},
        }
        result = self.invoke(tmp_path, "solve-stability", doc)
        assert result.exit_code == 0, result.output
        assert [(c.tol_residual, c.max_iters) for c in seen] == [(1e-7, 17)]


def declared(beta, gamma):
    """A declared certificate of the identity tensor (nu = 1) with alpha = 1 and these constants."""
    return dict(CERTIFICATE, beta=beta, gamma=gamma, **{"lambda": (1.0 - gamma) / 2, "kappa": beta / 2})


# nu(F, G) = |0.32 - 0.3| = 0.02, the analytic bound of two sine perturbations
STABILITY = {
    "grid": {"M": 16},
    "spec": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.3}},
    "spec_g": {"perturbation": {"kind": "scaled_sine", "amplitude": 0.32}},
    "rhs": {"kind": "random", "band": 3, "seed": 5},
}


class TestOneCertificateReader:
    """solve, study and solve-stability read certificate, alpha and the fit seed the same way."""

    invoke = staticmethod(TestConfigPaths.invoke)

    def test_solve_stability_refuses_by_a_declared_certificate(self, tmp_path):
        # nu(F) >= nu (1 - sqrt(0.99)) / sup alpha ~ 0.0050 is below nu(F, G) = 0.02
        result = self.invoke(tmp_path, "solve-stability", dict(STABILITY, certificate=declared(0.5, 0.49)))
        assert result.exit_code == 3, result.output
        assert "REFUSED [solve-stability]" in result.output

    def test_solve_stability_admits_by_a_declared_certificate(self, tmp_path):
        result = self.invoke(tmp_path, "solve-stability", dict(STABILITY, certificate=declared(0.5, 0.45)))
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "stability_report.json").read_text())
        assert report["nu_F_lower"] == pytest.approx(1.0 - np.sqrt(0.95), rel=1e-12)

    def test_solve_stability_takes_the_alpha_of_the_config(self, tmp_path):
        # the analytic certificate of weight 2 holds for alpha = 1/2 only
        doc = dict(STABILITY, spec=dict(STABILITY["spec"], weight=2.0), alpha=1.0)
        result = self.invoke(tmp_path, "solve-stability", doc)
        assert result.exit_code == 1
        assert "FAIL [solve-stability]" in result.output and "alpha=1 is not the alpha=0.5" in result.output

    def test_a_fitted_certificate_is_fitted_at_the_config_seed(self, tmp_path):
        doc = dict(STABILITY, certificate="fitted", seed=1)
        (tmp_path / "cfg.json").write_text(json.dumps(STABILITY))
        args = ["certify", "--config", str(tmp_path / "cfg.json"), "--seed", "1", "--out-dir", str(tmp_path / "c")]
        assert CliRunner().invoke(main, args).exit_code == 0
        fitted = json.loads((tmp_path / "c" / "certificate.json").read_text())
        result = self.invoke(tmp_path, "solve", doc)
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "report.json").read_text())["certificate"] == fitted
        result = self.invoke(tmp_path, "solve-stability", doc)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "stability_report.json").read_text())
        bound = fitted["nu"] * (1.0 - np.sqrt(fitted["beta"] + fitted["gamma"])) / fitted["alpha_bounds"][0]
        assert report["nu_F_lower"] == pytest.approx(bound, rel=1e-12)


class TestStageHandler:
    """Every command ends a failure in FAIL [<command>] with exit 1, never in a traceback."""

    def test_arithmetic_out_of_the_float_range_fails(self, tmp_path):
        doc = {"grid": {"M": 8}, "spec": {"weight": 1e300, "perturbation": {"kind": "scaled_sine", "amplitude": 0.3}}}
        result = TestConfigPaths.invoke(tmp_path, "solve", doc)
        assert result.exit_code == 1, result.output
        assert "FAIL [solve]" in result.output and "float range" in result.output

    def test_a_nu_search_past_the_memory_budget_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fields_module, "_DEFAULT_BUDGET", 1024**2)
        result = TestConfigPaths.invoke(tmp_path, "solve", {"grid": {"M": 8, "N": 16}})
        assert result.exit_code == 1, result.output
        assert "FAIL [solve]" in result.output and "memory budget" in result.output

    @pytest.mark.parametrize("command", ["certify", "solve-linear", "solve", "solve-stability", "study"])
    def test_a_config_that_is_a_directory_or_an_output_that_is_a_file_fails(self, tmp_path, command):
        (tmp_path / "cfg.json").write_text("{}")
        for config, out in ((tmp_path, tmp_path / "out"), (tmp_path / "cfg.json", tmp_path / "cfg.json")):
            args = [command, "--config", str(config), "--out-dir", str(out)] + (["--m-list", "8"] if command == "study" else [])
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 1, result.output
            assert f"FAIL [{command}]" in result.output

    def test_example_suite_refuses_a_negative_seed(self):
        result = CliRunner().invoke(main, ["example-suite", "--seed", "-1"])
        assert result.exit_code == 1, result.output
        assert "FAIL [example-suite]" in result.output
