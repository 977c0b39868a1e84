"""Tests of the benchmark itself: a tiny smoke pass of every workload, steady counts, the tracer.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
STEADY_COUNTS = (
    "fields.fft_scalar_per_iter",
    "campanato.iterations_per_solve",
    "stability.hessian_calls_per_outer",
    "tensors.symbol_inversions_per_op",
    "fields.largest_array_bytes",
)
# the steady counts each workload must move (the others may read 0 there)
EXPECTED_NONZERO = {
    "solve-3d": ("fields.fft_scalar_per_iter", "campanato.iterations_per_solve", "tensors.symbol_inversions_per_op"),
    "linear-sweep": ("tensors.symbol_inversions_per_op", "fields.largest_array_bytes"),
    "stability": ("stability.hessian_calls_per_outer", "campanato.iterations_per_solve"),
    "certify": (),
}


def test_benchmark_json_names_the_four_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == sorted(WORKLOADS, key=list(WORKLOADS).index)
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = run.measure(name, seed=3, seconds=0, trace=False, size="tiny", out_dir=tmp_path, ops=3)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] == 4
    for metric in BENCH["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert (tmp_path / f"{name}-seed3-trace0.json").is_file()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_runs_repeat_their_counts(name, tmp_path):
    # the counts are taken over a fixed op window, so a longer run repeats them
    first = run.measure(name, seed=5, seconds=0, trace=True, size="tiny", out_dir=tmp_path / "a", ops=2)
    second = run.measure(name, seed=5, seconds=0, trace=True, size="tiny", out_dir=tmp_path / "b", ops=4)
    for result in (first, second):
        assert result["correct"], result["failures"]
        assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
            k: v["unit"] for k, v in result["metrics"].items()
        }
    for key in STEADY_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    for key in EXPECTED_NONZERO[name]:
        assert first["metrics"][key]["value"] > 0, key
    assert (tmp_path / "a" / f"{name}-seed5-trace1.spans.csv").is_file()


def test_tracer_restores_every_wrapped_name():
    import numpy as np

    import nearelliptic.campanato as campanato

    fftn, solve = np.fft.fftn, campanato.solve_linear
    tracer = Tracer()
    tracer.install()
    assert np.fft.fftn is not fftn and campanato.solve_linear is not solve
    assert not tracer.restored()
    tracer.uninstall()
    assert tracer.restored()
    assert np.fft.fftn is fftn and campanato.solve_linear is solve


def test_tracer_counts_the_transforms_of_one_hessian():
    import nearelliptic as ne

    grid = ne.GridSpec(n=2, N=2, M=8)
    u = ne.random_band_limited(grid, band=2, seed=1)
    tracer = Tracer()
    tracer.run_op(1, lambda: ne.spectral_hessian(u))
    m = layer_metrics(tracer.spans, ops=1, count_ops={1})
    assert tracer.restored()
    assert m["fields.hessian_calls_per_op"] == 1
    assert m["fields.calls_per_op"] == 1
    # forward: N scalar transforms; inverse of the (N, n, n) hessian: N n^2
    assert m["fields.fft_scalar_per_op"] == 2 + 2 * 2 * 2
    assert m["fields.largest_array_bytes"] == 2 * 2 * 2 * 8 * 8 * 16
    assert 0 <= m["fields.self_s_per_op"] <= m["fields.busy_s_per_op"]


def test_nominal_clock_scales_by_the_probes_around_the_ops(monkeypatch):
    clock = run.NominalClock()
    clock._before = 1.5 * run.REF_NOMINAL_S
    monkeypatch.setattr(clock, "probe", lambda: 2.5 * run.REF_NOMINAL_S)
    clock.add(1.0)
    clock.add(0.5)
    assert clock.pending_s == 1.5
    assert clock.flush() == [pytest.approx(0.5), pytest.approx(0.25)]
    assert clock.pending_s == 0.0


def test_tail_is_the_eleventh_largest_sample():
    assert run.tail([float(v) for v in range(100)]) == (90.0, 89.0, 10)
    assert run.tail([float(v) for v in range(9)]) == (pytest.approx(500 / 9), 4.0, 4)


def test_run_without_the_package_source_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-3d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
