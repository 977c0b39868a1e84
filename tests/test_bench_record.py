import importlib.util
import json
import os
import signal
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = [
    {"name": "op_p50_ms", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def working_set_line(mib):
    return f"working set (tracemalloc peak of one op): {mib:.2f} MiB = 0.50x L2, 0.02x L3"


def run(op_p50_ms, ops_per_s, correct=True, working_set_mib=1.0):
    metrics = {"op_p50_ms": {"value": op_p50_ms}, "ops_per_s": {"value": ops_per_s}}
    return {"working_set": working_set_line(working_set_mib), "result": {"correct": correct, "metrics": metrics}}


class TestSummary:
    def test_moves_in_the_worse_direction_against_the_bounds(self):
        pairs = [
            {"parent": run(10.0, 100.0), "change": run(13.0, 90.0)},
            {"parent": run(12.0, 100.0), "change": run(15.0, 80.0)},
        ]
        out = bench_record.summary(pairs, END_TO_END)
        latency, rate = out["op_p50_ms"], out["ops_per_s"]
        assert (latency["parent"]["median"], latency["change"]["median"]) == (11.0, 14.0)
        assert latency["worse_by"] == pytest.approx(3.0 / 11.0)
        assert latency["over_bound"] is True
        assert rate["worse_by"] == pytest.approx(0.15)
        assert rate["over_bound"] is False
        assert (latency["change_wins"], latency["pairs"], out["all_correct"]) == (0, 2, True)

    def test_a_better_change_moves_by_a_negative_amount(self):
        pairs = [
            {"parent": run(10.0, 100.0), "change": run(8.0, 120.0)},
            {"parent": run(10.0, 100.0), "change": run(9.0, 130.0, correct=False)},
        ]
        out = bench_record.summary(pairs, END_TO_END)
        assert out["op_p50_ms"]["worse_by"] == pytest.approx(-0.15)
        assert out["ops_per_s"]["worse_by"] == pytest.approx(-0.25)
        assert not out["op_p50_ms"]["over_bound"] and not out["ops_per_s"]["over_bound"]
        assert out["op_p50_ms"]["change_wins"] == 2 and out["all_correct"] is False


    def test_gives_each_sides_median_working_set_in_mib(self):
        sizes = [(10.29, 8.69), (10.31, 8.70), (10.27, 8.71), (10.30, 12.0)]
        pairs = [{"parent": run(1.0, 1.0, working_set_mib=p), "change": run(1.0, 1.0, working_set_mib=c)} for p, c in sizes]
        # a pair with a failed run is left out of the medians
        failed = {"seed": 1, "exit_code": 1, "stderr": []}
        pairs.append({"parent": run(1.0, 1.0, working_set_mib=99.0), "change": failed})
        out = bench_record.summary(pairs, END_TO_END)
        assert out["working_set_mib"] == {"parent": pytest.approx(10.295), "change": pytest.approx(8.705)}

    @pytest.mark.parametrize(
        "parent, change, holds",
        [
            # wins 9 of 10; medians 14.5 and 10.5, parent quartiles 12.25 and 16.75: a gap of 4 < 4.5
            (list(range(10, 20)), [x - 4 for x in range(10, 19)] + [20], False),
            # the same wins with a gap of 5 > 4.5
            (list(range(10, 20)), [x - 5 for x in range(10, 19)] + [20], True),
            # a gap of 8 but only 8 wins of 10
            (list(range(10, 20)), [x - 8 for x in range(10, 18)] + [20, 21], False),
            # 9 wins of 9 pairs: too few pairs to claim anything
            (list(range(10, 19)), [x - 8 for x in range(10, 19)], False),
        ],
    )
    def test_a_claim_needs_ten_pairs_nine_wins_and_a_gap_past_the_parents_quartiles(self, parent, change, holds):
        pairs = [{"parent": run(p, 1.0), "change": run(c, 1.0)} for p, c in zip(parent, change)]
        assert bench_record.summary(pairs, END_TO_END)["op_p50_ms"]["claim_holds"] is holds

    @pytest.mark.parametrize(
        "parent, change, unresolved",
        [
            # parent spread (11.5 - 10.75) / 11 = 0.07 < 0.2: the +5% move is resolved
            ([10, 11, 11, 13], [11, 11.5, 11.6, 13], False),
            # a parent that spreads past the bound, (13.5 - 10.75) / 12 = 0.23: the +4% move cannot be told from noise
            ([10, 11, 13, 15], [11, 12.4, 12.6, 15], True),
            # the same spread with a better change median: not a regression to resolve
            ([10, 11, 13, 15], [10, 11, 12.6, 15], False),
            # one pair has no quartiles
            ([10], [12], None),
        ],
    )
    def test_a_worse_median_inside_a_parent_spread_past_the_bound_is_unresolved(self, parent, change, unresolved):
        pairs = [{"parent": run(p, 1.0), "change": run(c, 1.0)} for p, c in zip(parent, change)]
        out = bench_record.summary(pairs, END_TO_END)
        assert out["op_p50_ms"]["unresolved"] is unresolved
        # a constant metric has no spread and no move
        assert out["ops_per_s"]["unresolved"] is (None if unresolved is None else False)


def perfbench_run(tree, workload, seed, seconds):
    """A stand-in for one perfbench run: the change fails its linear-sweep run at seed 902, stability is cut off."""
    if workload == "stability":
        raise KeyboardInterrupt
    if tree == bench_record.ROOT and workload == "linear-sweep" and seed == 902:
        return {"seed": seed, "exit_code": 1, "stderr": ["Traceback (most recent call last):", "ValueError: boom"]}
    metrics = {m["name"]: {"value": 100.0} for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    metrics["op_p50_ms"] = {"value": 10.0 + seed - 901}
    lines = {"env": "env: stub", "speed_factor": "speed factor 1", "working_set": working_set_line(2.0)}
    return {"seed": seed, **lines, "result": {"correct": True, "metrics": metrics}}


class TestRecord:
    def test_a_run_keeps_its_env_speed_factor_and_working_set_lines(self, monkeypatch):
        final = {"correct": True, "attempted": 2, "failed": 0, "metrics": {}}
        lines = ["workload solve-3d seed 901 seconds 1.0 trace 0", "env: stub", "speed factor 1.01 (...)"]
        lines += [working_set_line(8.69), "op_p50_ms 84 ms", json.dumps(final)]

        def perfbench(cmd, cwd, capture_output, text):
            return subprocess.CompletedProcess(cmd, 0, stdout="\n".join(lines) + "\n", stderr="")

        monkeypatch.setattr(bench_record.subprocess, "run", perfbench)
        one = bench_record.run(ROOT, "solve-3d", 901, 1.0)
        assert one == {
            "seed": 901,
            "env": "env: stub",
            "speed_factor": "speed factor 1.01 (...)",
            "working_set": working_set_line(8.69),
            "result": final,
        }
        assert bench_record.working_set_mib(one) == 8.69

    def test_keeps_failed_runs_and_finished_workloads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_record, "unpack", lambda rev, into: into / "parent")
        monkeypatch.setattr(bench_record, "run", perfbench_run)
        out = tmp_path / "bench.json"
        args = ["--parent", "HEAD", "--out", str(out), "--pairs-default", "0", "--workdir", str(tmp_path)]
        with pytest.raises(KeyboardInterrupt):
            bench_record.main(args + ["--pairs", "linear-sweep=3", "--pairs", "stability=1"])
        record = json.loads(out.read_text())
        assert list(record["workloads"]) == ["linear-sweep"]
        sweep = record["workloads"]["linear-sweep"]
        assert sweep["pairs"][1]["change"] == {"seed": 902, "exit_code": 1, "stderr": ["Traceback (most recent call last):", "ValueError: boom"]}
        summary = sweep["summary"]
        assert (summary["failed_pairs"], summary["all_correct"], summary["op_p50_ms"]["pairs"]) == (1, False, 2)
        # the medians are over the two finished pairs, seeds 901 and 903
        assert summary["op_p50_ms"]["parent"]["median"] == 11.0

    def test_a_fresh_nested_workdir_is_created_before_the_parent_is_unpacked(self, tmp_path, monkeypatch):
        workdir = tmp_path / "fresh" / "nested"
        unpacked = []

        def unpack(rev, into):
            unpacked.append(into)
            return into / "parent"

        monkeypatch.setattr(bench_record, "unpack", unpack)
        monkeypatch.setattr(bench_record, "run", perfbench_run)
        out = tmp_path / "bench.json"
        args = ["--parent", "HEAD", "--out", str(out), "--pairs-default", "0", "--pairs", "linear-sweep=1"]
        assert bench_record.main(args + ["--workdir", str(workdir)]) == 0
        assert workdir.is_dir() and len(unpacked) == 1 and unpacked[0].parent == workdir
        assert list(json.loads(out.read_text())["workloads"]) == ["linear-sweep"]

    def test_a_workload_with_no_finished_pair(self):
        failed = {"seed": 1, "exit_code": 2, "stderr": []}
        out = bench_record.summary([{"parent": failed, "change": run(1.0, 1.0)}], END_TO_END)
        assert out == {"failed_pairs": 1, "all_correct": False}

    def test_nothing_to_run_is_refused_before_the_parent_is_unpacked(self, tmp_path, monkeypatch, capsys):
        unpacked = []
        monkeypatch.setattr(bench_record, "unpack", lambda rev, into: unpacked.append(into))
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as stop:
            bench_record.main(["--parent", "HEAD", "--out", str(out), "--pairs-default", "0", "--workdir", str(tmp_path / "w")])
        assert stop.value.code == 2
        assert "nothing to run" in capsys.readouterr().err
        assert not unpacked and not out.exists() and not (tmp_path / "w").exists()

    def test_sigterm_removes_the_unpacked_parent_and_keeps_the_finished_workloads(self, tmp_path, monkeypatch):
        def unpack(rev, into):
            (into / "parent").mkdir()
            (into / "parent" / "BENCHMARK.json").write_text("{}")
            return into / "parent"

        def terminated_run(tree, workload, seed, seconds):
            if workload == "stability":
                os.kill(os.getpid(), signal.SIGTERM)
            return perfbench_run(tree, workload, seed, seconds)

        monkeypatch.setattr(bench_record, "unpack", unpack)
        monkeypatch.setattr(bench_record, "run", terminated_run)
        def unhandled(signum, frame):
            pytest.fail("SIGTERM reached the handler that main should have replaced")

        # a handler of the test's own, so a main that installs none fails the test instead of ending the run
        original = signal.signal(signal.SIGTERM, unhandled)
        workdir, out = tmp_path / "work", tmp_path / "bench.json"
        args = ["--parent", "HEAD", "--out", str(out), "--pairs-default", "0", "--workdir", str(workdir)]
        try:
            with pytest.raises(SystemExit) as stop:
                bench_record.main(args + ["--pairs", "linear-sweep=1", "--pairs", "stability=1"])
            restored = signal.getsignal(signal.SIGTERM)
        finally:
            signal.signal(signal.SIGTERM, original)
        assert stop.value.code == 128 + signal.SIGTERM
        assert not list(workdir.glob("tmp*"))
        assert list(json.loads(out.read_text())["workloads"]) == ["linear-sweep"]
        assert restored is unhandled
