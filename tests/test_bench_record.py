import importlib.util
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


def run(op_p50_ms, ops_per_s, correct=True):
    metrics = {"op_p50_ms": {"value": op_p50_ms}, "ops_per_s": {"value": ops_per_s}}
    return {"result": {"correct": correct, "metrics": metrics}}


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
