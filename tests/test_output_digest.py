import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

PARTS = {
    "solve-3d": ["u", "trace", "iterations"],
    "linear-sweep": ["u", "report"],
    "stability": ["u", "trace", "report", "inner_steps", "outer_steps"],
    "certify": ["report", "certificate", "margin", "fit"],
}


@pytest.fixture(scope="module")
def workloads():
    return output_digest.load_workloads(ROOT)


@pytest.mark.parametrize("name", sorted(PARTS))
def test_two_runs_give_one_digest(workloads, name):
    first = output_digest.digest(workloads, name, seed=5, size="tiny")
    assert list(first) == PARTS[name]
    assert all(len(first[part]) == 64 for part in PARTS[name] if part in output_digest.PARTS)
    assert all(int(first[count]) > 0 for count in PARTS[name] if count in output_digest.COUNTS)
    assert output_digest.digest(workloads, name, seed=5, size="tiny") == first


def test_the_digest_follows_the_outputs(workloads):
    one, other = (output_digest.digest(workloads, "solve-3d", seed, "tiny") for seed in (5, 6))
    assert one["u"] != other["u"] and one["trace"] != other["trace"]


def test_prints_one_line_per_workload_seed_and_part(workloads, capsys):
    assert output_digest.main(["--size", "tiny", "--seeds", "5", "7"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:3] for line in lines] == [
        [name, str(seed), part] for name in workloads.WORKLOADS for seed in (5, 7) for part in PARTS[name]
    ]
    assert lines[0][3] == output_digest.digest(workloads, lines[0][0], 5, "tiny")[lines[0][2]]


def test_against_its_own_tree_every_difference_is_zero(workloads, capsys):
    assert output_digest.main(["--size", "tiny", "--seeds", "5", "--against", str(ROOT)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:3] for line in lines] == [
        ["solve-3d", "5", "u"], ["solve-3d", "5", "metric"], ["solve-3d", "5", "residual"],
        ["solve-3d", "5", "iterations"],
        ["linear-sweep", "5", "u"],
        ["stability", "5", "u"], ["stability", "5", "metric"], ["stability", "5", "residual"],
        ["stability", "5", "inner_steps"], ["stability", "5", "outer_steps"],
    ]
    counts = [line for line in lines if line[2] in output_digest.COUNTS]
    # both trees' step counts, each the sum over the ops that the digest prints
    assert all(len(line) == 5 and line[3] == line[4] for line in counts)
    assert [line[3] for line in counts] == [
        output_digest.digest(workloads, name, 5, "tiny")[count] for name, _, count in (line[:3] for line in counts)
    ]
    assert all(float(line[3]) == 0.0 for line in lines if line not in counts)


def test_a_field_differs_relative_to_its_largest_value_a_trace_column_row_by_row():
    diff = output_digest.relative_difference
    b = np.array([4.0, -2.0, 1e-3])
    a = b + np.array([0.0, 0.0, 1e-3])
    assert diff("u", a, b) == 1e-3 / 4.0
    assert diff("residual", a, b) == 1.0
    assert diff("metric", b.copy(), b) == diff("u", np.zeros(2), np.zeros(2)) == 0.0
    # traces of different lengths do not compare
    assert diff("metric", b[:2], b) == np.inf
