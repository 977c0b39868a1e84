import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

PARTS = {
    "solve-3d": ["u", "trace"],
    "linear-sweep": ["u", "report"],
    "stability": ["u", "trace", "report"],
    "certify": ["report", "certificate", "margin"],
}


@pytest.fixture(scope="module")
def workloads():
    return output_digest.load_workloads(ROOT)


@pytest.mark.parametrize("name", sorted(PARTS))
def test_two_runs_give_one_digest(workloads, name):
    first = output_digest.digest(workloads, name, seed=5, size="tiny")
    assert list(first) == PARTS[name]
    assert all(len(value) == 64 for value in first.values())
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
