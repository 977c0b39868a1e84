"""Record perfbench numbers of this checkout against a parent commit, in one BENCH_<pr>.json.

Run from the repository root:

    python3 bench_record.py --parent <rev> --out BENCH_<pr>.json \
        [--pairs certify=10] [--pairs-default 1] [--seed 901]

The parent tree is ``git archive <rev>`` unpacked into a temporary directory,
made inside ``--workdir`` when it is given (the directory and its parents are
created first when they do not exist); the change is this checkout's working
tree.  For every
workload of ``BENCHMARK.json`` the two trees run ``perfbench/run.py`` (untraced)
for its ``run_seconds`` in interleaved pairs, the side that goes first
alternating from pair to pair, pair k of every workload at seed ``seed + k``.
Each run keeps its ``env:``, ``speed factor`` and ``working set`` lines and
its final JSON line; a run that exits non-zero keeps its exit code and the
last lines of its stderr instead.  The summary leaves a pair with a failed
run out and counts it (``failed_pairs``, and ``all_correct`` is then false);
over the other pairs it gives each side's median working set in MiB
(``working_set_mib``, perfbench's tracemalloc peak of one op), each side's
median and quartiles of every end-to-end metric, the change's relative
move of the median in the metric's worse direction (``worse_by``,
negative when it is better) and whether that
move exceeds the metric's bound in ``BENCHMARK.json`` (``over_bound``) and
whether the record can tell (``unresolved``, below), and, for
``op_p50_ms``, how many pairs the change won and whether a gain may be
claimed (``claim_holds``): at least ``CLAIM_PAIRS`` finished pairs, the
change faster in at least nine tenths of them, ties counting for neither,
and the parent's median above the change's by more than the parent's
q3 - q1.  A metric is ``unresolved`` when the parent's own spread,
(q3 - q1) / median, exceeds the metric's bound and the change's median is
worse: a move inside that spread is neither a regression nor "unchanged".
A change whose every run beats every parent run has the better median, so
it is never unresolved.  With one pair there are no quartiles, and
``unresolved`` is null.  The record is rewritten
after every workload, so an interrupted invocation keeps the workloads it
finished.  An invocation with nothing to run (every workload at 0 pairs) is
refused before the parent is unpacked.  SIGTERM ends a recording as Ctrl-C
does: the unpacked parent is removed and the finished workloads stay in
``--out``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SIDES = ("parent", "change")
STDERR_LINES = 20
CLAIM_PAIRS = 10


def unpack(rev: str, into: Path) -> Path:
    """The files of commit ``rev`` under ``into/parent``."""
    tree = into / "parent"
    tree.mkdir(parents=True)
    archive = into / "parent.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its env, speed-factor and working-set lines and final JSON line, or its exit code and stderr tail."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        return {"seed": seed, "exit_code": done.returncode, "stderr": done.stderr.splitlines()[-STDERR_LINES:]}
    out = done.stdout.splitlines()
    return {
        "seed": seed,
        "env": next(line for line in out if line.startswith("env:")),
        "speed_factor": next(line for line in out if line.startswith("speed factor")),
        "working_set": next(line for line in out if line.startswith("working set")),
        "result": json.loads(out[-1]),
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (the median alone below two values)."""
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def working_set_mib(one: dict) -> float:
    """A finished run's working set in MiB, from perfbench's ``working set (...): <x> MiB = ...`` line."""
    return float(one["working_set"].split(": ", 1)[1].split(" MiB", 1)[0])


def summary(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Spread of every metric on both sides over the pairs whose runs both finished.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics and bounds.
    """
    finished = [p for p in pairs if all("result" in p[side] for side in SIDES)]
    failed, pairs = len(pairs) - len(finished), finished
    if not pairs:
        return {"failed_pairs": failed, "all_correct": False}

    def metric(side, name):
        return [p[side]["result"]["metrics"][name]["value"] for p in pairs]

    names = pairs[0]["parent"]["result"]["metrics"]
    out = {name: {side: spread(metric(side, name)) for side in SIDES} for name in names}
    out["working_set_mib"] = {side: statistics.median(working_set_mib(p[side]) for p in pairs) for side in SIDES}
    for m in end_to_end:
        row = out[m["name"]]
        parent, change = row["parent"]["median"], row["change"]["median"]
        row["worse_by"] = (change - parent) / parent * (1 if m["better"] == "lower" else -1)
        row["over_bound"] = row["worse_by"] > m["bound"]
        base = row["parent"]
        if "q1" in base:
            row["unresolved"] = (base["q3"] - base["q1"]) / parent > m["bound"] and row["worse_by"] > 0
        else:
            row["unresolved"] = None
    parent, change = metric("parent", "op_p50_ms"), metric("change", "op_p50_ms")
    latency = out["op_p50_ms"]
    latency["change_wins"] = sum(c < p for p, c in zip(parent, change))
    latency["pairs"] = len(pairs)
    base = latency["parent"]
    latency["claim_holds"] = (
        len(pairs) >= CLAIM_PAIRS
        and 10 * latency["change_wins"] >= 9 * len(pairs)
        and base["median"] - latency["change"]["median"] > base["q3"] - base["q1"]
    )
    out["failed_pairs"] = failed
    out["all_correct"] = not failed and all(p[side]["result"]["correct"] for p in pairs for side in SIDES)
    return out


def op_p50(one: dict):
    """A run's ``op_p50_ms``, or its exit code when it failed."""
    return one["result"]["metrics"]["op_p50_ms"]["value"] if "result" in one else f"exit {one['exit_code']}"


def _exit_on_sigterm(signum, frame):
    """SIGTERM as ``SystemExit``, so that the ``with`` blocks it unwinds clean up."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=K", help="pairs for one workload")
    parser.add_argument("--pairs-default", type=int, default=1, help="pairs for every other workload, 0 to skip them")
    parser.add_argument("--seed", type=int, default=901, help="seed of the first pair")
    parser.add_argument(
        "--workdir", type=Path, default=None, help="where to unpack the parent, created if missing (default: a temp dir)"
    )
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(benchmark["run_seconds"])
    workloads = [w["name"] for w in benchmark["workloads"]]
    counts = dict.fromkeys(workloads, args.pairs_default)
    for item in args.pairs:
        name, _, k = item.partition("=")
        if name not in counts or not k.isdigit() or int(k) < 1:
            parser.error(f"--pairs wants WORKLOAD=K with K >= 1 and WORKLOAD one of {workloads}, got {item!r}")
        counts[name] = int(k)
    if all(k < 1 for k in counts.values()):
        parser.error("nothing to run: every workload has 0 pairs; give --pairs or --pairs-default >= 1")

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
            sides = {"parent": unpack(args.parent, Path(tmp)), "change": ROOT}
            record = {"parent": args.parent, "seconds": seconds, "workloads": {}}
            for workload, k in counts.items():
                if k < 1:
                    continue
                pairs = []
                for i in range(k):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {side: run(sides[side], workload, args.seed + i, seconds) for side in order}
                    pairs.append(pair)
                    print(workload, args.seed + i, {s: op_p50(pair[s]) for s in order})
                record["workloads"][workload] = {"summary": summary(pairs, benchmark["end_to_end"]), "pairs": pairs}
                args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
