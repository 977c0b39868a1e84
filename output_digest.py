"""Print the sha256 of every perfbench workload's outputs, to tell whether a change keeps them bit for bit.

Run from the repository root:

    python3 output_digest.py [--seeds 901 902] [--size full] [--tree PATH]

Each workload of ``perfbench/workloads.py`` is built at each seed on
perfbench's own inputs (``--size full`` or ``tiny``) and runs one op per
slot.  The outputs are hashed by part, over the ops in order, and printed
one line per part as ``<workload> <seed> <part> <sha256>``:

* ``u``: the data of every solution field (solve-3d, linear-sweep, stability);
* ``trace``: the trace CSVs (solve-3d's solve, stability's outer loop);
* ``report``: the linear solve reports with their hessian-estimate ratios,
  the stability reports, and certify's verification reports (worst
  violation, sample count, every sampled gap and scale, the worst sample);
* ``certificate``: certify's certificates;
* ``margin``: certify's lemma-1 margins.

Reports and certificates are hashed as sorted JSON, whose floats are
written by ``repr`` and so round-trip exactly.  ``--tree`` hashes another
checkout, such as a parent commit unpacked by ``git archive``, with this
script: its ``src/`` and ``perfbench/workloads.py`` are imported in place
of these.  Two trees whose lines match computed the same bits.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent
PARTS = ("u", "trace", "report", "certificate", "margin")


def load_workloads(tree: Path):
    """``perfbench/workloads.py`` of ``tree``, with the package imported from ``tree/src``.

    The package is the one already imported, if any; a fresh process takes
    it from ``tree``.
    """
    sys.path.insert(0, str(tree / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def op_parts(name: str, out):
    """(part, bytes) of the outputs of one op of workload ``name``."""
    if name == "solve-3d":
        u, trace = out
        yield "u", u.data.tobytes()
        yield "trace", trace.to_csv().encode()
    elif name == "linear-sweep":
        for result, ratio in out:
            yield "u", result.u.data.tobytes()
            yield "report", _json([result.report(), ratio])
    elif name == "stability":
        u, report = out
        yield "u", u.data.tobytes()
        yield "trace", report.outer_trace.to_csv().encode()
        yield "report", _json(report.as_dict())
    elif name == "certify":
        cert, report, margin = out
        yield "certificate", _json(cert.as_dict())
        yield "report", _json([report.worst_violation, report.sample_count])
        for arr in (report.violations, report.scales, *report.worst_sample):
            yield "report", np_bytes(arr)
        yield "margin", repr(margin).encode()
    else:
        raise ValueError(f"no digest for workload {name!r}")


def np_bytes(value) -> bytes:
    """The dtype, shape and raw bytes of a number or array."""
    arr = np.asarray(value)
    return f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()


def digest(workloads, name: str, seed: int, size: str = "full") -> dict[str, str]:
    """sha256 of each output part of one op per slot of workload ``name`` at ``seed``."""
    wl = workloads.WORKLOADS[name](seed, size)
    hashes = {}
    for i in range(wl.slots):
        for part, data in op_parts(name, wl.op(i)):
            hashes.setdefault(part, hashlib.sha256()).update(data)
    return {part: hashes[part].hexdigest() for part in PARTS if part in hashes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[901, 902])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout to hash (default: this one)")
    args = parser.parse_args(argv)
    workloads = load_workloads(args.tree.resolve())
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            for part, value in digest(workloads, name, seed, args.size).items():
                print(name, seed, part, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
