"""Print the sha256 of every perfbench workload's outputs, to tell whether a change keeps them bit for bit.

Run from the repository root:

    python3 output_digest.py [--seeds 901 902] [--size full] [--tree PATH] [--against PATH]

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
* ``margin``: certify's lemma-1 margins;
* ``fit``: for each certify op's spec, the certificate of
  ``fit_k_condition``, which no workload runs, at :data:`FIT_COUNT` samples
  (``--size tiny``: the workload's own count) and the op's verify seed.

After a workload's hashes come its step counts, summed over the ops, which
do not depend on the machine: ``iterations``, the steps of solve-3d's
solves, and ``inner_steps`` and ``outer_steps``, the steps of stability's
inner solves and of its outer loop.

Reports and certificates are hashed as sorted JSON, whose floats are
written by ``repr`` and so round-trip exactly.  ``--tree`` hashes another
checkout, such as a parent commit unpacked by ``git archive``, with this
script: its ``src/`` and ``perfbench/workloads.py`` are imported in place
of these.  Two trees whose lines match computed the same bits.

``--against PATH`` tells by how much two trees differ where their bits do
not match.  It runs the workloads that return a solution once more in
``PATH``, in a child process, and prints one line per workload, seed and
quantity, ``<workload> <seed> <quantity> <difference>``, instead of the
hashes.  The quantities are ``u``, every solution field, and ``metric`` and
``residual``, the columns of the traces (solve-3d's solve, stability's outer
loop).  The difference is the largest over the ops of
max |a - b| / max |b| for a field and of max |a - b| / |b| over the rows of a
trace column, with a from this tree and b from ``PATH``; 0 means the same
bits, and two arrays of different shapes, such as traces of different
lengths, differ by inf.  The step counts follow as
``<workload> <seed> <count> <this tree's> <PATH's>``.  ``--save-values
FILE`` writes those arrays to an ``.npz`` file; the child process of
``--against`` uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent
PARTS = ("u", "trace", "report", "certificate", "margin", "fit")
# the samples of the fit part at --size full
FIT_COUNT = 1500
COUNTS = ("iterations", "inner_steps", "outer_steps")
SOLVED = ("solve-3d", "linear-sweep", "stability")  # the workloads that return a solution


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


def fit_part(workloads, wl, i: int, out, size: str) -> bytes:
    """The certificate of ``fit_k_condition`` on the spec of op ``i`` of the certify workload ``wl``, as sorted JSON."""
    ne = workloads.ne
    nu = out[0].nu
    spec = ne.NonlinearitySpec(tensor=wl.tensors[i % wl.slots], perturbation=ne.SinePerturbation(0.3 * nu))
    count = FIT_COUNT if size == "full" else wl.count
    sampler = ne.SamplerConfig(count=count, seed=workloads.derive_seed(wl.seed, 6, i))
    return _json(ne.fit_k_condition(spec, sampler, nu=nu).as_dict())


def op_counts(name: str, out):
    """(count, value) of the step counts of one op of workload ``name``."""
    if name == "solve-3d":
        yield "iterations", out[1].iterations
    elif name == "stability":
        yield "inner_steps", sum(out[1].inner_iterations)
        yield "outer_steps", out[1].outer_trace.iterations


def np_bytes(value) -> bytes:
    """The dtype, shape and raw bytes of a number or array."""
    arr = np.asarray(value)
    return f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()


def digest(workloads, name: str, seed: int, size: str = "full") -> dict[str, str]:
    """sha256 of each output part of one op per slot of workload ``name`` at ``seed``, then its step counts.

    A count is the decimal sum over the ops.
    """
    wl = workloads.WORKLOADS[name](seed, size)
    hashes, counts = {}, {}
    for i in range(wl.slots):
        out = wl.op(i)
        for part, data in op_parts(name, out):
            hashes.setdefault(part, hashlib.sha256()).update(data)
        if name == "certify":
            hashes.setdefault("fit", hashlib.sha256()).update(fit_part(workloads, wl, i, out, size))
        for count, value in op_counts(name, out):
            counts[count] = counts.get(count, 0) + value
    return {part: hashes[part].hexdigest() for part in PARTS if part in hashes} | {
        count: str(total) for count, total in counts.items()
    }


def op_values(name: str, out):
    """(quantity, array) of the solution fields, trace columns and step counts of one op of workload ``name``."""
    if name in ("solve-3d", "stability"):
        u, second = out
        trace = second if name == "solve-3d" else second.outer_trace
        yield "u", u.data
        yield "metric", np.array([r.metric for r in trace.records])
        yield "residual", np.array([r.residual for r in trace.records])
    elif name == "linear-sweep":
        for result, _ in out:
            yield "u", result.u.data
    for count, value in op_counts(name, out):
        yield count, np.array(value)


def values(workloads, name: str, seed: int, size: str = "full") -> dict[str, list[np.ndarray]]:
    """The arrays of :func:`op_values` of one op per slot of workload ``name`` at ``seed``, in op order."""
    if name not in SOLVED:
        return {}
    wl = workloads.WORKLOADS[name](seed, size)
    arrays = {}
    for i in range(wl.slots):
        for quantity, array in op_values(name, wl.op(i)):
            arrays.setdefault(quantity, []).append(array)
    return arrays


def relative_difference(quantity: str, a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max |b| of a field, max |a - b| / |b| of a trace column; inf when the shapes differ."""
    if a.shape != b.shape:
        return math.inf
    diff = np.abs(a - b)
    scale = np.abs(b).max(initial=0.0) if quantity == "u" else np.abs(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(diff == 0, 0.0, diff / scale).max(initial=0.0))


def compare(workloads, against: Path, seeds: list[int], size: str):
    """(workload, seed, quantity, text) of this tree's values against those of the tree ``against``.

    The text is the largest relative difference of a field or trace column,
    and both trees' sums over the ops of a step count.
    """
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "values.npz"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--tree", str(against), "--size", size]
        subprocess.run(cmd + ["--seeds", *map(str, seeds), "--save-values", str(saved)], check=True)
        with np.load(saved) as other:
            theirs = {key: other[key] for key in other.files}
    for name in workloads.WORKLOADS:
        for seed in seeds:
            for quantity, arrays in values(workloads, name, seed, size).items():
                others = [theirs.get(f"{name}/{seed}/{quantity}/{i}") for i in range(len(arrays))]
                if quantity in COUNTS:
                    total = "missing" if None in others else int(sum(others))
                    yield name, seed, quantity, f"{int(sum(arrays))} {total}"
                    continue
                pairs = zip(arrays, others)
                diff = max(math.inf if b is None else relative_difference(quantity, a, b) for a, b in pairs)
                yield name, seed, quantity, f"{diff:.3e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[901, 902])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout to hash (default: this one)")
    parser.add_argument("--against", type=Path, help="print the largest relative differences from this checkout")
    parser.add_argument("--save-values", type=Path, metavar="FILE", help="write the fields and trace columns to FILE")
    args = parser.parse_args(argv)
    workloads = load_workloads(args.tree.resolve())
    if args.save_values is not None:
        arrays = {
            f"{name}/{seed}/{quantity}/{i}": array
            for name in workloads.WORKLOADS
            for seed in args.seeds
            for quantity, found in values(workloads, name, seed, args.size).items()
            for i, array in enumerate(found)
        }
        np.savez(args.save_values, **arrays)
        return 0
    if args.against is not None:
        for name, seed, quantity, text in compare(workloads, args.against.resolve(), args.seeds, args.size):
            print(name, seed, quantity, text, flush=True)
        return 0
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            for part, value in digest(workloads, name, seed, args.size).items():
                print(name, seed, part, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
