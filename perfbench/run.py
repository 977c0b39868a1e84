"""Benchmark of the nearelliptic package: one workload per process, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload solve-3d --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``solve-3d``, ``linear-sweep``,
``stability`` and ``certify``.  Each op's inputs derive from (seed, op index)
and are built during set-up; the next op starts when the previous one
returns, and each op's outputs are checked against the acceptance tolerances
outside the timed interval.

``--trace 0`` reports the end-to-end metrics.  Their times are wall times
rescaled to one nominal machine speed (see ``NominalClock``), because the
clock of the shared machine drifts far more between runs than the bounds
allow; the raw wall times stay in the result file.  ``--trace 1`` alternates an
untraced and a traced run of every op index and reports the per-layer
metrics from the traced ones, plus the tracing overhead (traced against
untraced median op time).  Every run prints its metrics by name and unit,
then as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment and every op time, goes to ``.bench_out/``; a traced run also
writes its spans there as CSV.

The package is imported from ``src/`` beside this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3
# NominalClock: kernel repeats per probe, op seconds between probes, and the
# nominal kernel time (about its median on the 2-vCPU Xeon VM of baseline.json)
REF_REPEATS = 3
CAL_INTERVAL_S = 0.15
REF_NOMINAL_S = 7.0e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap the BLAS and OpenMP pools at the CPUs this process may use; call before numpy loads."""
    limit = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes() -> dict[str, int]:
    """Unified/data cache sizes of cpu0 by level, from sysfs (empty where unavailable)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
        sizes[f"L{level}"] = int(text.rstrip("KM")) * scale
    return sizes


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft") else "numpy.fft",
        "nproc": nproc(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": _cpu_model(),
        "cache_bytes": _cache_bytes(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) of the tail statistic.

    The highest percentile with at least ten samples beyond it is the
    eleventh-largest sample, at percentile 100 (n - 10) / n.  Below 20
    samples that would fall under the median, so the median stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n >= 20 else (n + 1) // 2
    return 100.0 * rank / n, ordered[rank - 1], n - rank


class NominalClock:
    """Rescales wall times to one fixed machine speed.

    The clock of a shared virtual machine drifts by up to a third over tens
    of seconds, and the drift slows the package and any other code alike.
    Between ops the clock times a fixed numpy kernel that mixes the package's
    kinds of work but none of its code: an FFT round trip, a sine sweep and
    many small eigenvalue calls.  Each op's wall time is scaled by
    ``REF_NOMINAL_S`` over the mean of the kernel times measured just before
    and just after it, so a scaled time reads as the wall time the op would
    take with the kernel running at ``REF_NOMINAL_S``.

    The kernel runs in the benchmark's own process, so it shares numpy's
    allocator, its FFT plan cache and the BLAS/LAPACK thread pools with the
    package.  It uses an FFT length (60) and matrix shape (4 x 4) that no
    workload uses, so it does not share plans or cached buffers with the ops;
    but a package change with process-wide side effects (a larger plan cache,
    a changed thread count, heap fragmentation) may slow the kernel as well,
    and the rescaling then hides part of that regression.  The raw wall times
    stay in the result file beside the scaled ones for that reason.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._grid = rng.standard_normal((2, 60, 60))
        self._line = rng.standard_normal(100_000)
        small = rng.standard_normal((400, 4, 4))
        self._small = small + small.transpose(0, 2, 1)
        self.probes: list[float] = []
        self._pending: list[float] = []
        self._before = self.probe()

    def probe(self) -> float:
        np, runs = self._np, []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            np.fft.ifftn(np.fft.fftn(self._grid, axes=(1, 2)), axes=(1, 2))
            np.sin(self._line).sum()
            for matrix in self._small:
                np.linalg.eigvalsh(matrix)
            runs.append(time.perf_counter() - t0)
        self.probes.append(statistics.median(runs))
        return self.probes[-1]

    @property
    def pending_s(self) -> float:
        return sum(self._pending)

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)

    def flush(self) -> list[float]:
        """Probe again and return the pending wall times scaled to the nominal speed."""
        after = self.probe()
        scale = REF_NOMINAL_S / (0.5 * (self._before + after))
        scaled = [t * scale for t in self._pending]
        self._pending.clear()
        self._before = after
        return scaled


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    out_dir: Path | None = OUT_DIR,
    ops: int | None = None,
) -> dict:
    """Set up, time and check one workload; returns the full result record.

    The timed loop runs for ``seconds``, or for exactly ``ops`` ops when that
    is given (so a test sees the same op indices on any machine).  A traced
    run always covers the op window its counts are taken over.
    """
    from spans import Tracer, layer_metrics, metric_unit
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    failures: list[str] = []

    def attempt(wl, i, run):
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # an op that raises is a failed op, not a failed benchmark
            elapsed = time.perf_counter() - t0
            failures.append(f"op {i}: raised {type(exc).__name__}: {exc}")
            return elapsed, False
        elapsed = time.perf_counter() - t0
        bad = wl.check(i, out)
        failures.extend(f"op {i}: {msg}" for msg in bad)
        return elapsed, not bad

    clock = NominalClock()
    setup_wall, setup_times = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(seed, size)
        build_s = time.perf_counter() - t0
        warm_s, warm_ok = attempt(wl, 0, lambda: wl.op(0))
        setup_wall.append(build_s + warm_s)
        clock.add(build_s + warm_s)
        setup_times += clock.flush()
    attempted, failed = 1, int(not warm_ok)

    tracemalloc.start()
    wl.op(0)
    working_set = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tracer = Tracer() if trace else None
    count_ops = set(range(1, 1 + max(2, wl.slots)))
    wall, times, traced_times, correct_ops = [], [], [], 0
    clock.flush()  # a fresh probe just before the first timed op
    deadline = time.perf_counter() + seconds

    def more(i: int) -> bool:
        timed = time.perf_counter() < deadline if ops is None else i <= ops
        return timed or (trace and i <= max(count_ops))

    i = 1
    while more(i):
        elapsed, ok = attempt(wl, i, lambda: wl.op(i))
        wall.append(elapsed)
        attempted += 1
        failed += not ok
        correct_ops += ok
        if trace:
            elapsed, ok = attempt(wl, i, lambda: tracer.run_op(i, lambda: wl.op(i)))
            traced_times.append(elapsed)
            attempted += 1
            failed += not ok
        else:
            clock.add(elapsed)
            if clock.pending_s >= CAL_INTERVAL_S:
                times += clock.flush()
        i += 1
    times += clock.flush()

    restored = tracer is None or tracer.restored()
    if not restored:
        failures.append("tracer left a wrapped name in place")
    if trace:
        # traced and untraced ops alternate, so the overhead needs no rescaling
        p50_plain = statistics.median(wall)
        metrics = layer_metrics(tracer.spans, len(traced_times), count_ops)
        metrics["trace.overhead_share"] = (statistics.median(traced_times) - p50_plain) / p50_plain
        metrics["trace.spans_per_op"] = len(tracer.spans) / len(traced_times)
        units = {name: metric_unit(name) for name in metrics}
    else:
        pct, tail_value, beyond = tail(times)
        metrics = {
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "ops_per_s": correct_ops / sum(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    env = environment()
    caches = env["cache_bytes"]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "environment": env,
        "working_set_bytes": working_set,
        "working_set_vs_cache": {level: working_set / b for level, b in caches.items() if level in ("L2", "L3")},
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures": failures[:20],
        "op_seconds": times,
        "op_wall_seconds": wall,
        "traced_op_wall_seconds": traced_times,
        "setup_seconds": setup_times,
        "setup_wall_seconds": setup_wall,
        "reference_kernel_seconds": clock.probes,
        "wall_p50_ms": statistics.median(wall) * 1e3,
        "speed_factor": statistics.median(clock.probes) / REF_NOMINAL_S,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "correct": failed == 0 and restored,
    }
    if not trace:
        result["tail"] = {"percentile": pct, "samples": len(times), "beyond": beyond}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        if trace:
            tracer.write_csv(out_dir / f"{stem}.spans.csv")
    return result


def report(result: dict) -> None:
    env = result["environment"]
    caches = ", ".join(f"{k}={v / 2**20:.3g} MiB" for k, v in env["cache_bytes"].items())
    print(f"workload {result['workload']} seed {result['seed']} seconds {result['seconds']} trace {result['trace']}")
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}; {env['fft_backend']}; "
        f"nproc {env['nproc']}, thread caps {env['thread_caps']}; cpu {env['cpu_model']}; {caches}"
    )
    print(
        f"speed factor {result['speed_factor']:.4g} (reference kernel time over nominal); "
        f"wall-clock median op {result['wall_p50_ms']:.6g} ms"
    )
    vs = ", ".join(f"{v:.2f}x {k}" for k, v in result["working_set_vs_cache"].items())
    print(f"working set (tracemalloc peak of one op): {result['working_set_bytes'] / 2**20:.2f} MiB = {vs}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "tail" in result:
        t = result["tail"]
        print(f"op_tail_ms is p{t['percentile']:.4g} of {t['samples']} samples, {t['beyond']} beyond it")
    print(f"fail_share {result['fail_share']:.6g} ({result['failed']}/{result['attempted']})")
    for line in result["failures"]:
        print(f"FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nearelliptic" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    cap_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
