"""Span tracer that times the package's layers from outside.

The layers are the package modules in ``LAYERS``.  ``Tracer.install()``
replaces, with a timing wrapper,

* every binding of a layer's public function in another layer's namespace
  and in the package namespace (the calls one module makes into another,
  and the benchmark's own calls through ``nearelliptic.<name>``);
* the transform methods of the field classes;
* the admission helpers inside ``stability`` (``ADMISSION``), so that the
  stability loop's time can be told apart from its admission work;
* the transform entry points of ``numpy.fft`` and ``scipy.fft``, counted as
  the ``fields`` layer whichever module calls them, so that a later change of
  transform backend is still counted.

``uninstall()`` puts every original object back.  Nothing under the package
is edited.  Spans stay in memory as tuples until ``write_csv``.  A span is
*nested* when a span of the same layer is open above it; a layer's busy time
sums its outermost spans, and its self time subtracts the spans of other
layers opened below them.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np
import scipy.fft

LAYERS = ("tensors", "fields", "linear", "nonlinearity", "certify", "campanato", "stability")
ADMISSION = ("nu_F_lower_bound", "nu_FG_estimate", "empirical_nu_F")
FIELD_METHODS = {"VectorField": ("to_physical", "to_spectral"), "HessianField": ("to_physical", "to_spectral")}
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2")
FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn")

# span tuple fields
ID, PARENT, OP, LAYER, NAME, T0, T1, NESTED, RAISED, WORK = range(10)


def _array_arg(args, kwargs, pos, key, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _fft_work(fname):
    """Work counter of one transform call: scalar transforms, bytes in + out, largest array."""

    def work(args, kwargs, out):
        x = np.asarray(args[0] if args else kwargs.get("x", kwargs.get("a")))
        if fname in FFT_1D:
            axes = (_array_arg(args, kwargs, 2, "axis", -1),)
        else:
            axes = _array_arg(args, kwargs, 2, "axes", (-2, -1) if fname in FFT_2D else None)
            if axes is None:
                s = _array_arg(args, kwargs, 1, "s", None)
                axes = range(-len(s), 0) if s is not None else range(x.ndim)
        length = math.prod(x.shape[a] for a in axes)
        big = max(x.nbytes, out.nbytes)
        return {"scalar": x.size // length if length else 0, "bytes": x.nbytes + out.nbytes, "largest": big}

    return work


def _field_work(args, kwargs, out):
    data = getattr(out, "data", None)
    return {"largest": data.nbytes} if isinstance(data, np.ndarray) else None


def _points_work(args, kwargs, out):
    """Pointwise evaluations of F: grid points of a hessian field, or batch size."""
    arg = args[1] if len(args) > 1 else kwargs.get("hess", kwargs.get("X"))
    if hasattr(arg, "grid"):
        return {"points": arg.grid.points}
    return {"points": math.prod(np.shape(arg)[:-3])}


def _campanato_work(args, kwargs, out):
    ratios = out[1].ratios
    return {"iters": out[1].iterations, "max_ratio": max(ratios) if ratios else 0.0}


def _nearness_work(args, kwargs, out):
    trace = out[1].outer_trace
    return {"outer": trace.iterations if trace is not None else 0}


def _samples_work(args, kwargs, out):
    return {"samples": out.sample_count}


def _lemma1_work(args, kwargs, out):
    return {"samples": _array_arg(args, kwargs, 4, "count", 2000)}


WORK_COUNTERS = {
    "nonlinearity.evaluate_field": _points_work,
    "nonlinearity.evaluate_batch": _points_work,
    "campanato.campanato_solve": _campanato_work,
    "stability.solve_via_nearness": _nearness_work,
    "certify.verify_k_condition": _samples_work,
    "certify.lemma1_check": _lemma1_work,
}


class Tracer:
    """Installs the wrappers and keeps the spans of every traced op."""

    def __init__(self, package: str = "nearelliptic"):
        self.package = importlib.import_module(package)
        self.modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 1
        self._patches = self._plan()

    def _wrap(self, layer: str, name: str, fn, work=None):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            nested = tracer._depth[layer] > 0
            tracer._stack.append(sid)
            tracer._depth[layer] += 1
            raised = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[layer] -= 1
                if raised:
                    tracer.spans.append((sid, parent, tracer.op, layer, name, t0, t1, nested, True, None))
            counted = work(args, kwargs, out) if work is not None else None
            tracer.spans.append((sid, parent, tracer.op, layer, name, t0, t1, nested, False, counted))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every name the tracer replaces."""
        owned = {}  # id(function) -> (layer, qualified name)
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    owned[id(obj)] = (layer, f"{layer}.{attr}")
        wrappers = {}
        plan = []

        def add(owner, attr, layer, name, fn, work=None):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(layer, name, fn, work)
            plan.append((owner, attr, fn, wrappers[id(fn)]))

        namespaces = [self.package] + list(self.modules.values())
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in owned:
                    layer, name = owned[id(obj)]
                    if ns is not self.modules[layer]:
                        work = WORK_COUNTERS.get(name, _field_work if layer == "fields" else None)
                        add(ns, attr, layer, name, obj, work)
        stability = self.modules["stability"]
        for attr in ADMISSION:
            add(stability, attr, "stability", f"stability.{attr}", getattr(stability, attr))
        fields = self.modules["fields"]
        for cls_name, methods in FIELD_METHODS.items():
            cls = getattr(fields, cls_name)
            for attr in methods:
                add(cls, attr, "fields", f"fields.{cls_name}.{attr}", cls.__dict__[attr], _field_work)
        for lib_name, lib in (("numpy.fft", np.fft), ("scipy.fft", scipy.fft)):
            for attr in FFT_1D + FFT_2D + FFT_ND:
                if hasattr(lib, attr):
                    add(lib, attr, "fields", f"fft.{lib_name}.{attr}", getattr(lib, attr), _fft_work(attr))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every replaced name holds its original object again."""
        return all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
            for owner, attr, original, _ in self._patches
        )

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as one traced op under a root span."""
        self.op = op_id
        self.install()
        root = self._wrap("op", "op", fn)
        try:
            return root()
        finally:
            self.uninstall()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "layer", "name", "start_s", "end_s", "nested", "raised", "work"])
            for s in self.spans:
                work = ";".join(f"{k}={v!r}" for k, v in (s[WORK] or {}).items())
                out.writerow([*s[:T0], repr(s[T0]), repr(s[T1]), int(s[NESTED]), int(s[RAISED]), work])


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    local = name.split(".", 1)[1]
    if local.endswith("_per_s"):
        return "1/s"
    if "bytes" in local:
        return "B"
    if local.startswith("s_per_") or "_s_per_" in local:
        return "s"
    if local in ("max_ratio", "overhead_share"):
        return "ratio"
    return "count"


def _other_layer_time(span, children) -> float:
    """Time under ``span`` spent in spans of other layers (through same-layer nesting)."""
    total = 0.0
    for child in children.get(span[ID], ()):
        if child[LAYER] == span[LAYER]:
            total += _other_layer_time(child, children)
        else:
            total += child[T1] - child[T0]
    return total


def layer_metrics(spans: list[tuple], ops: int, count_ops: set[int]) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced ops.

    Times are averaged over every traced op.  Counts are taken over the ops in
    ``count_ops`` only, a fixed set of op indices, so that two runs with the
    same seed give identical counts however many ops each had time for.
    """
    ops = max(ops, 1)
    n_count = max(len(count_ops), 1)
    by_id = {s[ID]: s for s in spans if not s[RAISED]}
    children = defaultdict(list)
    for s in by_id.values():
        children[s[PARENT]].append(s)
    counted = [s for s in by_id.values() if s[OP] in count_ops]
    raised = [s for s in spans if s[RAISED]]

    def dur(s):
        return s[T1] - s[T0]

    def self_time(s):
        return dur(s) - _other_layer_time(s, children)

    def outer(layer, pool):
        return [s for s in pool if s[LAYER] == layer and not s[NESTED]]

    def named(name, pool):
        return [s for s in pool if s[NAME] == name]

    def work_sum(key, pool):
        return sum((s[WORK] or {}).get(key, 0) for s in pool)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        top = outer(layer, by_id.values())
        m[f"{layer}.calls_per_op"] = len(outer(layer, counted)) / n_count
        m[f"{layer}.busy_s_per_op"] = sum(map(dur, top)) / ops
        m[f"{layer}.self_s_per_op"] = sum(map(self_time, top)) / ops
        m[f"{layer}.raised_per_op"] = sum(1 for s in raised if s[LAYER] == layer) / ops

    every = list(by_id.values())
    ffts = [s for s in every if s[NAME].startswith("fft.")]
    ffts_counted = [s for s in ffts if s[OP] in count_ops]
    solves = named("campanato.campanato_solve", every)
    solves_counted = named("campanato.campanato_solve", counted)
    iters_counted = work_sum("iters", solves_counted)
    in_solve = set()
    for s in solves_counted:
        stack = [s]
        while stack:
            for c in children.get(stack.pop()[ID], ()):
                in_solve.add(c[ID])
                stack.append(c)
    m["fields.fft_scalar_per_iter"] = ratio(work_sum("scalar", [s for s in ffts_counted if s[ID] in in_solve]), iters_counted)
    m["fields.fft_scalar_per_op"] = work_sum("scalar", ffts_counted) / n_count
    m["fields.fft_s_per_op"] = sum(map(dur, ffts)) / ops
    m["fields.fft_bytes_per_op"] = work_sum("bytes", ffts_counted) / n_count
    m["fields.hessian_calls_per_op"] = len([s for s in named("fields.spectral_hessian", counted) if not s[NESTED]]) / n_count
    m["fields.largest_array_bytes"] = float(max([(s[WORK] or {}).get("largest", 0) for s in counted if s[LAYER] == "fields"], default=0))

    from_linear = [s for s in named("tensors.cofactor_transpose", counted) if by_id[s[PARENT]][LAYER] == "linear"]
    m["tensors.symbol_inversions_per_op"] = len(from_linear) / n_count
    nu_spans = named("tensors.ellipticity_constant", every)
    m["tensors.nu_calls_per_op"] = len(named("tensors.ellipticity_constant", counted)) / n_count
    m["tensors.nu_s_per_op"] = sum(map(dur, nu_spans)) / ops

    for key, fn in (("solve", "solve_linear"), ("apply", "apply_operator"), ("estimate", "hessian_estimate_check")):
        m[f"linear.{key}_self_s_per_op"] = sum(map(self_time, outer("linear", named(f"linear.{fn}", every)))) / ops

    nl_top = outer("nonlinearity", every)
    m["nonlinearity.evaluate_field_calls_per_op"] = len(named("nonlinearity.evaluate_field", counted)) / n_count
    m["nonlinearity.points_per_s"] = ratio(work_sum("points", nl_top), sum(map(dur, nl_top)))

    cert_top = outer("certify", every)
    m["certify.verify_self_s_per_op"] = sum(map(self_time, named("certify.verify_k_condition", cert_top))) / ops
    m["certify.lemma1_self_s_per_op"] = sum(map(self_time, named("certify.lemma1_check", cert_top))) / ops
    m["certify.samples_per_s"] = ratio(work_sum("samples", cert_top), sum(map(dur, cert_top)))

    iters_all = work_sum("iters", solves)
    m["campanato.iterations_per_solve"] = ratio(iters_counted, len(solves_counted))
    m["campanato.s_per_iter"] = ratio(sum(map(dur, solves)), iters_all)
    m["campanato.self_s_per_iter"] = ratio(sum(map(self_time, solves)), iters_all)
    m["campanato.max_ratio"] = max([(s[WORK] or {}).get("max_ratio", 0.0) for s in solves], default=0.0)

    loops_counted = named("stability.solve_via_nearness", counted)
    outer_counted = work_sum("outer", loops_counted)
    loop_ids = {s[ID] for s in loops_counted}
    m["stability.outer_iters_per_op"] = outer_counted / n_count
    m["stability.inner_iters_per_outer"] = ratio(
        work_sum("iters", [s for s in solves_counted if s[PARENT] in loop_ids]), outer_counted
    )
    m["stability.hessian_calls_per_outer"] = ratio(
        len([s for s in named("fields.spectral_hessian", counted) if s[PARENT] in loop_ids]), outer_counted
    )
    m["stability.admission_s_per_op"] = sum(
        dur(s) for s in every if s[NAME] in {f"stability.{a}" for a in ADMISSION}
    ) / ops
    return m
