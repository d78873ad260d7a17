"""Span tracing around the library's public functions.

``Tracer.install`` wraps every public function of the eight library
modules and puts the wrapper on every module attribute that binds the
function, since the modules import each other's functions by name.  A
wrapper records one span (name, start, end, parent) in flat arrays in
memory, but only inside the benchmark's ROOT span around an operation,
so calls made while building inputs between operations do not count; ``save`` writes them out once, ``span_totals`` sums them per
function and ``layer_metrics`` turns the sums into the per-layer
metrics.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("linalg", "unitary", "symplectic", "general_linear",
           "pairs", "seesaw", "jsonio", "cli")
ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        for buf in (self.name, self.parent, self.start, self.end):
            del buf[:]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark's own root spans use this."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter
        is_root = name == ROOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1] < 0 and not is_root:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
        return traced

    def install(self):
        """Wrap the public functions of the library modules in place."""
        pkg = importlib.import_module("dualpairs")
        mods = [importlib.import_module(f"dualpairs.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in [pkg, *mods]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def save(self, path):
        np.savez(path, names=np.array(self.names or [""]),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def span_totals(path) -> dict[str, list[float]]:
    """Per function name: [calls, inclusive seconds, self seconds]."""
    with np.load(path) as z:
        names, name, parent = list(z["names"]), z["name"], z["parent"]
        dur = z["end"] - z["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    excl = np.bincount(name, weights=self_time, minlength=k)
    return {str(names[i]): [float(calls[i]), float(incl[i]), float(excl[i])]
            for i in range(k) if calls[i]}


def merge(totals: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for t in totals:
        for key, vals in t.items():
            acc = out.setdefault(key, [0.0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
    return out


# Function-level metrics; seesaw.check_diagram pools the two diagram checks.
_CALLS_PER_OP = ("pairs.tangent_omega", "pairs.infinitesimal_action",
                 "linalg.rank_tol")
_MS_PER_CALL = {
    "pairs.check_lie_weinstein": ("pairs.check_lie_weinstein",),
    "unitary.jacobian_rank_right": ("unitary.jacobian_rank_right",),
    "seesaw.check_diagram": ("seesaw.check_diagram_sp_u", "seesaw.check_diagram_sp_gl"),
    "general_linear.jordan_structure": ("general_linear.jordan_structure",),
    "linalg.rank_tol": ("linalg.rank_tol",),
    "symplectic.witt_extend": ("symplectic.witt_extend",),
    "symplectic.symplectic_svd": ("symplectic.symplectic_svd",),
    "linalg.isometry_between": ("linalg.isometry_between",),
    "general_linear.complete_pair": ("general_linear.complete_pair",),
    "general_linear.witness_left": ("general_linear.witness_left",),
    "jsonio.matrix_to_obj": ("jsonio.matrix_to_obj",),
    "jsonio.matrix_from_obj": ("jsonio.matrix_from_obj",),
}


def layer_metrics(totals: dict[str, list[float]], ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each as (value, unit).  A function or
    module the workload never calls reads 0."""
    out: dict[str, tuple[float, str]] = {}
    for mod in MODULES:
        rows = [v for k, v in totals.items() if k.split(".")[0] == mod]
        out[f"{mod}.calls_per_op"] = (sum(r[0] for r in rows) / ops, "count")
        out[f"{mod}.self_ms_per_op"] = (1e3 * sum(r[2] for r in rows) / ops, "ms")
    for fn in _CALLS_PER_OP:
        out[f"{fn}.calls_per_op"] = (totals.get(fn, [0.0])[0] / ops, "count")
    for metric, fns in _MS_PER_CALL.items():
        calls = sum(totals.get(f, [0.0, 0.0])[0] for f in fns)
        secs = sum(totals.get(f, [0.0, 0.0])[1] for f in fns)
        out[f"{metric}.ms_per_call"] = (1e3 * secs / calls if calls else 0.0, "ms")
    return out
