"""Spans around the public functions of the ionkerr modules, recorded from
outside the package.

``Tracer.install`` replaces every module-level binding of a public ionkerr
function with a wrapper that records one span (name, start, end, parent, op).
Bindings are replaced in every ionkerr module, so a function that one module
imports from another (``spectra`` uses ``dynamics.dispersive_shift_table``)
is traced at each call site. Private helpers and methods are not wrapped;
their time counts as self time of the public function that calls them.

Spans are kept in typed arrays in memory and aggregated or saved when the
pass ends. Nothing here imports ionkerr; the caller passes its modules in.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("trap", "fock", "dynamics", "states", "spectra", "fitting", "measure", "cli")
IMPORT_SPAN = "import"


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_driven_scan(fn, args, kwargs, result, counters):
    a = _bound(fn, args, kwargs)
    points = len(a["grid"])
    dim = a["params"].cutoff.dim
    counters["driven_scan.points"] += points
    # Complex Hermitian eigh with eigenvectors: 4 x the 9 d^3 real flops of
    # the symmetric QR algorithm (Golub & Van Loan), once per grid point.
    counters["driven_scan.eigh_flops"] += points * 36 * dim**3


def _observe_fit(kind):
    def observe(fn, args, kwargs, result, counters):
        counters[f"{kind}.fits"] += 1
        counters[f"{kind}.iterations"] += int(result.iterations)
        counters[f"{kind}.converged"] += int(bool(result.converged))

    return observe


OBSERVERS = {
    "spectra.driven_scan": _observe_driven_scan,
    "fitting.fit_free_distribution": _observe_fit("fit_free"),
    "fitting.fit_parametric": _observe_fit("fit_parametric"),
}


def dressed_cache_counts(dynamics_module) -> tuple[int, int] | None:
    """(hits, misses) of the dressed-energy lru_cache, read from outside;
    None when the module no longer has that cache."""
    info = getattr(getattr(dynamics_module, "_manifold_dressed_energies", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


class Tracer:
    """Span recorder. One instance per traced pass; not thread-safe (the
    benchmark runs one caller)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.current_op = -1
        self.enabled = True  # False while the benchmark checks outputs
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span that no wrapper covers."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        observer = OBSERVERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observer is not None:
                observer(fn, args, kwargs, result, counters)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # --- results --------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }

    def absorb(self, dump: dict, op: int) -> None:
        """Append the spans of another tracer (a traced child process) as op ``op``."""
        remap = [self._id(n) for n in dump["names"]]
        base = len(self.start)
        for nid, parent, start, end in zip(dump["name_id"], dump["parent"], dump["start"], dump["end"]):
            self.name_id.append(remap[nid])
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op)
            self.start.append(start)
            self.end.append(end)
        self.counters.update(dump["counters"])

    def aggregate(self) -> dict:
        """Per span name: calls, self time and total time (ns), plus the total
        duration of top-level spans. Self time is a span's duration minus the
        durations of its direct children (spans nest: one caller, one thread)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        top = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                top += dur[i]
        stats = {name: {"calls": 0, "self_ns": 0, "total_ns": 0} for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_id[i]]]
            s["calls"] += 1
            s["self_ns"] += dur[i] - child[i]
            s["total_ns"] += dur[i]
        return {"spans": stats, "top_level_ns": top, "n_spans": n}
