"""Tracing of bgedist, installed from outside the package.

Two kinds of instrumentation, both attached by replacing attributes;
nothing inside ``src/`` is edited:

* count-only hooks on ``scipy.optimize.minimize`` (runs, summed ``nfev``)
  and ``scipy.integrate.quad`` (calls, credited to the innermost open
  span).  They must be installed before ``bgedist`` is imported so that
  both module-level ``from scipy... import`` bindings and imports inside
  functions pick them up;
* span wrappers around every public function of the layer modules and
  every public method of ``BGE``.  A span is (name, parent, start, end);
  spans live in flat arrays in memory and are written once, at the end.
  The wrappers of ``fit_mle`` and ``information_matrix`` also count from
  what they return (iterations, convergence, box hits, fallbacks).

Self time of a span is its duration minus the durations of its direct
children.  Calls are strictly nested (one thread), so children never
overlap and this equals "duration minus the part covered by children".
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: The traced modules of bgedist, from the bottom of the stack up.
LAYERS = ("specfun", "distribution", "series", "order_stats", "inference", "cli")


class Tracer:
    """Span recorder plus the counters filled by the count-only hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.spans_on = False

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def innermost_layer(self) -> str:
        if not self.stack:
            return "unattributed"
        return self.names[self.name[self.stack[-1]]].split(".", 1)[0]

    # -- count-only hooks ----------------------------------------------------

    def install_count_hooks(self) -> None:
        """Patch scipy's minimize and quad; call before importing bgedist."""
        import scipy.integrate
        import scipy.optimize

        if "bgedist" in sys.modules:
            raise RuntimeError("count hooks must be installed before bgedist is imported")
        counts = self.counts
        orig_minimize = scipy.optimize.minimize
        orig_quad = scipy.integrate.quad

        @functools.wraps(orig_minimize)
        def minimize(*args, **kwargs):
            res = orig_minimize(*args, **kwargs)
            counts["lbfgsb_runs"] += 1
            counts["objective_evals"] += int(res.nfev)
            return res

        @functools.wraps(orig_quad)
        def quad(*args, **kwargs):
            counts["quad_calls"] += 1
            if self.spans_on:
                counts[f"quad_calls.{self.innermost_layer()}"] += 1
            return orig_quad(*args, **kwargs)

        scipy.optimize.minimize = minimize
        scipy.integrate.quad = quad

    # -- span wrappers ---------------------------------------------------------

    def _wrap(self, span_name: str, fn, observe=None):
        nid = self.intern(span_name)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install_spans(self) -> None:
        """Wrap the public surface of every layer and rebind every alias.

        Names bound elsewhere by ``from .x import y`` (including the
        package namespace) are rebound too, or calls through them would
        go untraced.
        """
        import bgedist
        from bgedist import distribution

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bgedist.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    span = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(span, obj, OBSERVERS.get(span))
        bge = distribution.BGE
        for attr, obj in list(vars(bge).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                setattr(bge, attr, self._wrap(f"distribution.BGE.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bgedist" or modname.startswith("bgedist.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        if getattr(bgedist.fit_mle, "__wrapped__", None) is None:
            raise RuntimeError("span wrappers did not reach the package namespace")
        self.spans_on = True

    # -- output ----------------------------------------------------------------

    def save(self, path) -> None:
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open at save")
        np.savez_compressed(path, names=np.array(self.names, dtype=object),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))


def _observe_fit(counts, fit) -> None:
    counts["fit_mle.fits"] += 1
    counts["fit_mle.iterations"] += fit.iterations
    counts["fit_mle.converged"] += bool(fit.converged)
    counts["fit_mle.hit_bounds"] += bool(fit.hit_bounds)


def _observe_info(counts, info) -> None:
    counts["information_matrix.calls"] += 1
    counts["information_matrix.fallback"] += bool(info.fallback_entries)


#: Result-derived counts, taken from what these functions return.
OBSERVERS = {"inference.fit_mle": _observe_fit,
             "inference.information_matrix": _observe_info}


def aggregate_spans(path) -> dict:
    """Per-name call counts and self times from a saved span file.

    Returns {"calls": {name: n}, "self_s": {name: s}, "root_s": total
    duration of top-level spans}.  The sum of all self times equals
    ``root_s`` up to rounding.
    """
    with np.load(path, allow_pickle=True) as f:
        names = list(f["names"])
        name, parent, start, end = f["name"], f["parent"], f["start"], f["end"]
    dur = end - start
    child = parent >= 0
    self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_by = np.bincount(name, weights=self_t, minlength=k)
    return {"calls": {n: int(calls[i]) for i, n in enumerate(names)},
            "self_s": {n: float(self_by[i]) for i, n in enumerate(names)},
            "root_s": float(dur[~child].sum())}


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime`` output.

    Only the first line for a module counts: that is where it was
    actually imported.
    """
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        mod = fields[2].strip()
        if mod not in out:
            out[mod] = int(fields[1]) * 1e-6
    return out
