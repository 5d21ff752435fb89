"""In-process worker for the ``fit_study`` and ``functionals`` workloads.

    python perfbench/worker.py --workload NAME --seed N --mode MODE

Modes:

* ``setup``: import bgedist, run the fixed warm-up ops, print ``READY``
  and exit.  The orchestrator times process start to ``READY``.
* ``timed``: as ``setup``, then run the fixed op list once with no
  instrumentation and print one JSON line of latencies and failures.
* ``trace``: install the count-only hooks, import bgedist, warm up, run
  the fixed traced op list once with only the hooks (pass A), install
  the span wrappers and run it again (pass B); write the spans and print
  one JSON line.  Every count must repeat exactly between the passes.

Only bgedist and numpy are imported before ``READY`` so that set-up
time is the library's own; scipy.special, used for the reference
values, is imported after it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import warnings
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
from common import (FIT_ANCHORS, LOG_BOX, Ledger, bge_draws,  # noqa: E402
                    latin_unit, log_box, rng_for)

clock = time.perf_counter

# -- fit_study -------------------------------------------------------------------

FIT_INTERIOR_HALF_WIDTH = 2.25   # inner half of the box, in log space
#: Every point gets two replicates on fresh datasets, n = 63 and then
#: n = 1000, so the size alternates.  A replicate is two ops: first the
#: null fits ge and be, then the full fits dge and bge with the ge-vs-bge
#: and be-vs-bge LR tests; each fit with a covariance also gets its
#: intervals.  The two halves cost about the same, so op latencies are
#: unimodal, and a run holds enough ops for a tail with 10 beyond it.
#: A block is the 3 anchors and FIT_INTERIOR fresh interior points.
FIT_SIZES = (63, 1000)
FIT_HALVES = (("ge", "be"), ("dge", "bge"))
FIT_INTERIOR = 4
#: Blocks in the timed op list (sized to take about 25 s at the seed) and
#: in the traced one.
FIT_BLOCKS, FIT_TRACE_BLOCKS = 2, 1
NEST_TOL = 1e-6


def _replicate_ops(key, ys) -> list:
    return [{"rep": (key, r), "data": y, "models": models}
            for r, y in enumerate(ys) for models in FIT_HALVES]


def fit_ops(seed: int, trace: bool) -> list:
    """The fixed op list: blocks of the anchors and interior points, the
    interior points Latin-hypercube stratified over the whole list."""
    n_blocks = FIT_TRACE_BLOCKS if trace else FIT_BLOCKS
    interior = log_box(latin_unit(rng_for(seed, 1, trace), FIT_INTERIOR * n_blocks),
                       FIT_INTERIOR_HALF_WIDTH)
    points = []
    for blk in range(n_blocks):
        points += list(FIT_ANCHORS) + [tuple(map(float, p)) for p in
                                       interior[FIT_INTERIOR * blk:FIT_INTERIOR * (blk + 1)]]
    ops = []
    for j, pt in enumerate(points):
        ops += _replicate_ops(j, [bge_draws(pt, n, rng_for(seed, 2, trace, j, n))
                                   for n in FIT_SIZES])
    return ops


def fit_warmup() -> list:
    pt = FIT_ANCHORS[2]
    return _replicate_ops(0, [bge_draws(pt, n, rng_for(0, 99, n)) for n in FIT_SIZES])


def run_fit_op(bg, op, state: dict, check: bool = True) -> tuple:
    """Fits the op's models, their intervals where a covariance exists
    and, in the second half of a replicate, the LR tests; then, if asked,
    the checks of what has been fitted so far.  Returns (latency, causes,
    signature)."""
    fits = state.setdefault(op["rep"], {})
    causes, lrs, cis = [], {}, {}
    t0 = clock()
    for m in op["models"]:
        try:
            fits[m] = bg.inference.fit_mle(op["data"], m)
        except Exception as exc:  # op boundary: every failure is recorded
            causes.append(f"inference.fit_mle.{type(exc).__name__}")
            continue
        if fits[m].covariance is not None:
            try:
                cis[m] = bg.inference.confidence_intervals(fits[m])
            except Exception as exc:
                causes.append(f"inference.confidence_intervals.{type(exc).__name__}")
    if "bge" in op["models"]:
        for null in ("ge", "be"):
            if null in fits and "bge" in fits:
                try:
                    lrs[null] = bg.inference.lr_from_fits(fits[null], fits["bge"])
                except Exception as exc:
                    causes.append(f"inference.lr_from_fits.{type(exc).__name__}")
    latency = clock() - t0
    if not check:
        return latency, causes, None

    ll = {m: fits[m].loglik for m in op["models"] if m in fits}
    if not all(math.isfinite(v) for v in ll.values()):
        causes.append("inference.fit_mle.nonfinite")
    if "bge" in op["models"]:
        ll_all = {m: f.loglik for m, f in fits.items()}
        for lo, hi in (("ge", "dge"), ("dge", "bge"), ("be", "bge")):
            if lo in ll_all and hi in ll_all and not ll_all[lo] <= ll_all[hi] + NEST_TOL:
                causes.append("inference.fit_mle.nesting")
    for lr in lrs.values():
        if not (lr.statistic >= 0.0 and 0.0 <= lr.p_value <= 1.0):
            causes.append("inference.lr_from_fits.check")
    for ci in cis.values():
        if not all(math.isfinite(lo) and math.isfinite(hi) and lo < hi for lo, hi in ci.values()):
            causes.append("inference.confidence_intervals.check")
    return latency, causes, [(m, repr(fits[m].loglik), fits[m].iterations)
                             for m in op["models"] if m in fits]


# -- functionals -----------------------------------------------------------------

#: Points come in pairs: theta with b <= 1 and its reflection 1/theta
#: through the box centre, so every run holds as many slow small-b points
#: (where the series are slow) as fast large-b ones, and each pair visits
#: two opposite corners.  Over the list the points are log-uniform over
#: the whole box, Latin-hypercube stratified with b stratified over its
#: lower half.  Pairs in the timed list (sized to take about 25 s at the
#: seed) and in the traced one:
FN_PAIRS, FN_TRACE_PAIRS = 14, 4
#: Fixed p-grid: both tails on a log scale plus a dense body.
FN_P_GRID = tuple(sorted(set(
    [10.0 ** e for e in range(-10, -1)]
    + [round(0.02 + 0.96 * k / 119, 12) for k in range(120)]
    + [1.0 - 10.0 ** e for e in range(-10, -1)])))
#: (i, n, r) of E[X_{i:n}^r]; (1, 1, 1) is the mean.
FN_ORDER_STATS = ((1, 1, 1), (1, 3, 1), (3, 3, 1), (2, 4, 2))
#: The ops on one point, in order: the quantile table, the value table,
#: each series functional, each order-statistic moment.  Table ops are
#: the bulk of the ops and set the median; the series and the
#: order-statistic quadratures at small b set the tail.
FN_KINDS = ("quantile", "table", "moment_set", "shannon_entropy") + FN_ORDER_STATS
P_SPACE_RTOL = 1e-6
SUM_TOL = 1e-10
MEAN_RTOL = 1e-6
WARMUP_POINT = (2.0, 1.5, 1.0, 2.0)


def _point_ops(params, x_ref) -> list:
    return [{"params": params, "x_ref": x_ref, "kind": kind} for kind in FN_KINDS]


def fn_ops(seed: int, trace: bool) -> list:
    u = latin_unit(rng_for(seed, 3, trace), FN_TRACE_PAIRS if trace else FN_PAIRS)
    u[:, 1] *= 0.5                                   # b in [e^-4.5, 1]
    ops = []
    for p in log_box(u, LOG_BOX):
        for q in (tuple(map(float, p)), tuple(map(float, 1.0 / p))):
            ops += _point_ops(q, fn_reference(q))
    return ops


def fn_warmup() -> list:
    # no reference values: they need scipy.special, which set-up must not import
    return _point_ops(WARMUP_POINT, np.linspace(0.05, 5.0, 40))


def fn_reference(params) -> np.ndarray:
    """Reference x-grid for the p-grid: scipy's betaincinv plus the
    transform.  Points the reference cannot represent are left out."""
    from scipy.special import betaincinv

    a, b, lam, alpha = params
    q = betaincinv(a, b, np.asarray(FN_P_GRID))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = -np.log(-np.expm1(np.log(q) / alpha)) / lam
    return x[np.isfinite(x) & (x > 0.0)]


def p_space_error(params, x: float, p: float) -> float:
    """Relative error of F(x) against p, on the tail p lies in."""
    from scipy.special import betainc

    a, b, lam, alpha = params
    z = lam * x
    log_u = math.log(-math.expm1(-z)) if z < math.log(2.0) else math.log1p(-math.exp(-z))
    log_g = alpha * log_u
    if p <= 0.5:
        return abs(betainc(a, b, math.exp(log_g)) - p) / p
    return abs(betainc(b, a, -math.expm1(log_g)) - (1.0 - p)) / (1.0 - p)


def _call(causes: list, cause: str, fn, *args):
    """fn(*args), or None with the failure recorded under ``cause``."""
    try:
        return fn(*args)
    except Exception as exc:  # op boundary: every failure is recorded
        causes.append(f"{cause}.{type(exc).__name__}")
        return None


def _evaluate(bg, dist, op, causes: list):
    """The op's calls on one distribution, recording what raises."""
    from bgedist.order_stats import OrderStatIndex

    kind = op["kind"]
    if kind == "quantile":
        return [_call(causes, "distribution.quantile", dist.quantile, p) for p in FN_P_GRID]
    if kind == "table":
        return [[_call(causes, f"distribution.{f}", getattr(dist, f), float(x))
                 for f in ("pdf", "cdf", "survival", "hazard")] for x in op["x_ref"]]
    if kind in ("moment_set", "shannon_entropy"):
        return _call(causes, f"series.{kind}", getattr(bg.series, kind), dist)
    i, n, r = kind
    return _call(causes, "order_stats.order_stat_moment", bg.order_stats.order_stat_moment,
                 dist, OrderStatIndex(i, n), r)


def _check(op, out, point_state: dict, causes: list) -> None:
    kind, params = op["kind"], op["params"]
    if kind == "quantile":
        for p, x in zip(FN_P_GRID, out):
            if x is None:
                continue
            if not (math.isfinite(x) and x > 0.0):
                causes.append("distribution.quantile.range")
            elif not p_space_error(params, x, p) <= P_SPACE_RTOL:
                causes.append("distribution.quantile.pspace")
    elif kind == "table":
        for pdf, cdf, sf, hz in out:
            if pdf is not None and not (math.isfinite(pdf) and pdf >= 0.0):
                causes.append("distribution.pdf.check")
            if cdf is not None and sf is not None and not abs(cdf + sf - 1.0) <= SUM_TOL:
                causes.append("distribution.cdf_survival.sum")
            if hz is not None and not (math.isfinite(hz) and hz >= 0.0):
                causes.append("distribution.hazard.check")
    elif kind == "moment_set":
        point_state["ms"] = out
        if out is not None and not (math.isfinite(out.mu1) and out.mu1 > 0.0
                                    and math.isfinite(out.variance) and out.variance > 0.0):
            causes.append("series.moment_set.check")
    elif kind == "shannon_entropy":
        if out is not None and not math.isfinite(out):
            causes.append("series.shannon_entropy.check")
    elif out is not None:
        if not (math.isfinite(out) and out > 0.0):
            causes.append("order_stats.order_stat_moment.check")
        ms = point_state.get("ms")
        if kind == (1, 1, 1) and ms is not None and math.isfinite(out):
            if not abs(out - ms.mu1) <= MEAN_RTOL * abs(ms.mu1):
                causes.append("order_stats.order_stat_moment.mean_mismatch")


def run_fn_op(bg, op, state: dict, check: bool = True) -> tuple:
    causes = []
    t0 = clock()
    out = _evaluate(bg, bg.distribution.BGE(*op["params"]), op, causes)
    latency = clock() - t0
    if not check:
        return latency, causes, None
    _check(op, out, state.setdefault(op["params"], {}), causes)
    if op["kind"] == "moment_set":
        signature = repr(out.mu1) if out is not None else None
    elif op["kind"] in ("quantile", "table"):
        signature = sorted(causes)
    else:
        signature = repr(out)
    return latency, causes, signature


# -- running ops --------------------------------------------------------------------------

WORKLOADS = {
    "fit_study": {"ops": fit_ops, "warmup": fit_warmup, "run": run_fit_op},
    "functionals": {"ops": fn_ops, "warmup": fn_warmup, "run": run_fn_op},
}


def run_ops(wl, bg, ops, ledger: Ledger, warn_counts: Counter) -> tuple:
    from scipy.integrate import IntegrationWarning

    latencies, signatures, state = [], [], {}
    for op in ops:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            latency, causes, sig = wl["run"](bg, op, state)
        warn_counts["integration"] += sum(issubclass(w.category, IntegrationWarning)
                                          for w in caught)
        ledger.record(causes)
        latencies.append(latency)
        signatures.append(sig)
    return latencies, signatures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    ap.add_argument("--spans", default=None, help="where trace mode writes its spans")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install_count_hooks()

    # ops look functions up through the modules at call time, so that
    # they reach the span wrappers once those are installed
    import bgedist as bg
    import bgedist.distribution, bgedist.inference, bgedist.order_stats, bgedist.series  # noqa

    # the warm-up skips the checks, which import scipy.special
    warm_state = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op in wl["warmup"]():
            wl["run"](bg, op, warm_state, check=False)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "timed":
        ledger, warn_counts = Ledger(), Counter()
        latencies = run_ops(wl, bg, wl["ops"](args.seed, False), ledger, warn_counts)[0]
        result = {"latencies": latencies, "ledger": ledger.as_dict(),
                  "warnings": dict(warn_counts),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        print(json.dumps(result), flush=True)
        return 0

    # trace mode: a fixed op list, so that every count repeats for a seed
    ops = wl["ops"](args.seed, True)
    passes = []
    for spans in (False, True):
        if spans:
            tracer.install_spans()
        before = Counter(tracer.counts)
        ledger, warn_counts = Ledger(), Counter()
        latencies, signatures = run_ops(wl, bg, ops, ledger, warn_counts)
        counts = Counter(tracer.counts)
        counts.subtract(before)
        passes.append({"op_wall_s": sum(latencies), "ledger": ledger.as_dict(),
                       "warnings": dict(warn_counts),
                       "counts": {k: v for k, v in counts.items() if v},
                       "signatures": signatures})
    tracer.save(args.spans)
    print(json.dumps({"passes": passes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
