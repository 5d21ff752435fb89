"""bgedist benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/bgedist``.  With
``--trace 0`` it measures the end-to-end metrics with no instrumentation;
with ``--trace 1`` it runs a fixed op list twice, first with count-only
hooks and then with span wrappers too, and reports the per-layer
metrics.  Workloads, metrics and their units are declared in
``BENCHMARK.json``; what each per-layer metric should move is in
``perfbench/interactions.json``.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give provenance, the metric table and failure causes.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))   # the cli_session output checks parse with bgedist

from common import KNOWN_DEFECTS, Ledger, latency_summary, median  # noqa: E402

RUN_LIMIT_S = 170.0          # every run must end within 180 s
SETUP_REPEATS = 5            # set-up is timed this many times per run
IMPORTTIME_REPEATS = 3
IN_PROCESS = ("fit_study", "functionals")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


# -- environment and provenance -------------------------------------------------------


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, env: dict, nproc: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bgedist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "cpu_model": _cpu_model(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "thread_caps": {v: env[v] for v in THREAD_VARS}}


# -- child processes -----------------------------------------------------------------


def _start_worker(args, env: dict, mode: str, extra=()) -> subprocess.Popen:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode, *extra]
    return subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen, deadline: float, t0: float) -> tuple:
    """Wait for READY and then for the final line; returns (setup_s, result).

    A timer kills the child at the run deadline, so no read blocks past it.
    """
    killer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker failed (exit {code})")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def setup_worker(args, env: dict, mode: str, deadline: float, extra=()) -> tuple:
    t0 = time.perf_counter()
    return _finish(_start_worker(args, env, mode, extra), deadline, t0)


def cold_import(env: dict, deadline: float) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bgedist"], env=env, cwd=ROOT, check=True,
                   timeout=max(deadline - time.perf_counter(), 1.0))
    return time.perf_counter() - t0


def import_times(env: dict, deadline: float, modules) -> dict:
    from tracing import parse_importtime

    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bgedist"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{m}_s": median(r.get(m, 0.0) for r in runs) for m in modules}


# -- the two kinds of run --------------------------------------------------------------


def timed_run(args, env: dict, run_dir: Path, deadline: float) -> tuple:
    """The end-to-end metrics.  The in-process workloads' op lists are
    long enough for a tail; cli_session runs 18 commands, too few for
    one, so its tail is the median of the slowest third of them."""
    import cli_session

    if args.workload in IN_PROCESS:
        setups = [setup_worker(args, env, "setup", deadline)[0]
                  for _ in range(SETUP_REPEATS - 1)]
        setup, res = setup_worker(args, env, "timed", deadline)
        setups.append(setup)
        lat = latency_summary(res["latencies"])
        p50, tail = lat["p50"], lat["tail"]
        peak = res["peak_rss_mb"]
    else:
        setups = [cold_import(env, deadline) for _ in range(SETUP_REPEATS)]
        res = cli_session.timed(args.seed, env, ROOT, run_dir, deadline)
        slowest = sorted(res["latencies"])[-len(res["latencies"]) // 3:]
        lat = {"per_command_median_s": {c: median(v) for c, v in res["per_command"].items()},
               "tail_samples": len(slowest)}
        p50, tail = median(res["latencies"]), median(slowest)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (sum(res["latencies"]), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    details = {"setup_samples_s": setups, "latency": lat, "op_latencies_s": res["latencies"],
               "failure_causes": res["ledger"]["causes"]}
    return metrics, Ledger.from_dict(res["ledger"]), details, []


def trace_run(args, env: dict, run_dir: Path, deadline: float) -> tuple:
    """Per-layer metrics; which modules, functions and layers are reported
    is read from the names declared in BENCHMARK.json."""
    import cli_session
    from tracing import LAYERS, aggregate_spans

    untraced = None
    if args.workload in IN_PROCESS:
        spans = run_dir / "spans.npz"
        _, res = setup_worker(args, env, "trace", deadline, ("--spans", str(spans)))
        span_files = [spans]
    else:
        # the cli.*_s metrics: per-command medians of the untraced op list
        untraced = cli_session.timed(args.seed, env, ROOT, run_dir, deadline)
        res = cli_session.traced(args.seed, env, ROOT, run_dir, deadline)
        span_files = [Path(p) for p in res["passes"][1]["span_files"]]
    plain, traced = res["passes"]
    # untraced wall: pass A, whose count-only hooks cost next to nothing,
    # or for cli_session the untraced round on the same inputs as pass B
    untraced_wall = untraced["round_walls"][0] if untraced else plain["op_wall_s"]
    problems = [f"pass A and pass B differ in {key}"
                for key in ("ledger", "warnings", "signatures")
                if plain[key] != traced[key]]
    if untraced is not None:
        problems += [f"untraced command failed: {c}"
                     for c in Ledger.from_dict(untraced["ledger"]).unexpected()]
    for key in ("lbfgsb_runs", "objective_evals", "quad_calls"):
        if plain["counts"].get(key, 0) != traced["counts"].get(key, 0):
            problems.append(f"count {key} differs between passes")

    calls, self_s, root_s = {}, {}, 0.0
    for path in span_files:
        agg = aggregate_spans(path)
        for name, n in agg["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in agg["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        root_s += agg["root_s"]
    if not sum(self_s.values()) <= traced["op_wall_s"] * (1 + 1e-9) + 1e-6:
        problems.append("traced self times exceed traced wall time")
    if not root_s <= traced["op_wall_s"] * (1 + 1e-9) + 1e-6:
        problems.append("top-level spans exceed traced wall time")

    counts = traced["counts"]
    want = declared(True)
    modules = [n[len("import."):-len("_s")] for n in want if n.startswith("import.")]
    metrics = {k: (v, "s") for k, v in import_times(env, deadline, modules).items()}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = (sum(self_s[n] for n in names), "s")
        metrics[f"{layer}.calls"] = (sum(calls[n] for n in names), "count")
    for name in want:
        span, _, what = name.rpartition(".")
        if "." in span and span.split(".", 1)[0] in LAYERS and what in ("calls", "self_s"):
            metrics[name] = ((calls.get(span, 0), "count") if what == "calls"
                             else (self_s.get(span, 0.0), "s"))
    fits = counts.get("fit_mle.fits", 0)
    infos = counts.get("information_matrix.calls", 0)
    metrics.update({
        "inference.fit_mle.iterations": (counts.get("fit_mle.iterations", 0), "count"),
        "inference.lbfgsb_runs": (counts.get("lbfgsb_runs", 0), "count"),
        "inference.objective_evals": (counts.get("objective_evals", 0), "count"),
        "inference.fit_mle.converged_share":
            (counts.get("fit_mle.converged", 0) / fits if fits else 0.0, "ratio"),
        "inference.fit_mle.hit_bounds_share":
            (counts.get("fit_mle.hit_bounds", 0) / fits if fits else 0.0, "ratio"),
        "inference.information_matrix.fallback_share":
            (counts.get("information_matrix.fallback", 0) / infos if infos else 0.0, "ratio"),
        "warnings.integration": (traced["warnings"]["integration"], "count"),
        "tracing.overhead_s": (traced["op_wall_s"] - untraced_wall, "s"),
    })
    for layer in ("inference", "series", "order_stats"):
        metrics[f"{layer}.quad_calls"] = (counts.get(f"quad_calls.{layer}", 0), "count")
    ledger = Ledger.from_dict(traced["ledger"])
    by_layer = ledger.by_layer()
    for name in want:
        if name.endswith(".failed"):
            metrics[name] = (by_layer.get(name.split(".", 1)[0], 0), "count")
    metrics["failed_share"] = (ledger.failed / ledger.attempted, "ratio")
    for name in cli_session.COMMANDS:
        metrics[f"cli.{name}_s"] = (median(untraced["per_command"][name]) if untraced
                                    else 0.0, "s")
    details = {"failure_causes": traced["ledger"]["causes"],
               "fits": fits, "information_matrices": infos,
               "quad_calls_total": counts.get("quad_calls", 0),
               "quad_calls_unattributed": counts.get("quad_calls.unattributed", 0),
               "untraced_op_wall_s": untraced_wall, "traced_op_wall_s": traced["op_wall_s"],
               "self_share_of_traced_wall": {layer: metrics[f"{layer}.self_s"][0]
                                             / traced["op_wall_s"] for layer in LAYERS},
               "span_files": [str(p.relative_to(ROOT)) for p in span_files]}
    return metrics, ledger, details, problems


# -- checks on the benchmark itself ----------------------------------------------------


def declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def self_check(metrics: dict, trace: bool) -> list:
    want = declared(trace)
    problems = [f"metric {n} declared but not emitted" for n in want if n not in metrics]
    problems += [f"metric {n} emitted but not declared" for n in metrics if n not in want]
    problems += [f"metric {n} has unit {u}, declared {want[n]}"
                 for n, (_, u) in metrics.items() if n in want and want[n] != u]
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "bgedist" / "__init__.py").is_file():
        print(f"benchmark error: no bgedist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"benchmark error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    # byte-compile first, so that no timed import pays for compilation
    compileall.compile_dir(str(ROOT / "src" / "bgedist"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    run_dir = ROOT / ".perfbench-runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    try:
        run = trace_run if args.trace else timed_run
        metrics, ledger, details, problems = run(args, env, run_dir, deadline)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    schema = self_check(metrics, bool(args.trace))
    for p in schema + problems:
        print(f"benchmark self-check failed: {p}", file=sys.stderr)
    if schema:
        return 4
    unexpected = ledger.unexpected()
    correct = not problems and not unexpected

    print(json.dumps({"provenance": provenance(args, env, nproc)}))
    print(json.dumps({"details": details, "unexpected_failures": unexpected,
                      "known_defects": sorted(KNOWN_DEFECTS)}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
