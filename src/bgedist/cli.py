"""Command-line front end.

Subcommands: ``fit`` and ``compare`` on a data file, ``sample`` for
seeded generation, ``curve`` for density/hazard or skewness/kurtosis
tables, and ``reproduce`` for the embedded glass-fibre benchmark.

Exit codes: 0 success, 1 usage error, 2 input error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .datasets import GLASS_FIBRE_REFERENCE, GLASS_FIBRE_TOLERANCES, glass_fibre_sample
from .distribution import BGE, MODEL_FREE_PARAMS, Sample

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NOCONV = 3


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def read_positive_column(path: str) -> np.ndarray:
    """One positive decimal per line; '#' comments ignored; a single
    non-numeric first row is accepted as a CSV header."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    values = []
    seen_data = False
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        token = text.rstrip(",").strip()
        try:
            value = float(token)
        except ValueError:
            if not seen_data:
                seen_data = True  # header row
                continue
            raise InputError(f"{path}:{lineno}: malformed value {token!r}")
        seen_data = True
        if not math.isfinite(value) or value <= 0.0:
            raise InputError(f"{path}:{lineno}: nonpositive value {token!r}")
        values.append(value)
    if not values:
        raise InputError(f"{path}: no observations found")
    return np.array(values)


def _parse_params(text: str) -> BGE:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--params expects a,b,lambda,alpha")
    try:
        return BGE(*(float(p) for p in parts))
    except ValueError as exc:
        raise UsageError(f"invalid --params: {exc}") from exc


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("--grid expects min:max:points")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"invalid --grid: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("--grid requires finite min and max")
    if points < 2 or not lo < hi:
        raise UsageError("--grid requires points >= 2 and min < max")
    return lo, hi, points


def _load_data(args) -> Sample:
    if args.input is None:
        raise UsageError(f"{args.command} requires --input PATH")
    return Sample(read_positive_column(args.input), label=args.input)


def _print_fit_human(fit, out) -> None:
    from .inference import _fmt, confidence_intervals

    p = fit.params
    print(f"model: {fit.model}", file=out)
    shown = MODEL_FREE_PARAMS[fit.model]
    for name, value in zip(("a", "b", "lambda", "alpha"), p.params_tuple()):
        mark = "" if (name if name != "lambda" else "lam") in shown else "  (pinned)"
        print(f"  {name:<7}= {_fmt(value)}{mark}", file=out)
    print(f"  loglik = {_fmt(fit.loglik)}", file=out)
    print(f"  converged: {str(fit.converged).lower()}  "
          f"(score_norm={fit.score_norm:.3g}, iterations={fit.iterations})", file=out)
    if fit.hit_bounds:
        print(f"  note: search-box bound active for {', '.join(fit.hit_bounds)} "
              f"(likelihood-ridge degeneracy)", file=out)
    try:
        cis = confidence_intervals(fit, gamma=0.05)
    except ValueError:
        cis = None
    if cis:
        for name, (lo, hi) in cis.items():
            label = "lambda" if name == "lam" else name
            print(f"  ci95({label}) = [{_fmt(lo)}, {_fmt(hi)}]", file=out)


def cmd_fit(args, out) -> int:
    from .inference import fit_mle, fit_result_kv

    data = _load_data(args)
    fit = fit_mle(data, args.model)
    if args.format == "structured":
        out.write(fit_result_kv(fit))
    else:
        _print_fit_human(fit, out)
    return EXIT_OK if fit.converged else EXIT_NOCONV


def cmd_compare(args, out) -> int:
    from .inference import _fmt, fit_mle, fit_result_kv, lr_from_fits, lr_result_kv

    data = _load_data(args)
    fits = {m: fit_mle(data, m) for m in ("bge", "be", "ge")}
    tests = [lr_from_fits(fits["be"], fits["bge"]),
             lr_from_fits(fits["ge"], fits["bge"])]
    if args.format == "structured":
        for m in ("bge", "be", "ge"):
            out.write(fit_result_kv(fits[m]))
        for lr in tests:
            out.write(lr_result_kv(lr))
    else:
        for m in ("bge", "be", "ge"):
            _print_fit_human(fits[m], out)
            print("", file=out)
        for lr in tests:
            print(f"LR {lr.null_model} vs {lr.alt_model}: w = {_fmt(lr.statistic)}, "
                  f"dof = {lr.dof}, p = {_fmt(lr.p_value)}", file=out)
    bad = [m for m, f in fits.items() if not f.converged]
    if bad:
        print(f"# non-converged fits: {', '.join(sorted(bad))}", file=out)
        return EXIT_NOCONV
    return EXIT_OK


def cmd_sample(args, out) -> int:
    if args.params is None:
        raise UsageError("sample requires --params a,b,lambda,alpha")
    if args.n is None or args.n < 1:
        raise UsageError("sample requires --n >= 1")
    if args.seed is None:
        raise UsageError("sample requires an explicit --seed")
    dist = _parse_params(args.params)
    try:
        draws = dist.sample(args.n, np.random.default_rng(args.seed))
    except ValueError as exc:  # a draw that underflowed to 0 (small a, b)
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    for v in draws.values:
        print(f"{v:.17g}", file=out)
    return EXIT_OK


def cmd_curve(args, out) -> int:
    if args.params is None:
        raise UsageError("curve requires --params a,b,lambda,alpha")
    dist = _parse_params(args.params)
    lo, hi, points = _parse_grid(args.grid)
    if args.sweep is not None:
        if lo <= 0.0:
            raise UsageError("--sweep grid must be positive")
        from .series import SeriesConvergenceError, skewness_kurtosis

        print(f"# {args.sweep}\tskewness\tkurtosis", file=out)
        base = list(dist.params_tuple())
        pos = {"a": 0, "b": 1}[args.sweep]
        for value in np.linspace(lo, hi, points):
            base[pos] = float(value)
            try:
                skew, kurt = skewness_kurtosis(BGE(*base))
            except SeriesConvergenceError as exc:
                print(f"non-convergence: {exc}", file=sys.stderr)
                return EXIT_NOCONV
            print(f"{value:.10g}\t{skew:.10g}\t{kurt:.10g}", file=out)
        return EXIT_OK
    if lo < 0.0:
        raise UsageError("curve grid must start at x >= 0")
    x = np.linspace(lo, hi, points)
    pdf, surv = dist.pdf(x), dist.survival(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        # hazard at x > 0, and inf where the survival underflows
        hz = np.where(x > 0.0, np.where(surv == 0.0, np.inf, pdf / surv), np.nan)
    rows = zip(x.tolist(), pdf.tolist(), dist.cdf(x).tolist(), hz.tolist())
    # .10g, as _fmt formats a float; one write for the whole table
    out.write("# x\tpdf\tcdf\thazard\n"
              + "".join(f"{v:.10g}\t{f:.10g}\t{c:.10g}\t{h:.10g}\n" for v, f, c, h in rows))
    return EXIT_OK


def _check(value: float, target: float, tol: float) -> str:
    return "pass" if abs(value - target) <= tol else "FAIL"


def _check_rel(value: float, target: float, rel: float) -> str:
    return "pass" if abs(value - target) <= rel * abs(target) else "FAIL"


def cmd_reproduce(args, out) -> int:
    """Fit the embedded glass-fibre data and compare with the published
    reference values at the documented tolerances."""
    from .inference import _fmt, confidence_intervals, fit_mle, lr_from_fits

    data = glass_fibre_sample()
    ref = GLASS_FIBRE_REFERENCE
    # bge first, as in compare: one batch runs all four ladders
    fits = {m: fit_mle(data, m) for m in ("bge", "be", "ge")}
    w_be = lr_from_fits(fits["be"], fits["bge"])
    w_ge = lr_from_fits(fits["ge"], fits["bge"])

    print("glass-fibre benchmark reproduction (n=63)", file=out)
    print("value                     computed        reference       check", file=out)

    def row(label, value, target, verdict):
        print(f"{label:<25} {_fmt(value):<15} {_fmt(target):<15} {verdict}", file=out)

    tol = GLASS_FIBRE_TOLERANCES
    est = {m: dict(zip(("a", "b", "lambda", "alpha"), fit.params.params_tuple()))
           for m, fit in fits.items()}
    for m, names in (("ge", ("lambda", "alpha")), ("be", ("a", "b", "lambda"))):
        for name in names:
            row(f"{m}.{name}", est[m][name], ref[m][name],
                _check_rel(est[m][name], ref[m][name], tol[m]["rel"]))
        row(f"{m}.loglik", fits[m].loglik, ref[m]["loglik"],
            _check(fits[m].loglik, ref[m]["loglik"], tol[m]["loglik"]))

    ll, t = fits["bge"].loglik, tol["bge"]
    ok = ("pass" if (ll >= t["loglik_floor"] and abs(ll - ref["bge"]["loglik"]) <= t["loglik"])
          else "FAIL")
    row("bge.loglik", ll, ref["bge"]["loglik"], ok)
    for name, value in est["bge"].items():
        row(f"bge.{name}", value, ref["bge"][name], _check_rel(value, ref["bge"][name], t["rel"]))

    t = tol["lr"]
    for key, w in (("be_vs_bge", w_be), ("ge_vs_bge", w_ge)):
        target = ref["lr"][key]
        row(f"lr.{key}", w.statistic, target["statistic"],
            _check(w.statistic, target["statistic"], t["statistic"]))
        pt = target["p_value"]
        verdict = "pass" if pt / t["p_factor"] <= w.p_value <= pt * t["p_factor"] else "FAIL"
        row(f"lr.{key}.p", w.p_value, pt, verdict)

    print("", file=out)
    for m in ("ge", "be", "bge"):
        fit = fits[m]
        note = ""
        if fit.hit_bounds:
            note = ("  [search-box bound active for " + ", ".join(fit.hit_bounds)
                    + ": the likelihood increases along a non-identifiable ridge; "
                      "the reference point is not a stationary point]")
        print(f"# {m}: converged={str(fit.converged).lower()}"
              f" score_norm={fit.score_norm:.3g}{note}", file=out)
        try:
            cis = confidence_intervals(fit)
            for name, (lo, hi) in cis.items():
                label = "lambda" if name == "lam" else name
                print(f"#   ci95({m}.{label}) = [{_fmt(lo)}, {_fmt(hi)}]", file=out)
        except ValueError:
            print(f"#   ci95({m}): covariance unavailable", file=out)
    return EXIT_OK


#: Every flag with its argparse settings; each subcommand takes only its own.
_FLAGS = {
    "model": {"choices": sorted(MODEL_FREE_PARAMS), "default": "bge"},
    "input": {"default": None, "help": "data file, one value per line"},
    "seed": {"type": int, "default": None},
    "n": {"type": int, "default": None},
    "params": {"default": None, "help": "a,b,lambda,alpha"},
    "grid": {"default": "0.01:5:100", "help": "min:max:points"},
    "format": {"choices": ("human", "structured"), "default": "human"},
    "sweep": {"choices": ("a", "b"), "default": None},
}

_SUBCOMMANDS = (
    ("fit", "fit a model to a data file", ("model", "input", "format")),
    ("compare", "fit bge/be/ge and run both LR tests", ("input", "format")),
    ("sample", "draw seeded values", ("params", "n", "seed")),
    ("curve", "emit density/hazard or sweep tables", ("params", "grid", "sweep")),
    ("reproduce", "re-run the embedded glass-fibre benchmark", ()),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="bgedist",
                     description="Beta generalized exponential distribution toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


_COMMANDS = {
    "fit": cmd_fit,
    "compare": cmd_compare,
    "sample": cmd_sample,
    "curve": cmd_curve,
    "reproduce": cmd_reproduce,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
