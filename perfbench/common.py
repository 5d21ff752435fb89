"""Seeded inputs, failure accounting and summary statistics.

Imported by the orchestrator, the in-process worker and the CLI
launcher, so it imports nothing from bgedist.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

#: Half-width, in log space, of the documented parameter box [e^-4.5, e^4.5]^4.
LOG_BOX = 4.5

#: Fit-study anchors: glass-fibre GE fit, the published BGE point (a
#: ridge case; b lies just outside the fitting box) and an interior point.
FIT_ANCHORS = (
    (1.0, 1.0, 2.61, 31.3),
    (0.4125, 93.4655, 0.92271, 22.6124),
    (2.0, 1.5, 1.0, 2.0),
)

#: Failure causes the seed is known to produce.  Anything else is a new
#: kind of failure and makes the run report ``correct: false``.
KNOWN_DEFECTS = frozenset({
    "distribution.sample.ValueError",         # draws underflow to 0
    "distribution.quantile.range",            # quantile returns 0.0 or inf
    "distribution.quantile.pspace",           # far-tail quantiles off in p at box corners
    "distribution.pdf.OverflowError",
    "distribution.hazard.OverflowError",      # survival underflows to 0
    "distribution.cdf_survival.sum",          # survival goes through 1 - G(x), which rounds
                                              # to 1 while I_G(a, b) is still large at small a
    "order_stats.order_stat_moment.mean_mismatch",  # series and quadrature means differ
                                                    # by up to ~1e-4 at tiny b
    "inference.fit_mle.nesting",              # the BGE start ladder can end below a nested fit
    "inference.lr_from_fits.RuntimeError",    # ... whose negative LR statistic is refused
    "inference.confidence_intervals.ValueError",  # covariance not positive definite
    "series.moment_set.SeriesConvergenceError",
    "series.shannon_entropy.SeriesConvergenceError",
})


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream...) key."""
    return np.random.default_rng([int(seed), *map(int, stream)])


def bge_draws(params, n: int, rng: np.random.Generator) -> np.ndarray:
    """n BGE variates by the inverse transform x = -log(1 - V^(1/alpha))/lam
    of Beta(a, b) variates V, independent of ``BGE.sample``.

    V = X / (X + Y) with numpy gamma variates X ~ Gamma(a), Y ~ Gamma(b),
    so that both V and 1 - V keep full precision: at small b a Beta
    variate near 1 would otherwise round to exactly 1 and x to inf.
    """
    a, b, lam, alpha = params
    gx = rng.standard_gamma(a, size=n)
    gy = rng.standard_gamma(b, size=n)
    s = gx + gy
    with np.errstate(divide="ignore", invalid="ignore"):
        # t = log V^(1/alpha), from whichever of V and 1 - V is small
        t = np.where(gx < gy, np.log(gx / s), np.log1p(-gy / s)) / alpha
        log1mu = np.where(t < -math.log(2.0), np.log1p(-np.exp(t)), np.log(-np.expm1(t)))
    x = -log1mu / lam
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ValueError(f"input generation produced non-positive or infinite draws at {params}")
    return x


def latin_unit(rng: np.random.Generator, k: int, d: int = 4) -> np.ndarray:
    """k points in [0, 1)^d, Latin-hypercube stratified: each coordinate
    visits each of its k equal strata exactly once, in random order."""
    strata = np.stack([rng.permutation(k) for _ in range(d)], axis=1)
    return (strata + rng.random((k, d))) / k


def log_box(u: np.ndarray, half_width: float) -> np.ndarray:
    """Map [0, 1)^4 log-uniformly onto [e^-h, e^h]^4."""
    return np.exp(half_width * (2.0 * u - 1.0))


@dataclass
class Ledger:
    """Ops attempted, failed, and failed ops by cause (layer.what.kind);
    an op counts once per distinct cause."""

    attempted: int = 0
    failed: int = 0
    causes: Counter = field(default_factory=Counter)

    def record(self, causes) -> None:
        self.attempted += 1
        if causes:
            self.failed += 1
            self.causes.update(set(causes))

    @classmethod
    def from_dict(cls, d: dict) -> "Ledger":
        return cls(d["attempted"], d["failed"], Counter(d["causes"]))

    def unexpected(self) -> list[str]:
        return sorted(c for c in self.causes if c not in KNOWN_DEFECTS)

    def by_layer(self) -> Counter:
        out = Counter()
        for cause, n in self.causes.items():
            out[cause.split(".", 1)[0]] += n
        return out

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "causes": dict(sorted(self.causes.items()))}


#: Fewest ops a run needs for its tail to be a tail: the order statistic
#: with 10 ops beyond it is then at the 75th percentile or higher.
MIN_TAIL_OPS = 40


def latency_summary(latencies) -> dict:
    """Median; the tail, the highest order statistic with at least 10
    samples beyond it; its percentile and the count."""
    xs = sorted(latencies)
    n = len(xs)
    if n < MIN_TAIL_OPS:
        raise ValueError(f"{n} op latencies, fewer than the {MIN_TAIL_OPS} a tail needs")
    k = n - 11
    return {"p50": float(np.median(xs)), "tail": float(xs[k]),
            "tail_percentile": round(100.0 * (k + 1) / n, 2),
            "beyond_tail": n - 1 - k, "n": n}


def median(xs) -> float:
    xs = list(xs)
    if not xs:
        raise ValueError("median of nothing")
    return float(np.median(xs))
