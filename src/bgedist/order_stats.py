"""Order-statistic densities, moments and mgfs for BGE samples.

The direct formula (parent pdf/cdf/survival composed with the beta
kernel of ranks) is the normative implementation.  The mixture
expansions rewrite the order-statistic density as a signed combination
of BGE densities with shifted first shape parameter a*(k+i) + sum(m).
The printed form of their coefficients does not reduce correctly in
edge cases; the shifted form used here agrees with the direct formula
(see errata.json at the repository root).

Moments are expectations over the latent Beta(a, b) variate, summed in
log space by the tanh-sinh rule that the expected information uses
(``distribution._tanh_sinh_log_integral``): halving the step until two
levels agree to 1e-12 relative, and raising ``RuntimeError`` if the
last two still differ by more than 1e-8.  I_V and 1 - I_V on the nodes
come from ``distribution._log_beta_cdf_pair``.  No quadrature cut is
placed on the x axis, so ``scipy.integrate`` is not loaded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import specfun
from .distribution import (_TS_FAIL_RTOL, BGE, _log_beta_cdf_pair, _log_latent_transform,
                           _tanh_sinh_log_integral)
from .series import mgf, raw_moment

__all__ = [
    "OrderStatIndex",
    "MixtureTermBudget",
    "MixtureBudgetError",
    "order_stat_pdf_direct",
    "order_stat_pdf_mixture",
    "order_stat_moment",
    "order_stat_mgf",
]

class MixtureBudgetError(RuntimeError):
    """Raised when the multi-index truncation budget is exhausted."""

    def __init__(self, message: str, partial: float, terms: int):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


@dataclass(frozen=True)
class OrderStatIndex:
    """Rank i (1-based) within a sample of size n."""

    i: int
    n: int

    def __post_init__(self):
        if not (1 <= self.i <= self.n):
            raise ValueError(f"order statistic requires 1 <= i <= n, got i={self.i}, n={self.n}")


@dataclass(frozen=True)
class MixtureTermBudget:
    """Truncation caps for the real-b multi-index mixture sums."""

    per_index_cap: int = 25
    total_term_cap: int = 200_000

    def __post_init__(self):
        if self.per_index_cap < 1 or self.total_term_cap < 1:
            raise ValueError("mixture budget caps must be >= 1")


DEFAULT_BUDGET = MixtureTermBudget()

#: The real-b enumeration stops once two consecutive total-degree shells
#: contribute less than this.  Unlike the series term tolerance it must
#: not be too small, because the coefficient shells decay only
#: polynomially in the degree.
_SHELL_TOL = 1e-9


def _integer_b(b: float) -> int | None:
    """b rounded to an integer if within 1e-9 of a positive one, else
    None; such b takes the finite integer-b mixture sums."""
    r = round(b)
    if r >= 1 and abs(b - r) <= 1e-9:
        return int(r)
    return None


def order_stat_pdf_direct(dist: BGE, idx: OrderStatIndex, x: float) -> float:
    """Density of the i-th of n order statistics at x > 0.

    f_{i:n}(x) = f(x) F(x)^(i-1) S(x)^(n-i) / B(i, n-i+1), assembled in
    log space from the parent's stable pieces.
    """
    if x <= 0.0:
        raise ValueError(f"order_stat_pdf_direct requires x > 0, got {x}")
    i, n = idx.i, idx.n
    F = dist.cdf(x)
    S = dist.survival(x)
    if (F == 0.0 and i > 1) or (S == 0.0 and i < n):
        return 0.0
    log_terms = dist.logpdf(x) - specfun.log_beta(i, n - i + 1)
    if i > 1:
        log_terms += (i - 1) * math.log(F)
    if i < n:
        log_terms += (n - i) * math.log(S)
    return math.exp(log_terms)


def _component_shape(a: float, alpha: float, i: int, k: int, msum: int) -> float:
    """First shape a*(k+i) + sum(m) of a mixture component; the printed
    alpha*(a*(i+1) + sum(m)) fails the i = n = 1 reduction.  alpha is
    unused here: it is in the signature so that the reconciliation tests
    can swap the printed reading in (see errata.json)."""
    return a * (k + i) + msum


def _log_delta_common(dist: BGE, idx: OrderStatIndex, k: int, a_star: float) -> float:
    i, n = idx.i, idx.n
    return (math.log(math.comb(n - i, k))
            + specfun.log_beta(a_star, dist.b)
            - (k + i) * specfun.log_beta(dist.a, dist.b)
            - specfun.log_beta(i, n - i + 1))


def _mixture_terms_integer(dist: BGE, idx: OrderStatIndex, b_int: int, evaluate):
    """Yield delta * evaluate(component) over the finite integer-b sums."""
    a, alpha = dist.a, dist.alpha
    i, n = idx.i, idx.n
    for k in range(n - i + 1):
        length = k + i - 1
        for tup in itertools.product(range(b_int), repeat=length):
            msum = sum(tup)
            a_star = _component_shape(a, alpha, i, k, msum)
            logd = _log_delta_common(dist, idx, k, a_star)
            for m in tup:
                logd += math.log(math.comb(b_int - 1, m)) - math.log(a + m)
            sign = 1.0 if (k + msum) % 2 == 0 else -1.0
            comp = BGE(a_star, float(b_int), dist.lam, dist.alpha)
            yield sign * math.exp(logd) * evaluate(comp)


def _compositions(total: int, length: int, cap: int):
    """All tuples of `length` ints in [0, cap] summing to `total`."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for head in range(min(total, cap) + 1):
        for rest in _compositions(total - head, length - 1, cap):
            yield (head,) + rest


def _mixture_sum_real(dist: BGE, idx: OrderStatIndex, budget: MixtureTermBudget,
                      evaluate) -> float:
    """Real non-integer b: enumerate multi-indices by total degree."""
    a, b, alpha = dist.a, dist.b, dist.alpha
    i, n = idx.i, idx.n
    total = 0.0
    terms_used = 0
    for k in range(n - i + 1):
        length = k + i - 1
        part = 0.0
        small_shells = 0
        done = False
        for degree in range(length * budget.per_index_cap + 1):
            shell = 0.0
            for tup in _compositions(degree, length, budget.per_index_cap):
                msum = degree
                a_star = _component_shape(a, alpha, i, k, msum)
                logd = _log_delta_common(dist, idx, k, a_star) + (k + i - 1) * math.lgamma(b)
                sign = 1.0 if (k + msum) % 2 == 0 else -1.0
                for m in tup:
                    logd -= math.lgamma(b - m) + math.lgamma(m + 1) + math.log(a + m)
                    if b - m < 0:
                        sign *= 1.0 if math.floor(b - m) % 2 == 0 else -1.0
                comp = BGE(a_star, b, dist.lam, dist.alpha)
                shell += sign * math.exp(logd) * evaluate(comp)
                terms_used += 1
                if terms_used > budget.total_term_cap:
                    raise MixtureBudgetError(
                        f"mixture total_term_cap={budget.total_term_cap} exhausted "
                        f"(partial sum {total + part + shell:.6g})",
                        partial=total + part + shell, terms=terms_used)
            part += shell
            if length == 0:
                done = True
                break
            if abs(shell) < _SHELL_TOL:
                small_shells += 1
                if small_shells >= 2:
                    done = True
                    break
            else:
                small_shells = 0
        if not done and length > 0:
            raise MixtureBudgetError(
                f"mixture per_index_cap={budget.per_index_cap} exhausted for k={k} "
                f"(partial sum {total + part:.6g})",
                partial=total + part, terms=terms_used)
        total += part
    return total


def _mixture_value(dist: BGE, idx: OrderStatIndex, evaluate,
                   budget: MixtureTermBudget) -> float:
    b_int = _integer_b(dist.b)
    if b_int is not None:
        return math.fsum(_mixture_terms_integer(dist, idx, b_int, evaluate))
    return _mixture_sum_real(dist, idx, budget, evaluate)


def order_stat_pdf_mixture(dist: BGE, idx: OrderStatIndex, x: float,
                           budget: MixtureTermBudget = DEFAULT_BUDGET) -> float:
    """Order-statistic density by the delta-weighted component expansion,
    with the shifted component shapes validated against the direct
    formula."""
    if x <= 0.0:
        raise ValueError(f"order_stat_pdf_mixture requires x > 0, got {x}")
    return _mixture_value(dist, idx, lambda comp: comp.pdf(x), budget)


def order_stat_moment(dist: BGE, idx: OrderStatIndex, r: int,
                      method: str = "quadrature",
                      budget: MixtureTermBudget = DEFAULT_BUDGET) -> float:
    """E[X_{i:n}^r] for r in 1..4.

    "quadrature" (default) takes the moment as an expectation over the
    latent variate V ~ Beta(a, b), with X = T(V) = -log(1 - V^(1/alpha))/lam:

        E[X_{i:n}^r] = E[T(V)^r I_V^(i-1) (1 - I_V)^(n-i)] / B(i, n-i+1),

    I_V being the Beta(a, b) cdf.  The expectation is summed in log space
    on the tanh-sinh nodes that ``inference.t_expectation`` uses: the
    step halves, up to 6 times, until two levels agree to 1e-12
    relative, and a last difference above 1e-8 relative raises
    ``RuntimeError``.  "mixture" combines component raw moments with the
    delta weights and exists for expansion fidelity checks.
    """
    if r not in (1, 2, 3, 4):
        raise ValueError(f"order_stat_moment supports r in 1..4, got {r}")
    if method == "mixture":
        return _mixture_value(dist, idx, lambda comp: raw_moment(comp, r), budget)
    if method != "quadrature":
        raise ValueError(f"method must be 'quadrature' or 'mixture', got {method!r}")
    a, b, alpha = dist.a, dist.b, dist.alpha
    i, n = idx.i, idx.n
    log_beta_ab = dist.log_beta_ab

    def log_terms(nodes):
        logv, log1mv, loglogv, logw = nodes
        _, log_lam_x = _log_latent_transform(logv, loglogv, alpha)
        lterm = logw + (a - 1.0) * logv + (b - 1.0) * log1mv + r * log_lam_x
        if n > 1:
            log_cdf, log_sf = _log_beta_cdf_pair(a, b, log_beta_ab, logv, log1mv)
            if i > 1:
                lterm += (i - 1) * log_cdf
            if i < n:
                lterm += (n - i) * log_sf
        return lterm

    (log_integral,), rel = _tanh_sinh_log_integral(log_terms)
    if not rel <= _TS_FAIL_RTOL:
        raise RuntimeError(
            f"E[X_{{{i}:{n}}}^{r}]: the tanh-sinh rule did not converge for {dist} "
            f"(last two levels differ by {rel:.2g} relative)")
    return math.exp(log_integral - r * math.log(dist.lam) - log_beta_ab
                    - specfun.log_beta(i, n - i + 1))


def order_stat_mgf(dist: BGE, idx: OrderStatIndex, t: float,
                   budget: MixtureTermBudget = DEFAULT_BUDGET) -> float:
    """Mgf of X_{i:n} at t < lam as a delta-weighted sum of component mgfs."""
    if not (t < dist.lam):
        raise ValueError(f"order_stat_mgf requires t < lam = {dist.lam}, got t = {t}")
    return _mixture_value(dist, idx, lambda comp: mgf(comp, t), budget)
