"""Order-statistic densities, moments and mgfs for BGE samples.

The direct formula (parent pdf/cdf/survival composed with the beta
kernel of ranks) is the normative implementation.  The mixture
expansions rewrite the order-statistic density as a signed combination
of BGE densities with shifted first shape parameter a*(k+i) + sum(m).
The printed form of their coefficients does not reduce correctly in
edge cases; the shifted form used here agrees with the direct formula
(see errata.json at the repository root).  One sum over the total
degree of the multi-index, weighted from powers of the coefficients'
generating function, serves integer and real b alike (``_mixture_sum``).

Moments are expectations over the latent Beta(a, b) variate, summed in
log space by the tanh-sinh rule that the expected information uses
(``distribution._tanh_sinh_log_integral``): halving the step until two
levels agree to 1e-12 relative, and raising ``RuntimeError`` if the
last two still differ by more than 1e-8.  I_V and 1 - I_V on the nodes
come from ``distribution._beta_tail_array``.  No quadrature cut is
placed on the x axis, so ``scipy.integrate`` is not loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .distribution import (_TS_FAIL_RTOL, BGE, _beta_tail_array, _log_latent_transform,
                           _tanh_sinh_log_integral)
from .series import _cancellation_guard, _coefficients, mgf, raw_moment

__all__ = [
    "OrderStatIndex",
    "MixtureBudgetError",
    "order_stat_pdf_direct",
    "order_stat_pdf_mixture",
    "order_stat_moment",
    "order_stat_mgf",
]

class MixtureBudgetError(RuntimeError):
    """Raised when a mixture sum reaches ``per_index_cap`` before its
    degree shells fall below tolerance."""

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


#: A mixture sum whose generating function is cut at the cap stops once
#: two consecutive total-degree shells contribute less than this.  Unlike the series term tolerance it must
#: not be too small, because the coefficient shells decay only
#: polynomially in the degree.
_SHELL_TOL = 1e-9


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


def _mixture_sum(dist: BGE, idx: OrderStatIndex, evaluate, cap: int) -> float:
    """Sum of delta * evaluate(component) over the mixture's multi-indices.

    A multi-index (m_1, ..., m_{k+i-1}) weighs prod c_m / (a + m), with
    c_m = (-1)^m Gamma(b) / (Gamma(b-m) m!), and its component depends
    on it only through d = sum(m): so one component per d, weighted by
    the z^d coefficient of W(z)^(k+i-1), W(z) = sum_{m <= cap} c_m z^m /
    (a + m).  At integer b <= cap + 1, c_m = 0 from m = b on and every
    degree is summed (the paper's finite sum).  Where W is cut at the
    cap, a k stops after two degree shells below ``_SHELL_TOL`` in a row
    and raises ``MixtureBudgetError`` if its degrees run out first.  The
    cancellation guard takes the largest shell magnitude, |W|^(k+i-1)
    times |evaluate|.
    """
    if cap < 1:
        raise ValueError(f"per_index_cap must be >= 1, got {cap}")
    a, b, alpha = dist.a, dist.b, dist.alpha
    i, n = idx.i, idx.n
    coef = _coefficients(b, np.arange(cap + 2.0), 1.0)
    w = np.trim_zeros(coef[:-1] / (a + np.arange(cap + 1.0)), "b")
    total = peak = 0.0
    for k in range(n - i + 1):
        log_k = (math.log(math.comb(n - i, k)) - (k + i) * specfun.log_beta(a, b)
                 - specfun.log_beta(i, n - i + 1))
        power, size = np.ones(1), np.ones(1)
        for _ in range(k + i - 1):
            power, size = np.convolve(power, w), np.convolve(size, np.abs(w))
        capped = coef[-1] != 0.0 and k + i > 1  # W^(k+i-1) is cut at the cap
        small_shells = 0
        for d, (p, s) in enumerate(zip(power.tolist(), size.tolist())):
            a_star = _component_shape(a, alpha, i, k, d)
            delta = math.exp(log_k + specfun.log_beta(a_star, b))
            value = evaluate(BGE(a_star, b, dist.lam, alpha))
            shell = (-1) ** k * p * delta * value
            total += shell
            peak = max(peak, s * delta * abs(value))
            if capped:
                small_shells = small_shells + 1 if abs(shell) < _SHELL_TOL else 0
                if small_shells == 2:
                    break
        else:
            if capped:
                raise MixtureBudgetError(
                    f"mixture per_index_cap={cap} exhausted for k={k} "
                    f"(partial sum {total:.6g})", partial=total, terms=len(power))
    _cancellation_guard(total, peak, f"order-statistic {i}:{n} mixture")
    return total


def order_stat_pdf_mixture(dist: BGE, idx: OrderStatIndex, x: float,
                           per_index_cap: int = 25) -> float:
    """Order-statistic density by the delta-weighted component expansion,
    with the shifted component shapes validated against the direct
    formula.  ``per_index_cap`` bounds each index of the multi-index
    sum; ``MixtureBudgetError`` is raised if the sum has not converged
    within it, ``SeriesConvergenceError`` if its alternating terms cancel
    beyond double precision (as at large b)."""
    if x <= 0.0:
        raise ValueError(f"order_stat_pdf_mixture requires x > 0, got {x}")
    return _mixture_sum(dist, idx, lambda comp: comp.pdf(x), per_index_cap)


def order_stat_moment(dist: BGE, idx: OrderStatIndex, r: int,
                      method: str = "quadrature",
                      per_index_cap: int = 25) -> float:
    """E[X_{i:n}^r] for r in 1..4.

    "quadrature" (default) takes the moment as an expectation over the
    latent variate V ~ Beta(a, b), with X = T(V) = -log(1 - V^(1/alpha))/lam:

        E[X_{i:n}^r] = E[T(V)^r I_V^(i-1) (1 - I_V)^(n-i)] / B(i, n-i+1),

    I_V being the Beta(a, b) cdf.  The expectation is summed in log space
    on the tanh-sinh nodes that ``inference.t_expectation`` uses: the
    step halves, up to 6 times, until two levels agree to 1e-12
    relative, and a last difference above 1e-8 relative raises
    ``RuntimeError``.  "mixture" combines component raw moments with the
    delta weights and exists for expansion fidelity checks; it takes
    ``per_index_cap`` and raises ``MixtureBudgetError`` or
    ``SeriesConvergenceError`` as ``order_stat_pdf_mixture`` does.
    """
    if r not in (1, 2, 3, 4):
        raise ValueError(f"order_stat_moment supports r in 1..4, got {r}")
    if method == "mixture":
        return _mixture_sum(dist, idx, lambda comp: raw_moment(comp, r), per_index_cap)
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
            log_cdf, log_sf = _beta_tail_array(a, b, log_beta_ab, logv, log1mv)
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
                   per_index_cap: int = 25) -> float:
    """Mgf of X_{i:n} at t < lam as a delta-weighted sum of component mgfs
    (the paper's series); ``per_index_cap``, ``MixtureBudgetError`` and
    ``SeriesConvergenceError`` are as in ``order_stat_pdf_mixture``."""
    if not (t < dist.lam):
        raise ValueError(f"order_stat_mgf requires t < lam = {dist.lam}, got t = {t}")
    return _mixture_sum(dist, idx, lambda comp: mgf(comp, t), per_index_cap)
