"""Order-statistic densities, moments and mgfs for BGE samples.

The direct formula (parent pdf/cdf/survival composed with the beta
kernel of ranks) is the normative density.  The mixture expansion
rewrites the order-statistic density as a signed combination of BGE
densities with shifted first shape parameter a*(k+i) + sum(m).  The
printed form of its coefficients does not reduce correctly in edge
cases; the shifted form used here agrees with the direct formula (see
errata.json at the repository root).  One sum over the total degree of
the multi-index, weighted from powers of the coefficients' generating
function, serves integer and real b alike (``_mixture_sum``).

Moments and mgfs are expectations over the latent Beta(a, b) variate,
one row of the tanh-sinh engine that the expected information and
``series.moment_set`` use (``distribution._latent_log_integrals``),
which raises ``NonIntegrableError``, a ``RuntimeError``, where it does
not converge.  No quadrature cut is placed on the x axis, so
``scipy.integrate`` is not loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .distribution import BGE, _latent_log_integrals
from .series import _cancellation_guard, _coefficients, _latent_mgf

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


def order_stat_moment(dist: BGE, idx: OrderStatIndex, r: int) -> float:
    """E[X_{i:n}^r] for r in 1..4, as an expectation over the latent
    variate V ~ Beta(a, b), with X = T(V) = -log(1 - V^(1/alpha))/lam:

        E[X_{i:n}^r] = E[T(V)^r I_V^(i-1) (1 - I_V)^(n-i)] / B(i, n-i+1),

    I_V being the Beta(a, b) cdf: one row of the latent engine that
    ``inference.t_expectation`` uses, whose ``NonIntegrableError`` where
    it does not converge is a ``RuntimeError``.
    """
    if r not in (1, 2, 3, 4):
        raise ValueError(f"order_stat_moment supports r in 1..4, got {r}")
    i, n = idx.i, idx.n
    row = (dist.a - 1.0, dist.b - 1.0, 0, 0, r, i - 1, n - i)
    (log_integral,) = _latent_log_integrals(dist, [row])
    return math.exp(log_integral - r * math.log(dist.lam) - dist.log_beta_ab
                    - specfun.log_beta(i, n - i + 1))


def order_stat_mgf(dist: BGE, idx: OrderStatIndex, t: float) -> float:
    """Mgf of X_{i:n}, finite for t < lam b (n-i+1): the row of ``mgf``
    with I_V^(i-1) (1 - I_V)^(n-i) added, over B(i, n-i+1).  As there,
    ``ValueError`` is raised for t > lam (b (n-i+1) - 0.0054), where the
    rule would drop more than 1e-11 of the mass or the mgf is infinite."""
    return _latent_mgf(dist, t, idx.i, idx.n, "order_stat_mgf")
