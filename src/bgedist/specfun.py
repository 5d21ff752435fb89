"""Special-function kernel.

Everything the rest of the package needs from classical analysis lives
here: log-beta, the regularized incomplete beta ratio and its inverse,
the digamma and trigamma functions, and the regularized upper
incomplete gamma (for chi-square tail probabilities).  All functions are pure, deterministic
and thread-safe; none touch global state.  All are scalar except
``log_beta_array``, the elementwise log-beta of the series payloads.

``inc_beta_ratio``, ``inc_beta_inverse``, ``reg_gamma_upper`` and
``chi2_sf`` are thin wrappers over ``scipy.special.betainc``,
``betaincinv`` and ``gammaincc``: they add the domain checks and the
exact endpoints, and import scipy on first call so that importing the
package stays cheap.  ``log_beta`` and ``polygamma`` (orders 0 and 1,
the only ones the library calls) stay hand-written.  Against mpmath,
``scipy.special.betaln`` loses about 1e-10 relative at b ~ 2e4 where
``log_beta`` holds 3e-14.  ``digamma`` and ``trigamma`` serve the
scalar paths (the information matrix, ``score``, the moment-matched
fit start), which load no scipy module through them; the batched fit
kernel takes psi and psi' from ``scipy.special``.  Whether the scalar
paths should do the same is decided by paired CLI timings of the
``scipy.special`` import (ROADMAP item 13).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_beta",
    "log_beta_array",
    "lgamma_diff",
    "inc_beta_ratio",
    "inc_beta_inverse",
    "polygamma",
    "digamma",
    "trigamma",
    "reg_gamma_upper",
    "chi2_sf",
]

_STIRLING = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188, -691.0 / 360360)


def _stirling_tail(x: float) -> float:
    """Correction S(x) in lgamma(x) = (x-1/2)ln x - x + ln(2 pi)/2 + S(x)."""
    inv2 = 1.0 / (x * x)
    s = 0.0
    term = 1.0 / x
    for c in _STIRLING:
        s += c * term
        term *= inv2
    return s


def lgamma_diff(y: float, delta: float) -> float:
    """lgamma(y + delta) - lgamma(y) without cancellation, y, delta > 0.

    For y >= 15 the difference is assembled from the Stirling expansion
    so it stays accurate even when y is enormous and the two lgamma
    values would agree to all stored digits.
    """
    if not (y > 0.0 and delta >= 0.0):
        raise ValueError(f"lgamma_diff requires y > 0, delta >= 0, got ({y}, {delta})")
    if y < 15.0:
        return math.lgamma(y + delta) - math.lgamma(y)
    return ((y - 0.5) * math.log1p(delta / y)
            + delta * math.log(y + delta) - delta
            + _stirling_tail(y + delta) - _stirling_tail(y))


def log_beta(a: float, b: float) -> float:
    """Natural log of the beta function B(a, b), a > 0, b > 0.

    The naive lgamma(a) + lgamma(b) - lgamma(a+b) loses relative
    accuracy by cancellation when one argument is much larger than the
    other; the large-argument lgamma difference is taken through the
    Stirling expansion instead.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_beta requires positive arguments, got ({a}, {b})")
    small, big = (a, b) if a <= b else (b, a)
    if big < 15.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return math.lgamma(small) - lgamma_diff(big, small)


def log_beta_array(a, b) -> np.ndarray:
    """``log_beta`` elementwise over broadcast arrays, with the same
    Stirling difference where the larger argument is at least 15."""
    from scipy.special import gammaln

    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.all(a > 0.0) and np.all(b > 0.0)):
        raise ValueError("log_beta_array requires positive arguments")
    small, big = np.minimum(a, b), np.maximum(a, b)
    direct = gammaln(a) + gammaln(b) - gammaln(a + b)
    y = np.maximum(big, 15.0)  # the Stirling form is only taken for big >= 15
    with np.errstate(over="ignore"):  # 1/(y*y) is 0 once y*y overflows
        stirling = gammaln(small) - ((y - 0.5) * np.log1p(small / y)
                                     + small * np.log(y + small) - small
                                     + _stirling_tail(y + small) - _stirling_tail(y))
    return np.where(big < 15.0, direct, stirling)


def inc_beta_ratio(y: float, a: float, b: float) -> float:
    """Regularized incomplete beta ratio I_y(a, b).

    Parameters
    ----------
    y : float
        Evaluation point in [0, 1].
    a, b : float
        Positive shape parameters.

    Returns
    -------
    float
        I_y(a, b), the cdf of a Beta(a, b) variate at y.
    """
    from scipy.special import betainc

    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"inc_beta_ratio requires positive shapes, got ({a}, {b})")
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"inc_beta_ratio requires y in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    return float(betainc(a, b, y))


def inc_beta_inverse(p: float, a: float, b: float) -> float:
    """Inverse of ``inc_beta_ratio`` in its first argument: the y with
    I_y(a, b) = p.  Returns 0.0 where that y underflows."""
    from scipy.special import betaincinv

    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"inc_beta_inverse requires positive shapes, got ({a}, {b})")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"inc_beta_inverse requires p in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return float(betaincinv(a, b, p))


# Bernoulli numbers B_2k, k = 1..6, for the asymptotic tails (the
# digamma tail takes B_2k / (2k)).
_BERN2K = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)
_POLY_SHIFT = 10.0


def polygamma(x: float, order: int = 0) -> float:
    """Polygamma function psi^(order)(x) for order 0 (digamma) or 1
    (trigamma).

    Uses the ascending recurrence to shift the argument above 10 and
    evaluates the asymptotic (Bernoulli) series there.  Relative error
    is ~1e-12 across x in [1e-3, 1e6].
    """
    if order not in (0, 1):
        raise ValueError(f"polygamma order must be in {{0, 1}}, got {order}")
    if not (x > 0.0):
        raise ValueError(f"polygamma requires x > 0, got {x}")

    acc = 0.0
    while x < _POLY_SHIFT:
        # psi(x) = psi(x+1) - 1/x and psi'(x) = psi'(x+1) + 1/x^2
        if order == 0:
            acc -= 1.0 / x
        else:
            acc += 1.0 / x ** 2
        x += 1.0

    inv = 1.0 / x
    inv2 = inv * inv
    if order == 0:
        s = math.log(x) - 0.5 * inv
        term = inv2
        for k, b2k in enumerate(_BERN2K, start=1):
            s -= b2k / (2 * k) * term
            term *= inv2
    else:
        s = inv + 0.5 * inv2
        term = inv2 * inv
        for b2k in _BERN2K:
            s += b2k * term
            term *= inv2
    return acc + s


def digamma(x: float) -> float:
    """psi(x), the logarithmic derivative of the gamma function."""
    return polygamma(x, 0)


def trigamma(x: float) -> float:
    """psi'(x)."""
    return polygamma(x, 1)


def reg_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x)/Gamma(s)."""
    from scipy.special import gammaincc

    if not (s > 0.0):
        raise ValueError(f"reg_gamma_upper requires s > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"reg_gamma_upper requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    return float(gammaincc(s, x))


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function P(X > x) with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError(f"chi2_sf requires dof >= 1, got {dof}")
    if x <= 0.0:
        return 1.0
    return reg_gamma_upper(0.5 * dof, 0.5 * x)
