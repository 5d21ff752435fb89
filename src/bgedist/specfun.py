"""Special-function kernel.

Everything the rest of the package needs from classical analysis and
does not take straight from ``scipy.special`` lives here: log-beta, the
digamma and trigamma functions, and the chi-square tail (for
likelihood-ratio p-values).  All functions are pure, deterministic and
thread-safe; none touch global state.  The private ``_psi_trigamma``
works elementwise on arrays; the rest take and return floats.

The incomplete beta ratio and its inverses are ``scipy.special``'s,
called by ``distribution`` on whichever side is at most 1/2 and imported
there on first call, so that importing the package stays cheap.  This
module loads no scipy module: ``log_beta``, ``polygamma`` (orders 0 and
1), ``_psi_trigamma`` and ``chi2_sf`` are written here, so the fit, its
covariance and its likelihood-ratio tests load no scipy module either.
Against mpmath, ``scipy.special.betaln`` loses about 1e-10 relative at
b ~ 2e4 where ``log_beta`` holds 3e-14.  The scalar ``digamma`` and
``trigamma`` serve the information matrix, the moment-matched fit start
and ``shannon_entropy``; ``_psi_trigamma`` serves the batched fit
kernel, and so ``score``.  They are the package's only two writings of
psi.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_beta",
    "lgamma_diff",
    "polygamma",
    "digamma",
    "trigamma",
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


# Bernoulli numbers B_2k, k = 1..6, for the asymptotic tails (the
# digamma tail takes B_2k / (2k)).
_BERN2K = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)
#: The (digamma, trigamma) tail coefficients (B_2k / (2k), B_2k), k = 6..1.
_BERN2K_HORNER = np.array([(b2k / (2 * k), b2k) for k, b2k in enumerate(_BERN2K, start=1)][::-1])
_POLY_SHIFT = 10.0


def polygamma(x: float, order: int = 0) -> float:
    """Polygamma function psi^(order)(x) for order 0 (digamma) or 1
    (trigamma).

    Uses the ascending recurrence to shift the argument above 10 and
    evaluates the asymptotic (Bernoulli) series there.  Within about
    1.4e-15 of mpmath, relative to max(|psi^(order)(x)|, 1), across x in
    [1e-3, 1e6].
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


def _psi_trigamma(x):
    """(psi(x), psi'(x)) elementwise over an array of x > 0.

    Both orders share one shift of every element by 10,
    psi(x) = psi(x + 10) - sum_k 1/(x + k) and
    psi'(x) = psi'(x + 10) + sum_k 1/(x + k)^2 over k = 0..9, formed in
    one broadcast, and the Bernoulli tails of ``polygamma`` at x + 10 by
    one Horner loop in 1/(x + 10)^2 over both orders at once.  Within 1e-15
    of mpmath, relative to max(|psi^(m)(x)|, 1), over x in [e^-4.5, 2e4].
    """
    x = np.asarray(x, dtype=float)
    r = 1.0 / (x[..., None] + np.arange(_POLY_SHIFT))
    w = x + _POLY_SHIFT
    inv = 1.0 / w
    inv2 = inv * inv
    # both orders end to end in one flat array: one contiguous loop a step
    inv2_2 = np.concatenate((inv2, inv2), axis=None)
    coef = np.repeat(_BERN2K_HORNER, inv2.size, axis=1)
    tail = coef[0] * inv2_2
    for c in coef[1:]:
        tail = (tail + c) * inv2_2
    tail0, tail1 = tail.reshape((2,) + x.shape)
    psi = np.log(w) - 0.5 * inv - tail0 - r.sum(axis=-1)
    psi1 = inv + 0.5 * inv2 + inv * tail1 + (r * r).sum(axis=-1)
    return psi, psi1


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function P(X > x) for a positive integer
    ``dof``, by the finite sums of Abramowitz & Stegun 26.4.4-5: with
    h = x/2 and nu = 0 for even dof, 1/2 for odd dof,
    P(X > x) = [erfc(sqrt(h)) if nu] + e^-h sum_{i < dof//2} h^(i+nu) / Gamma(i+nu+1).
    """
    if not (dof >= 1 and dof == int(dof)):
        raise ValueError(f"chi2_sf requires a positive integer dof, got {dof}")
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h, nu = 0.5 * x, 0.5 * (int(dof) % 2)
    total = 0.0
    if nu:
        # erfc at the rounded z = sqrt(h), corrected to first order in
        # the exact residual h - z^2 (Veltkamp split): the rounding of z
        # alone costs up to 2h * 2^-53 relative at large h
        z = math.sqrt(h)
        hi = z * 134217729.0
        hi -= hi - z
        lo = z - hi
        resid = (h - hi * hi) - 2.0 * hi * lo - lo * lo
        total = math.erfc(z) - resid * math.exp(-h) / (z * math.sqrt(math.pi))
    term = math.exp(-h) * h ** nu / math.gamma(1.0 + nu)
    for i in range(1, int(dof) // 2 + 1):
        total += term
        term *= h / (i + nu)
    return total
