"""Series expansions: cdf and density mixtures, mgf, moments, entropy.

The paper writes each series twice, as a finite binomial sum for
integer ``b`` and an infinite series for real ``b``; here one engine sums
both.  It takes the signed coefficients (-1)^j Gamma(b) / (Gamma(b-j) j!)
from their ratio recurrence c_j = c_{j-1} (j - b) / j, which carries
less rounding into the alternating sums than differences of ``lgamma``
values do, and which at integer b gives (-1)^j C(b-1, j), exactly 0
from j = b on.  Terms are evaluated in numpy blocks of the summation
index, and a sum stops on the fixed truncation constants ``_TERM_TOL``
and ``_MAX_TERMS``; ``scipy.special`` is imported by the functions that
use it, so importing the package does not load it.

``raw_moment`` is the paper's moment series.  ``moment_set`` (and so
``skewness_kurtosis``) and ``shannon_entropy`` instead take E[X^r] as an
expectation over the latent Beta(a, b) variate, one row per r of the
tanh-sinh engine that ``order_stats.order_stat_moment`` and the
expected information use (``distribution._latent_log_integrals``): the
series is off by up to 1e-2 at b < 0.03 and cannot be evaluated in
doubles at large b, while the rule is accurate to about 1e-14 at every
point checked, the box corners included, and loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from .distribution import BGE, NonIntegrableError, _latent_log_integrals, log1mexp

__all__ = [
    "SeriesEval",
    "SeriesConvergenceError",
    "MomentSet",
    "cdf_series",
    "closed_form_cdf_integer",
    "pdf_mixture",
    "mgf",
    "raw_moment",
    "moment_set",
    "skewness_kurtosis",
    "shannon_entropy",
    "ge_raw_moment",
]


class SeriesConvergenceError(RuntimeError):
    """Raised when a series hits its term cap before meeting tolerance, or,
    re-raised from the latent engine's ``NonIntegrableError``, when the
    tanh-sinh rule of ``moment_set`` or ``shannon_entropy`` does not
    converge (then ``partial`` is nan and ``terms`` 0)."""

    def __init__(self, message: str, partial: float, terms: int):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


class SeriesEval(NamedTuple):
    value: float
    error_bound: float
    terms: int


#: A series stops once three consecutive terms fall below _TERM_TOL in
#: absolute value (the coefficients are non-monotone while j is below b,
#: so one small term is not evidence of convergence), and raises
#: ``SeriesConvergenceError`` if it has not stopped within _MAX_TERMS.
_TERM_TOL = 1e-12
_MAX_TERMS = 100_000
#: Terms are computed in blocks of j that double in size from
#: _BLOCK_MIN up to _BLOCK_MAX, so a fast series pays for a small block.
_BLOCK_MIN = 64
_BLOCK_MAX = 4096
#: Terms carried from one block to the next for the exit tests.
_HISTORY = 8
_LN2 = math.log(2.0)


def _cancellation_guard(total: float, peak: float, what: str) -> None:
    """The alternating phase of these sums peaks at ~2^b, so in doubles
    the result carries ~peak*eps of noise; refuse to return a value
    with fewer than ~6 significant digits."""
    if peak > 0.0 and peak * 2e-16 >= 1e-6 * abs(total):
        raise SeriesConvergenceError(
            f"{what}: catastrophic cancellation (peak term {peak:.3g} vs sum "
            f"{total:.3g}); the expansion is not evaluable in double precision "
            f"at these parameters", partial=total, terms=0)


def _coefficients(b: float, j: np.ndarray, before: float) -> np.ndarray:
    """(-1)^j Gamma(b) / (Gamma(b-j) j!) over a block of consecutive j, by
    c_j = c_{j-1} (j - b) / j from ``before`` = c_{j-1} of the block's
    first j (1.0 for the block that starts at j = 0, where c_0 = 1).
    For integer b this is (-1)^j C(b-1, j)."""
    ratio = (j - b) / np.maximum(j, 1.0)
    ratio[j == 0] = 1.0
    return np.cumprod(np.concatenate(([before], ratio)))[1:]


def _scaled_terms(coef: np.ndarray, log_scale: float, lp: np.ndarray) -> np.ndarray:
    """coef * exp(log_scale + lp), with exp(log_scale) applied as a power
    of two so that its rounding is common to all terms and is not
    amplified by cancellation; inf where a term overflows."""
    e2 = round(log_scale / _LN2)
    with np.errstate(over="ignore"):
        return np.ldexp(coef * np.exp((log_scale - e2 * _LN2) + lp), e2)


def _sum_series(b: float,
                log_payload: Callable[[np.ndarray], np.ndarray],
                log_scale: float,
                what: str) -> SeriesEval:
    """Sum_{j>=0} c_j payload(j) exp(log_scale), c_j = (-1)^j Gamma(b) /
    (Gamma(b-j) j!), for integer and real b alike.

    ``log_payload`` maps an array of j (real values accepted) to the
    logs of the (positive) payloads, shaped like j, -inf for a vanishing
    term; ``what`` names the series in error messages.

    Terms alternate against the sign of 1/Gamma(b-j); once j exceeds b
    the sign is constant, and at integer b every term from j = b on is
    exactly 0, so the sum is the paper's finite binomial sum.  Terms are
    computed in blocks of j whose size doubles from ``_BLOCK_MIN`` to
    ``_BLOCK_MAX``.  Two exits:

    * three consecutive terms below ``_TERM_TOL`` past j = b + 2 (fast
      geometric decay, and every integer-b sum);
    * once the tail is one-signed and locally flat, the remainder is a
      smooth power-decay sequence whose sum is taken by the midpoint
      (Euler-Maclaurin) integral of the continuous term extension
      |term(x)| = exp(log_scale) Gamma(b) payload(x) Gamma(x+1-b)
      |sin(pi b)| / (pi Gamma(x+1)); this handles the slowly converging
      small-b case.
    """
    log_sin = math.log(abs(math.sin(math.pi * b))) - math.log(math.pi)
    j_min = min(int(math.ceil(b)) + 3, _MAX_TERMS)
    h = _HISTORY
    # the running sum and peak, and the last h magnitudes, signs and
    # sub-tolerance flags carried into the next block
    coef_before, total, peak = 1.0, 0.0, 0.0
    mags = np.full(h, np.nan)
    signs = np.zeros(h)
    small = np.zeros(h, dtype=bool)

    def tail_sum(j: int) -> float:
        """Midpoint integral of the continuous term extension past j."""
        import warnings

        from scipy.integrate import IntegrationWarning, quad

        def cont_mag(x: float) -> float:
            lp = float(log_payload(x))
            if lp == -math.inf:
                return 0.0
            # lgamma(x+1-b) - lgamma(x+1) via the stable difference: the
            # direct subtraction is pure roundoff once x is huge
            lmag = (log_scale + math.lgamma(b) + lp + log_sin
                    - specfun.lgamma_diff(x + 1.0 - b, b))
            return math.exp(lmag) if lmag < 700.0 else math.inf

        x0 = j + 0.5

        def tail_integrand(w: float) -> float:
            # log substitution x = x0 e^w compresses both the
            # polynomial and slow-geometric tail scales
            if w > 600.0:
                return 0.0
            x = x0 * math.exp(w)
            return cont_mag(x) * x

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            tail, _ = quad(tail_integrand, 0.0, math.inf,
                           epsabs=_TERM_TOL, epsrel=1e-9, limit=200)
        return tail

    j0, size = 0, _BLOCK_MIN
    while j0 < _MAX_TERMS:
        n = min(size, _MAX_TERMS - j0)
        j = np.arange(j0, j0 + n, dtype=float)
        coef = _coefficients(b, j, coef_before)
        term = _scaled_terms(coef, log_scale, log_payload(j))
        run = np.cumsum(np.concatenate(([total], term)))[1:]
        mag = np.abs(term)
        run_peak = np.maximum.accumulate(np.concatenate(([peak], mag)))[1:]
        # entry h + i of the extended arrays is term j0 + i
        m_ext = np.concatenate((mags, mag))
        s_ext = np.concatenate((signs, np.sign(term)))
        k_ext = np.concatenate((small, mag < _TERM_TOL))
        s0, s1, s2 = s_ext[h - 2:-2], s_ext[h - 1:-1], s_ext[h:]
        exit_small = k_ext[h - 2:-2] & k_ext[h - 1:-1] & k_ext[h:] & (j + 1 >= j_min)
        m8 = m_ext[:n]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d = np.log(m8 / mag) / 8.0
            exit_flat = (((j >= 128) & (j % 32 == 0) & (j > b + 10))
                         & (s0 == s1) & (s1 == s2) & (s2 != 0.0) & (m8 > mag) & (mag > 0.0)
                         & (d < 0.05)
                         & (d * mag / 8.0 < np.maximum(50.0 * _TERM_TOL,
                                                       1e-10 * np.abs(run))))
        exits = exit_small | exit_flat
        stop = int(np.argmax(exits)) if exits.any() else n
        if np.isinf(term[:stop + 1]).any():
            raise OverflowError("math range error")
        if stop < n:
            i, jj = stop, j0 + stop
            value, peak_i = float(run[i]), float(run_peak[i])
            if exit_small[i]:
                _cancellation_guard(value, peak_i, what)
                m0, m1, m2 = (float(v) for v in m_ext[h + i - 2:h + i + 1])
                alternating = (s0[i] * s1[i] < 0 and s1[i] * s2[i] < 0 and m0 >= m1 >= m2)
                bound = m2 if alternating else m0 + m1 + m2
                # cancellation against the peak term caps the
                # achievable accuracy in doubles regardless of truncation
                return SeriesEval(value, bound + peak_i * 1e-15 + _TERM_TOL, jj + 1)
            # midpoint-rule remainder for the one-signed tail is
            # |g'(X0)|/24 ~ d * t_j / 24 with d the local log-slope
            mj = float(mag[i])
            est_err = math.log(float(m8[i]) / mj) / 8.0 * mj / 8.0
            tail = tail_sum(jj)
            value += float(s2[i]) * tail
            _cancellation_guard(value, peak_i, what)
            return SeriesEval(value, est_err + 1e-9 * tail + peak_i * 1e-15 + _TERM_TOL,
                              jj + 1)
        coef_before, total, peak = coef[-1], run[-1], run_peak[-1]
        mags, signs, small = m_ext[-h:], s_ext[-h:], k_ext[-h:]
        j0 += n
        size = min(2 * size, _BLOCK_MAX)
    raise SeriesConvergenceError(
        f"{what}: series did not meet term_tol={_TERM_TOL} "
        f"within {_MAX_TERMS} terms", partial=float(total), terms=_MAX_TERMS)


def cdf_series(dist: BGE, x: float, full_output: bool = False):
    """Distribution function by its expansion into weighted GE cdfs.

    One series for integer and real b, finite at integer b.  Returns
    the truncated sum; with ``full_output=True`` returns a
    ``SeriesEval`` carrying the truncation-error bound and term count.
    """
    if x < 0.0:
        raise ValueError(f"cdf_series requires x >= 0, got {x}")
    a, b, alpha = dist.a, dist.b, dist.alpha
    if x == 0.0:
        out = SeriesEval(0.0, 0.0, 0)
        return out if full_output else 0.0
    logu = log1mexp(dist.lam * x)

    def payload(j: np.ndarray) -> np.ndarray:
        return alpha * (a + j) * logu - np.log(a + j)

    res = _sum_series(b, payload, -specfun.log_beta(a, b), "cdf_series")
    value = min(max(res.value, 0.0), 1.0)
    res = SeriesEval(value, res.error_bound, res.terms)
    return res if full_output else res.value


def closed_form_cdf_integer(dist: BGE, x: float, which: str) -> float:
    """Finite closed forms of the cdf for integer a or integer b.

    ``which`` selects the branch: "integer_a" requires a to be a
    positive integer, "integer_b" requires b to be one.
    """
    if which not in ("integer_a", "integer_b"):
        raise ValueError(f"which must be 'integer_a' or 'integer_b', got {which!r}")
    if x <= 0.0:
        return 0.0
    a, b, alpha = dist.a, dist.b, dist.alpha
    logu = log1mexp(dist.lam * x)
    log1mua = log1mexp(-alpha * logu)

    if which == "integer_a":
        n = round(a)
        if n < 1 or abs(a - n) > 1e-9:
            raise ValueError(f"integer_a form requires integral a, got {a}")
        # 1 - (1-u^alpha)^b / Gamma(b) * sum Gamma(b+j)/j! u^(alpha j)
        logs = [math.lgamma(b + j) - math.lgamma(j + 1) + alpha * j * logu
                for j in range(n)]
        lmax = max(logs)
        s = sum(math.exp(l - lmax) for l in logs)
        return 1.0 - math.exp(b * log1mua - math.lgamma(b) + lmax + math.log(s))

    n = round(b)
    if n < 1 or abs(b - n) > 1e-9:
        raise ValueError(f"integer_b form requires integral b, got {b}")
    # u^(a alpha) / Gamma(a) * sum Gamma(a+j)/j! (1-u^alpha)^j
    logs = [math.lgamma(a + j) - math.lgamma(j + 1) + j * log1mua for j in range(n)]
    lmax = max(logs)
    s = sum(math.exp(l - lmax) for l in logs)
    return math.exp(a * alpha * logu - math.lgamma(a) + lmax + math.log(s))


def pdf_mixture(dist: BGE, x: float, full_output: bool = False):
    """Density through the expansion of (1-u^alpha)^(b-1) in powers of u^alpha."""
    if x <= 0.0:
        raise ValueError(f"pdf_mixture requires x > 0, got {x}")
    a, b, lam, alpha = dist.a, dist.b, dist.lam, dist.alpha
    logu = log1mexp(lam * x)
    base = (math.log(alpha) + math.log(lam) - specfun.log_beta(a, b)
            - lam * x + (a * alpha - 1.0) * logu)

    def payload(j: np.ndarray) -> np.ndarray:
        return alpha * j * logu

    res = _sum_series(b, payload, base, "pdf_mixture")
    value = max(res.value, 0.0)
    res = SeriesEval(value, res.error_bound, res.terms)
    return res if full_output else res.value


def mgf(dist: BGE, t: float, full_output: bool = False):
    """Moment generating function M(t) for t < lam.

    Expands into beta-function terms B(1 - t/lam, alpha*(a+j)).  At
    non-integer b the series converges only while t/lam < b; outside
    that region (and whenever the cap is reached) a
    ``SeriesConvergenceError`` is raised.
    """
    a, b, lam, alpha = dist.a, dist.b, dist.lam, dist.alpha
    if not (t < lam):
        raise ValueError(f"mgf requires t < lam = {lam}, got t = {t}")
    p = 1.0 - t / lam

    def payload(j: np.ndarray) -> np.ndarray:
        return specfun.log_beta_array(p, alpha * (a + j))

    res = _sum_series(b, payload, math.log(alpha) - specfun.log_beta(a, b), "mgf")
    return res if full_output else res.value


# -- moments -------------------------------------------------------------------


#: psi(1) = -Euler's gamma and zeta(2), zeta(3), zeta(4): the polygamma
#: values at 1 that every GE moment is taken against.
_EULER_GAMMA = 0.5772156649015329
_ZETA2 = math.pi ** 2 / 6.0
_ZETA3 = 1.2020569031595942
_ZETA4 = math.pi ** 4 / 90.0


def _ge_moment_rows(theta) -> np.ndarray:
    """Raw moments r = 1..4 of unit-rate GE(theta) components, row r-1 for r.

    Built from polygamma differences at theta+1 and 1, with
    psi^(m)(x) = (-1)^(m+1) m! zeta(m+1, x) (Abramowitz & Stegun 6.4.10);
    these are the per-term quantities entering the moment series.
    """
    from scipy.special import psi, zeta

    x = np.asarray(theta, dtype=float) + 1.0
    c = psi(x) + _EULER_GAMMA              # psi(theta+1) - psi(1)
    p = _ZETA2 - zeta(2.0, x)              # psi'(1) - psi'(theta+1)
    q = 2.0 * (_ZETA3 - zeta(3.0, x))      # psi''(theta+1) - psi''(1)
    rr = 6.0 * (_ZETA4 - zeta(4.0, x))     # psi'''(1) - psi'''(theta+1)
    return np.array((c, c * c + p, c ** 3 + 3.0 * p * c + q,
                     c ** 4 + 6.0 * p * c * c + 3.0 * p * p + 4.0 * q * c + rr))


def ge_raw_moment(theta, r: int):
    """r-th raw moment (r in 1..4) of a unit-rate GE(theta) component,
    elementwise over an array of theta."""
    if r not in (1, 2, 3, 4):
        raise ValueError(f"ge_raw_moment supports r in 1..4, got {r}")
    return _ge_moment_rows(theta)[r - 1]


def _moment_sum(dist: BGE, r: int) -> SeriesEval:
    """Unscaled raw-moment series E[(lam X)^r]: GE component moments
    weighted by the paper's coefficients."""
    a, b, alpha = dist.a, dist.b, dist.alpha

    def payload(j: np.ndarray) -> np.ndarray:
        return np.log(ge_raw_moment(alpha * (a + j), r)) - np.log(a + j)

    return _sum_series(b, payload, -specfun.log_beta(a, b), f"raw_moment(r={r})")


def raw_moment(dist: BGE, r: int) -> float:
    """r-th raw moment, r in 1..4, via the weighted-GE-moment series."""
    if r not in (1, 2, 3, 4):
        raise ValueError(f"raw_moment supports r in 1..4, got {r}")
    return _moment_sum(dist, r).value / dist.lam ** r


@dataclass(frozen=True)
class MomentSet:
    """First four raw moments with derived central quantities."""

    mu1: float
    mu2: float
    mu3: float
    mu4: float
    variance: float
    skewness: float
    kurtosis: float


def _latent_moments(dist: BGE, orders: tuple) -> list:
    """E[(lam X)^r] for each r in ``orders`` as the rows of one engine call
    over the latent variate V ~ Beta(a, b), lam X = -log(1 - V^(1/alpha)).

    Each row is fixed at the first level where its last two agree to
    1e-12 relative; one whose last difference is above 1e-8 relative
    raises ``SeriesConvergenceError``."""
    rows = [(dist.a - 1.0, dist.b - 1.0, 0, 0, r, 0, 0) for r in orders]
    try:
        log_integrals = _latent_log_integrals(dist, rows)
    except NonIntegrableError as exc:
        raise SeriesConvergenceError(str(exc), partial=math.nan, terms=0) from exc
    return [math.exp(li - dist.log_beta_ab) for li in log_integrals]


def moment_set(dist: BGE) -> MomentSet:
    """The first four raw moments from one engine call over the latent
    beta variate, with the central quantities derived from them."""
    mu1, mu2, mu3, mu4 = (m / dist.lam ** r for r, m in
                          zip((1, 2, 3, 4), _latent_moments(dist, (1, 2, 3, 4))))
    var = mu2 - mu1 * mu1
    if var <= 0.0:
        raise SeriesConvergenceError(
            f"moments produced non-positive variance {var}", var, 0)
    m3 = mu3 - 3.0 * mu1 * mu2 + 2.0 * mu1 ** 3
    m4 = mu4 - 4.0 * mu1 * mu3 + 6.0 * mu1 ** 2 * mu2 - 3.0 * mu1 ** 4
    return MomentSet(mu1, mu2, mu3, mu4, var,
                     m3 / var ** 1.5, m4 / (var * var))


def skewness_kurtosis(dist: BGE) -> tuple:
    """Standardized third moment and (raw, non-excess) fourth moment."""
    ms = moment_set(dist)
    return (ms.skewness, ms.kurtosis)


def shannon_entropy(dist: BGE) -> float:
    """Differential entropy E[-log f(X)], with E[lam X] taken by the
    latent-variate rule of ``moment_set``."""
    a, b, lam, alpha = dist.a, dist.b, dist.lam, dist.alpha
    (lam_mu1,) = _latent_moments(dist, (1,))
    psi = specfun.digamma
    return (-math.log(alpha * lam) + specfun.log_beta(a, b) + lam_mu1
            + (1.0 / alpha - a) * (psi(a) - psi(a + b))
            - (b - 1.0) * (psi(b) - psi(a + b)))
