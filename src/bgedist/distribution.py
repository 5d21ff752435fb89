"""The four-parameter beta generalized exponential distribution.

The family composes the exponentiated-exponential cdf
``G(x) = (1 - exp(-lam*x))**alpha`` with a Beta(a, b) cdf, giving

    F(x) = I_{G(x)}(a, b),

where ``I`` is the regularized incomplete beta ratio, taken from
whichever of G and 1 - G is at most 1/2 (``_beta_tail``).  Its
complement is 1 - I where I <= 1/2, the mirror ratio at 1 - G or G
where that is at least 1/4, and ``betaincc``, 2-12 times the cost of
``betainc``, only for the rest (``_beta_complement``).  ``_log_density``
alone decides the transform's far tail, where 1 - e^(-lam*x) rounds to
1.  Instances are immutable value objects and safe to share between
threads; sampling mutates only the caller-supplied generator.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun

__all__ = ["BGE", "Sample", "log1mexp"]


_LOG2 = 0.6931471805599453
#: The argument types that take the ``math`` path; float first, as the
#: common case, which isinstance then matches about 30 ns sooner.
_SCALAR = (float, int)


def log1mexp(z):
    """log(1 - exp(-z)) for z > 0, stable at both ends.

    Accepts scalars or arrays; a Python or numpy float scalar stays in
    the ``math`` module.  Uses log(-expm1(-z)) below log 2 and
    log1p(-exp(-z)) above, the classical accuracy switch.  Outside the
    domain the result is -inf at 0 and nan below, as for arrays.
    """
    if isinstance(z, _SCALAR):
        if z > 0.0:
            if z < _LOG2:
                return math.log(-math.expm1(-z))
            return math.log1p(-math.exp(-z))
        return -math.inf if z == 0.0 else math.nan
    z = np.asarray(z, dtype=float)
    small = z < _LOG2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(small, np.log(-np.expm1(-z)), np.log1p(-np.exp(-z)))
    return _as_float_if_0d(out)


def _as_float_if_0d(out):
    """A 0-d array result as a float, as for a float argument."""
    return float(out) if out.ndim == 0 else out


def _log_norm(a: float, b: float, lam: float, alpha: float) -> float:
    """log(alpha lam / B(a, b)), the constant term of the log-density."""
    return math.log(alpha) + math.log(lam) - specfun.log_beta(a, b)


def _log_density(params, log_norm, x):
    """The BGE log-density at x > 0 and the pieces that the score and
    the Hessian share.

    ``params`` is (a, b, lam, alpha) and ``log_norm`` is ``_log_norm`` of
    them: floats, or (rows, 1) columns with x broadcast to (rows, n).
    Returns (log f, z, log u, log u^alpha, log(1 - u^alpha), log(-log u))
    with z = lam x and u = 1 - e^-z.  It is the one rule for the
    transform's far tail, where -log u < 1e-300, log u being -e^-z to
    rounding (0 past z = 745): there log(-log u) = -z and
    log(1 - u^alpha) = log alpha - z, to O(e^-z), and log f sums
    -z + (b - 1)(log alpha - z) as (b - 1) log alpha - b z, which does
    not cancel.  A float x stays in the ``math`` module.
    """
    a, b, lam, alpha = params
    z = lam * x
    logu = log1mexp(z)
    if isinstance(z, float):
        if logu > -1e-300:
            log_alpha = math.log(alpha)
            return ((b - 1.0) * log_alpha - b * z + log_norm + (alpha * a - 1.0) * logu,
                    z, logu, alpha * logu, log_alpha - z, -z)
        log1mua = log1mexp(-alpha * logu)
        return (log_norm - z + (alpha * a - 1.0) * logu + (b - 1.0) * log1mua,
                z, logu, alpha * logu, log1mua, math.log(-logu))
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0, inf - inf: far, replaced below
        loglogu, log1mua = np.log(-logu), log1mexp(-alpha * logu)
        logf = log_norm - z + (alpha * a - 1.0) * logu + (b - 1.0) * log1mua
    far = logu > -1e-300
    if far.any():  # np.where only then: logpdf arrays seldom reach it
        log_alpha = np.log(alpha)
        logf = np.where(far, (b - 1.0) * log_alpha - b * z + log_norm + (alpha * a - 1.0) * logu, logf)
        loglogu, log1mua = np.where(far, -z, loglogu), np.where(far, log_alpha - z, log1mua)
    return logf, z, logu, alpha * logu, log1mua, loglogu


#: Below e^-690 (about 1e-300) the small beta-cdf argument counts as
#: underflowed: the leading term of its series is then exact to rounding.
_LOG_TINY = -690.0
_DBL_MIN = sys.float_info.min
_LOG_DBL_MIN = math.log(_DBL_MIN)


class _Lazy:
    """A module imported on first attribute access, which then replaces
    this placeholder as the global ``name``: later calls pay one global
    lookup instead of an ``import`` statement, and importing the package
    loads no scipy."""

    def __init__(self, name: str, module: str):
        self._name, self._module = name, module

    def __getattr__(self, attr):
        module = importlib.import_module(self._module)
        globals()[self._name] = module
        return getattr(module, attr)


#: The scalar kernels return the ufuncs' bits about 1 us sooner a call.
_sc = _Lazy("_sc", "scipy.special.cython_special")
_ufuncs = _Lazy("_ufuncs", "scipy.special")


def _beta_complement(p, q, x, s):
    """1 - I_x(p, q) from s = I_x(p, q) at x <= 1/2 (floats, or arrays of
    one shape): 1 - s where s <= 1/2, I_(1-x)(q, p) where x >= 1/4, and
    ``betaincc(p, q, x)`` only for the rest.

    ``betaincc`` costs 2-12 ``betainc`` calls (10 as a ufunc), and the
    first two branches are as accurate.  Where s <= 1/2, 1 - s is
    rounded by at most half its ulp, and s's error is no larger
    relative to 1 - s >= s than to s.  Where x is in [1/4, 1/2],
    1 - x is off by at most 2^-54, one ulp of x, as if x had been
    rounded once more.  DiDonato & Morris's Algorithm 708 (ACM TOMS
    18(3), 1992) splits the work the same way: it returns I and 1 - I
    as a pair and subtracts only for the larger one.
    """
    if isinstance(s, float):
        if s <= 0.5:
            return 1.0 - s
        return _sc.betainc(q, p, 1.0 - x) if x >= 0.25 else _sc.betaincc(p, q, x)
    out = 1.0 - s
    big = s > 0.5
    mirror, rest = big & (x >= 0.25), big & (x < 0.25)
    out[mirror] = _ufuncs.betainc(q[mirror], p[mirror], 1.0 - x[mirror])
    out[rest] = _ufuncs.betaincc(p[rest], q[rest], x[rest])
    return out


def _beta_tail(a: float, b: float, log_beta_ab: float, log_g: float,
               upper: bool = False, log_1mg: float = -math.inf) -> float:
    """I_G(a, b) at G = e^log_g <= 1, or 1 - I_G(a, b) when ``upper``.

    The side rule: s = ``betainc`` at (a, b, G) when G <= 1/2 and at
    (b, a, 1 - G) otherwise, with 1 - G = -expm1(log_g), so that neither
    tail rounds to 0 or 1; where 1 - G has left the normal range, its log
    is the caller's ``log_1mg``, from ``_log_density``.  Where the small
    argument x is below e^``_LOG_TINY``, s is the leading term
    x^p / (p B(a, b)) of its series, p being x's shape, and its
    complement 1 - s; elsewhere the complement is ``_beta_complement``.
    """
    g = math.exp(log_g)
    if g > 0.5:
        a, b, g, upper = b, a, -math.expm1(log_g), not upper
        log_g = math.log(g) if g >= _DBL_MIN else log_1mg
    if log_g < _LOG_TINY:
        s = math.exp(a * log_g - math.log(a) - log_beta_ab)
        return 1.0 - s if upper else s
    s = _sc.betainc(a, b, g)
    return _beta_complement(a, b, g, s) if upper else s


def _beta_tail_array(a: float, b: float, log_beta_ab: float, logv, log1mv, upper=None):
    """``_beta_tail`` over arrays of log v and log(1 - v): I_v(a, b), or
    1 - I_v(a, b) when ``upper``; with ``upper=None``, the rows log I_v(a, b)
    and log(1 - I_v(a, b)), which hold a leading term below the double range.

    The small argument's log is log v or the caller's log(1 - v), which
    alone carries 1 - v past the normal range.  The values take 1 - v as
    -expm1(log v), as the float rule does; the pair, whose callers hold
    exact logs (the tanh-sinh nodes), takes e^(log(1 - v)).
    ``_beta_complement`` runs only where the other side is asked for.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.exp(logv)
        swap = v > 0.5
        log_x = np.where(swap, log1mv, logv)
        x = np.exp(log_x) if upper is None else np.where(swap, -np.expm1(logv), v)
        p, q = np.where(swap, b, a), np.where(swap, a, b)
        tiny = log_x < _LOG_TINY
        lead = p * log_x - np.log(p) - log_beta_ab
        s = np.where(tiny, np.exp(lead), _ufuncs.betainc(p, q, x))
        if upper is None:
            small, large = np.where(tiny, lead, np.log(s)), np.log1p(-s)
            big = (s > 0.5) & ~tiny
            large[big] = np.log(_beta_complement(p[big], q[big], x[big], s[big]))
            return np.where(swap, large, small), np.where(swap, small, large)
        comp = swap != upper
        out = np.where(comp, 1.0 - s, s)
        comp &= ~tiny
        out[comp] = _beta_complement(p[comp], q[comp], x[comp], s[comp])
    return out


def _refine_beta_cdf_root(a: float, b: float, log_beta_ab: float, log_g: float,
                          t: float) -> float:
    """log G with I_G(a, b) = t: Newton steps in log G on log I_G from
    ``betaincinv``'s root, until they agree to 1e-12 relative.

    ``betaincinv`` misses about 1 % of small t over the box (nan at
    (3.50, 81.5, 1.08e-213), 2^-56 at (1.2348, 0.0247, 5.7e-23) where G
    is 2.28e-17); where I_G underflows at the start, the steps restart
    from the root of the leading term G^a / (a B(a, b)).  ``betainccinv``
    missed none of 190,000 roots, so the upper side is not refined.
    """
    log_t = math.log(t)
    for _ in range(4):  # at most three evaluations over 119,000 roots
        f = _beta_tail(a, b, log_beta_ab, log_g)
        if f == 0.0:
            log_g = (log_t + math.log(a) + log_beta_ab) / a
            continue
        resid = math.log(f) - log_t
        if not abs(resid) > 1e-12:
            break
        # d log I_G / d log G = G^a (1 - G)^(b-1) / (B(a, b) I_G)
        slope = math.exp(a * log_g + (b - 1.0) * log1mexp(-log_g) - log_beta_ab) / f
        if not slope > 0.0:
            break
        log_g -= resid / slope
    return log_g


#: tanh-sinh rule v = (1 + tanh(pi/2 sinh t)) / 2 on t in [-8, 8]: the
#: first level has step 1/8, each further one halves it and adds only the
#: odd-numbered nodes.  At t = +-8 one of v and 1 - v is about e^-4682.
_TS_T, _TS_H0, _TS_LEVELS = 8.0, 0.125, 7
_TS_RTOL, _TS_FAIL_RTOL = 1e-12, 1e-8


@functools.cache
def _tanh_sinh_level(level: int) -> np.ndarray:
    """The nodes a level adds, as rows log v, log(1 - v), log(-log v) and
    log(dv/dt) = log(pi cosh t) + log v + log(1 - v); parameter-free, so
    computed once per level."""
    h = _TS_H0 / 2 ** level
    n = round(_TS_T / h)
    t = h * (np.arange(-n, n + 1) if level == 0 else np.arange(1 - n, n, 2))
    x = math.pi * np.sinh(t)                 # 2 atanh(2v - 1)
    soft = np.log1p(np.exp(-np.abs(x)))
    logv = -(np.maximum(-x, 0.0) + soft)
    log1mv = -(np.maximum(x, 0.0) + soft)
    with np.errstate(divide="ignore"):
        # -log v = log1p(e^-x), whose log is -x - e^-x / 2 once e^-x is tiny
        loglogv = np.where(x > 30.0, -x - 0.5 * np.exp(-np.abs(x)), np.log(-logv))
    logw = np.log(math.pi * np.cosh(t)) + logv + log1mv
    nodes = np.stack([logv, log1mv, loglogv, logw])
    nodes.flags.writeable = False
    return nodes


def _log_latent_transform(logv, loglogv, alpha: float):
    """Rows log(1 - w) and log(-log(1 - w)) at w = v^(1/alpha), from the
    node rows log v and log(-log v); the second is log(lam * x) at the
    BGE variate x = -log(1 - w) / lam of the latent beta variate v."""
    zed = -logv / alpha              # w = e^-zed
    with np.errstate(divide="ignore"):
        # log(1 - e^-zed); log zed - zed/2 where zed is tiny or 0
        log1mw = np.where(zed < 1e-8, loglogv - math.log(alpha) - 0.5 * zed, log1mexp(zed))
        # log(-log(1 - e^-zed)) = -zed + log1p(e^-zed / 2) + O(e^-2zed)
        loglogw = np.where(zed > 30.0, -zed + np.log1p(0.5 * np.exp(-zed)), np.log(-log1mw))
    return log1mw, loglogw


def _tanh_sinh_log_integral(log_terms) -> tuple:
    """logs of integrals over v in (0, 1) by the tanh-sinh rule, one per
    row of terms, and the largest relative difference of their last two
    levels.

    ``log_terms`` maps a level's node rows (log v, log(1 - v),
    log(-log v), log dv/dt) to the log of integrand times dv/dt: one row
    of terms, or a 2-d array whose rows are integrands sharing the nodes.
    The step halves, up to 6 times, until every row's last two levels
    agree to 1e-12 relative; each row's terms are summed scaled by its
    running maximum, so an integral may lie far outside the double
    range.  The caller raises when the returned difference exceeds
    ``_TS_FAIL_RTOL``.
    """
    for level in range(_TS_LEVELS):
        rows = np.atleast_2d(log_terms(_tanh_sinh_level(level)))
        if level == 0:
            shift = [-math.inf] * len(rows)   # running max of each row's log terms
            total = [0.0] * len(rows)         # each row's terms scaled by e^-shift
            est = [math.nan] * len(rows)
        rel = 0.0
        for k, lterm in enumerate(rows):
            top = float(lterm.max())
            if top > shift[k]:
                rescale = math.exp(shift[k] - top)
                total[k], est[k], shift[k] = total[k] * rescale, est[k] * rescale, top
            total[k] += float(np.exp(lterm - shift[k]).sum())
            prev, est[k] = est[k], total[k] * _TS_H0 / 2 ** level
            row_rel = abs(est[k] - prev) / est[k]
            # max() keeps a nan first argument but drops a nan second one
            rel = max(rel, row_rel) if row_rel == row_rel else math.nan
        if rel <= _TS_RTOL:
            break
    return [s + math.log(e) for s, e in zip(shift, est)], rel


@dataclass(frozen=True)
class Sample:
    """A validated vector of strictly positive observations."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("Sample requires a nonempty 1-d vector of observations")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            bad = int(np.argmax(~(np.isfinite(vals) & (vals > 0.0))))
            raise ValueError(f"Sample values must be positive and finite (index {bad}: {vals[bad]})")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


#: The parameters in the order of ``BGE.params_tuple``.
PARAM_NAMES = ("a", "b", "lam", "alpha")

#: Free parameters per model tag; the rest are pinned at 1.
MODEL_FREE_PARAMS = {
    "bge": ("a", "b", "lam", "alpha"),
    "be": ("a", "b", "lam"),
    "ge": ("lam", "alpha"),
    "dge": ("b", "lam", "alpha"),
    "exp": ("lam",),
}


@dataclass(frozen=True)
class BGE:
    """BGE(a, b, lam, alpha) distribution on (0, inf).

    Parameters
    ----------
    a, b : float
        Beta shape parameters (> 0).
    lam : float
        Rate parameter (> 0), reciprocal of the data scale.
    alpha : float
        Exponentiation shape (> 0).

    Notes
    -----
    Sub-models: ``a = b = 1`` is the exponentiated (generalized)
    exponential, ``alpha = 1`` the beta exponential, ``a = 1`` the
    double generalized exponential and ``a = b = alpha = 1`` the plain
    exponential.
    """

    a: float
    b: float
    lam: float
    alpha: float

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b), ("lam", self.lam), ("alpha", self.alpha)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"BGE parameter {name} must be positive and finite, got {v}")
            object.__setattr__(self, name, float(v))

    # -- sub-model constructors ------------------------------------------------

    @classmethod
    def ge(cls, lam: float, alpha: float) -> "BGE":
        """Generalized (exponentiated) exponential: a = b = 1."""
        return cls(1.0, 1.0, lam, alpha)

    @classmethod
    def be(cls, a: float, b: float, lam: float) -> "BGE":
        """Beta exponential: alpha = 1."""
        return cls(a, b, lam, 1.0)

    @classmethod
    def dge(cls, b: float, lam: float, alpha: float) -> "BGE":
        """Double generalized exponential: a = 1."""
        return cls(1.0, b, lam, alpha)

    @classmethod
    def exponential(cls, lam: float) -> "BGE":
        return cls(1.0, 1.0, lam, 1.0)

    # log B(a, b), the log-density constant and the quantile's side split
    # are kept in the instance dict on first use: not fields, so out of
    # equality, hash and repr, and left out of the pickled state.

    @functools.cached_property
    def log_beta_ab(self) -> float:
        return specfun.log_beta(self.a, self.b)

    @functools.cached_property
    def _log_norm_const(self) -> float:
        return _log_norm(self.a, self.b, self.lam, self.alpha)

    @functools.cached_property
    def _p_at_v_half(self) -> float:
        return _sc.betainc(self.a, self.b, 0.5)

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    # -- public surface --------------------------------------------------------

    def logpdf(self, x) -> float:
        """Log density at x > 0 (vectorized)."""
        scalar = isinstance(x, _SCALAR)
        if not scalar:
            x = np.asarray(x, dtype=float)
        if x <= 0.0 if scalar else np.any(x <= 0.0):
            raise ValueError("logpdf requires x > 0")
        out = _log_density((self.a, self.b, self.lam, self.alpha), self._log_norm_const, x)[0]
        return out if scalar else _as_float_if_0d(out)

    def pdf(self, x):
        """Density at x >= 0 (vectorized).

        At the origin the density is defined by its limit: 0 when
        alpha*a > 1, alpha*lam/B(a, b) when alpha*a == 1, and +inf
        (an explicit unbounded marker) when alpha*a < 1, as is a density
        above the double range near it.  An array is taken elementwise;
        a negative element raises ``ValueError`` naming the first one.
        """
        if isinstance(x, _SCALAR):
            if x < 0.0:
                raise ValueError(f"pdf requires x >= 0, got {x}")
            if x == 0.0:
                return self._pdf_at_origin()
            log_f = _log_density((self.a, self.b, self.lam, self.alpha), self._log_norm_const, x)[0]
            try:
                return math.exp(log_f)
            except OverflowError:
                return math.inf
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError(f"pdf requires x >= 0, got {x[x < 0.0][0]}")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = np.exp(_log_density(self.params_tuple(), self._log_norm_const, x)[0])
        return _as_float_if_0d(np.where(x == 0.0, self._pdf_at_origin(), f))

    def _pdf_at_origin(self) -> float:
        aa = self.alpha * self.a
        if aa > 1.0:
            return 0.0
        if aa == 1.0:
            return self.alpha * self.lam * math.exp(-self.log_beta_ab)
        return math.inf

    def cdf(self, x):
        """Distribution function I_G(a, b) at G = (1 - e^(-lam x))^alpha;
        0 for x <= 0 (vectorized)."""
        return self._beta_tail_at(x, False)

    def survival(self, x):
        """Survival function 1 - I_G(a, b), taken from the small side
        rather than as 1 - cdf, for tail accuracy; 1 for x <= 0
        (vectorized)."""
        return self._beta_tail_at(x, True)

    def _beta_tail_at(self, x, upper: bool):
        """The body of ``cdf`` and, with ``upper``, ``survival``: the side rule
        at log G, with log(1 - G) from ``_log_density`` where 1 - G < _DBL_MIN."""
        if isinstance(x, _SCALAR):
            if x <= 0.0:
                return float(upper)
            log_g = self.alpha * log1mexp(self.lam * x)
            if log_g > -_DBL_MIN:  # so 1 - G = -expm1(log_g) < _DBL_MIN
                return _beta_tail(self.a, self.b, self.log_beta_ab, log_g, upper,
                                  _log_density(self.params_tuple(), 0.0, x)[4])
            return _beta_tail(self.a, self.b, self.log_beta_ab, log_g, upper)
        x = np.asarray(x, dtype=float)
        log_g = self.alpha * log1mexp(self.lam * x)
        with np.errstate(divide="ignore"):
            log_1mg = np.log(-np.expm1(log_g))
            past = log_1mg < _LOG_DBL_MIN
            if past.any():
                log_1mg[past] = _log_density(self.params_tuple(), 0.0, x[past])[4]
        out = _beta_tail_array(self.a, self.b, self.log_beta_ab, log_g, log_1mg, upper)
        return _as_float_if_0d(np.where(x <= 0.0, float(upper), out))

    def hazard(self, x):
        """Hazard rate pdf(x)/survival(x) for x > 0 (vectorized).

        Raises ``ValueError`` at x <= 0 and ``OverflowError`` where the
        survival is 0: below the double range, or subnormal and flushed to
        0 by ``betainc``; an array raises at its first such element.
        """
        scalar = isinstance(x, _SCALAR)
        if not scalar:
            x = np.asarray(x, dtype=float)
        s = self.survival(x)
        bad = (x <= 0.0) | (s == 0.0)
        if bad if scalar else np.any(bad):
            first = x if scalar else float(x[bad][0])
            if first <= 0.0:
                raise ValueError(f"hazard requires x > 0, got {first}")
            raise OverflowError(f"survival underflowed to 0 at x={first}; "
                                "hazard is not representable")
        return self.pdf(x) / s

    def quantile(self, p):
        """Quantile function on 0 < p < 1.

        Inverts the sampling transform x = -log(1 - V^(1/alpha)) / lam at
        the Beta(a, b) quantile V of p.  V is inverted from whichever of p
        and 1 - p is at most 1/2; where V > 1/2, 1 - V is inverted instead
        on the Beta(b, a) side, so that log V = log1p(-(1 - V)) keeps the
        digits that x depends on.  scipy's inverse is then refined by
        Newton steps on the log tail.  Where 1 - V = y or
        z = -log V / alpha is below the normal range, x is formed from
        log y alone: -log V = y (1 + y/2 + ...) gives log z =
        log y - log alpha, and 1 - V^(1/alpha) = 1 - e^-z gives
        x = -(log z - z/2) / lam, so that x stays finite and accurate where
        V rounds to 1.  Where x is below the smallest positive double
        (F(5e-324) > p), the result is +0.0, the correctly rounded value.
        An array is inverted element by element; one outside (0, 1)
        raises ``ValueError`` naming the first.
        """
        if not isinstance(p, _SCALAR):
            p = np.asarray(p, dtype=float)
            return _as_float_if_0d(np.array([self.quantile(float(v)) for v in p.flat])
                                   .reshape(p.shape))
        if not (0.0 < p < 1.0):
            raise ValueError(f"quantile requires 0 < p < 1, got {p}")
        a, b = self.a, self.b
        t, upper = (p, False) if p <= 0.5 else (1.0 - p, True)
        swap = p > self._p_at_v_half
        if swap:  # V > 1/2: invert for 1 - V on the Beta(b, a) side
            a, b, upper = b, a, not upper
        y = (_sc.betainccinv if upper else _sc.betaincinv)(a, b, t)
        log_y = math.log(y) if y > 0.0 else -math.inf
        if not upper:
            log_y = _refine_beta_cdf_root(a, b, self.log_beta_ab, log_y, t)
        if swap:
            log_z = log_y - math.log(self.alpha)
            if min(log_y, log_z) < _LOG_DBL_MIN:
                return -(log_z - 0.5 * math.exp(log_z)) / self.lam
        logv = math.log1p(-math.exp(log_y)) if swap else log_y
        return -log1mexp(-logv / self.alpha) / self.lam

    def sample(self, n: int, rng: np.random.Generator, label: str = "") -> Sample:
        """Draw n i.i.d. values using a caller-supplied generator.

        Uses the beta-variate transform X = -log(1 - V**(1/alpha))/lam
        with V ~ Beta(a, b); deterministic given the generator state.
        """
        if n < 1:
            raise ValueError(f"sample requires n >= 1, got {n}")
        v = rng.beta(self.a, self.b, size=n)
        # keep V inside the open interval so the transform stays finite
        v = np.clip(v, np.finfo(float).tiny, np.nextafter(1.0, 0.0))
        x = -log1mexp(-np.log(v) / self.alpha) / self.lam
        return Sample(x, label=label)

    def params_tuple(self) -> tuple:
        return (self.a, self.b, self.lam, self.alpha)

    def __str__(self) -> str:
        return (f"BGE(a={self.a:.6g}, b={self.b:.6g}, "
                f"lam={self.lam:.6g}, alpha={self.alpha:.6g})")
