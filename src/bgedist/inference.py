"""Maximum-likelihood machinery for the BGE family and its sub-models.

The likelihood is maximized in log-parameter space (all four parameters
are positive) with the analytic score and a deterministic multi-start
ladder.  Each distinct start runs once, and within a start the objective
remembers the points it has computed, so a point met again is not
recomputed.  The search domain is a documented box, |log theta_i| <= 4.5
by default: on some datasets the likelihood increases without bound
along a b -> infinity ridge on which the family degenerates to a
generalized gamma limit, so an unbounded "MLE" does not exist.  Fits
that terminate on the box are reported with ``converged=False`` and the
active bounds listed in ``hit_bounds``.  The expected information takes
its beta expectations from a tanh-sinh rule on cached nodes, so
``inference`` never loads ``scipy.integrate``; ``scipy.optimize`` is
imported by ``fit_mle`` on its first call, so importing the package does
not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import specfun
from .distribution import _LOGU_CLAMP, BGE, Sample, log1mexp

__all__ = [
    "PARAM_NAMES",
    "MODEL_FREE_PARAMS",
    "NonIntegrableError",
    "ScoreVector",
    "InfoMatrix",
    "FitResult",
    "LrTestResult",
    "log_likelihood",
    "score",
    "score_contributions",
    "t_expectation",
    "information_matrix",
    "mc_expected_information",
    "fit_mle",
    "confidence_intervals",
    "lr_test",
    "lr_from_fits",
    "fit_result_kv",
    "parse_fit_result_kv",
    "lr_result_kv",
]

PARAM_NAMES = ("a", "b", "lam", "alpha")

#: Free parameters per model tag; the rest are pinned at 1.
MODEL_FREE_PARAMS = {
    "bge": ("a", "b", "lam", "alpha"),
    "be": ("a", "b", "lam"),
    "ge": ("lam", "alpha"),
    "dge": ("b", "lam", "alpha"),
    "exp": ("lam",),
}

#: Half-width of the default search box in log-parameter space.
DEFAULT_LOG_BOUND = 4.5

_GRAD_TOL = 1e-6


class NonIntegrableError(ValueError):
    """Raised when a requested T-expectation has no finite value."""


def _as_values(data) -> np.ndarray:
    if isinstance(data, Sample):
        return data.values
    return Sample(np.asarray(data, dtype=float)).values


def _pieces(theta: np.ndarray, y: np.ndarray):
    """Shared stable intermediates for likelihood and score, with the
    parameters as Python floats, on which the scalar special functions
    run faster than on numpy scalars."""
    params = theta.tolist()
    lam, alpha = params[2], params[3]
    z = lam * y
    logu = np.minimum(log1mexp(z), _LOGU_CLAMP)
    alogu = alpha * logu                        # log u^alpha
    return params, z, logu, alogu, log1mexp(-alogu)


def _loglik(pieces) -> float:
    (a, b, lam, alpha), z, logu, _, log1mua = pieces
    return float(np.sum(math.log(alpha) + math.log(lam) - specfun.log_beta(a, b)
                        - z + (alpha * a - 1.0) * logu + (b - 1.0) * log1mua))


def _score_contrib(pieces, y: np.ndarray) -> np.ndarray:
    """Per-observation score vectors, shape (n, 4)."""
    (a, b, lam, alpha), z, logu, alogu, log1mua = pieces
    psi_a = specfun.digamma(a)
    psi_b = specfun.digamma(b)
    psi_ab = specfun.digamma(a + b)
    arg = -z - logu
    # y e^{-lam y} / u; e^arg overflows once lam y is below about 1e-308
    w1 = y * np.exp(arg) if arg.max() < 709.0 else np.exp(np.log(y) + arg)
    ratio = np.exp(alogu - log1mua)             # u^alpha / (1 - u^alpha)
    out = np.empty((y.size, 4))
    out[:, 0] = alogu - (psi_a - psi_ab)
    out[:, 1] = log1mua - (psi_b - psi_ab)
    out[:, 2] = 1.0 / lam - y + (alpha * a - 1.0) * w1 - alpha * (b - 1.0) * w1 * ratio
    out[:, 3] = 1.0 / alpha + a * logu - (b - 1.0) * ratio * logu
    return out


def _loglik_score(theta: np.ndarray, y: np.ndarray):
    """(log-likelihood, score sum) from one pass of ``_pieces``."""
    pieces = _pieces(theta, y)
    return _loglik(pieces), _score_contrib(pieces, y).sum(axis=0)


@dataclass(frozen=True)
class ScoreVector:
    """Gradient of the total log-likelihood in (a, b, lam, alpha)."""

    d_a: float
    d_b: float
    d_lambda: float
    d_alpha: float

    def as_array(self) -> np.ndarray:
        return np.array([self.d_a, self.d_b, self.d_lambda, self.d_alpha])


def log_likelihood(dist: BGE, data) -> float:
    """Total log-likelihood of ``data`` under ``dist``."""
    y = _as_values(data)
    return _loglik(_pieces(np.array(dist.params_tuple()), y))


def score(dist: BGE, data) -> ScoreVector:
    """Analytic score (gradient of the total log-likelihood)."""
    y = _as_values(data)
    g = _score_contrib(_pieces(np.array(dist.params_tuple()), y), y).sum(axis=0)
    return ScoreVector(*g)


def score_contributions(dist: BGE, data) -> np.ndarray:
    """Per-observation score vectors, shape (n, 4); sums to ``score``."""
    y = _as_values(data)
    return _score_contrib(_pieces(np.array(dist.params_tuple()), y), y)


# -- expectations over the latent beta variate ----------------------------------


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


def t_expectation(dist: BGE, i: int, j: int, k: int, l: int, m: int) -> float:
    """E[(1-V)^-i (1-V^(1/alpha))^j V^(i-k/alpha) log(1-V^(1/alpha))^l (log V)^m]
    for V ~ Beta(a, b), indices in {0, 1, 2}.

    Near v=1 the integrand scales like (1-v)^(b-1-i+j+m) up to logs, so
    the expectation is finite iff b > i - j - m; the symmetric condition
    at v=0 is a + i + (l-k)/alpha > 0.

    The integral is taken by the tanh-sinh rule v = (1 + tanh(pi/2 sinh t))/2,
    truncated to t in [-8, 8], where the integrand has decayed like
    (1-v)^(b-i+j+m) or v^(a+i+(l-k)/alpha) with 1 - v or v near e^-4682.
    The step starts at 1/8 and halves, up to 6 times, until two levels
    agree to 1e-12 relative.  Every factor is formed in log space from
    whichever of log v and log(1 - v) is small, so neither end loses its
    tail.  A last level that still disagrees by more than 1e-8 relative
    raises ``NonIntegrableError``, which ``information_matrix`` answers
    with its Monte Carlo fallback.
    """
    for name, idx in (("i", i), ("j", j), ("k", k), ("l", l), ("m", m)):
        if idx not in (0, 1, 2):
            raise ValueError(f"t_expectation index {name} must be in {{0,1,2}}, got {idx}")
    a, b, alpha = dist.a, dist.b, dist.alpha
    if not (b > i - j - m):
        raise NonIntegrableError(
            f"T_{{{i},{j},{k},{l},{m}}} diverges at v=1: requires b > i-j-m = {i - j - m}, got b={b}")
    if not (a + i + (l - k) / alpha > 0.0):
        raise NonIntegrableError(
            f"T_{{{i},{j},{k},{l},{m}}} diverges at v=0 for a={a}, alpha={alpha}")

    pow_v = a - 1.0 + i - k / alpha
    pow_1mv = b - 1.0 - i
    log_alpha = math.log(alpha)
    shift = -math.inf                    # running max of the log terms
    total = 0.0                          # sum of the terms scaled by e^-shift
    est = rel = math.nan
    for level in range(_TS_LEVELS):
        logv, log1mv, loglogv, logw = _tanh_sinh_level(level)
        lterm = logw + pow_v * logv + pow_1mv * log1mv
        if m:
            lterm += m * loglogv
        if j or l:
            zed = -logv / alpha              # v^(1/alpha) = e^-zed
            with np.errstate(divide="ignore"):
                # log(1 - e^-zed); log zed - zed/2 where zed is tiny or 0
                l1 = np.where(zed < 1e-8, loglogv - log_alpha - 0.5 * zed, log1mexp(zed))
                if j:
                    lterm += j * l1
                if l:
                    # log(-log(1 - e^-zed)) = -zed + log1p(e^-zed / 2) + O(e^-2zed)
                    lterm += l * np.where(zed > 30.0, -zed + np.log1p(0.5 * np.exp(-zed)),
                                          np.log(-l1))
        top = float(lterm.max())
        if top > shift:
            rescale = math.exp(shift - top)
            total, est, shift = total * rescale, est * rescale, top
        total += float(np.exp(lterm - shift).sum())
        prev, est = est, total * _TS_H0 / 2 ** level
        rel = abs(est - prev) / est
        if rel <= _TS_RTOL:
            break
    if not rel <= _TS_FAIL_RTOL:
        raise NonIntegrableError(
            f"T_{{{i},{j},{k},{l},{m}}}: the tanh-sinh rule did not converge for "
            f"{dist} (last two levels differ by {rel:.2g} relative)")
    sign = -1.0 if (l + m) % 2 else 1.0
    return sign * math.exp(shift + math.log(est) - specfun.log_beta(a, b))


_INFO_ENTRY_NAMES = ("a,a", "a,b", "a,lam", "a,alpha", "b,b", "b,lam",
                     "b,alpha", "lam,lam", "lam,alpha", "alpha,alpha")


@dataclass(frozen=True)
class InfoMatrix:
    """Unit expected information with its sample-size multiplier."""

    matrix: np.ndarray
    n_scale: int = 1
    fallback_entries: tuple = ()

    def total(self) -> np.ndarray:
        return self.n_scale * self.matrix

    def smallest_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def mc_expected_information(dist: BGE, n_draws: int, rng: np.random.Generator,
                            rel_step: float = 1e-5):
    """Monte Carlo estimate of E[-d^2 l / d theta d theta^T] per observation.

    Central finite differences of the analytic per-observation score.
    Returns (estimate, standard_errors), both 4x4.
    """
    y = dist.sample(n_draws, rng).values
    theta = np.array(dist.params_tuple())
    cols = []
    for idx in range(4):
        h = rel_step * theta[idx]
        tp = theta.copy(); tp[idx] += h
        tm = theta.copy(); tm[idx] -= h
        cols.append((_score_contrib(_pieces(tp, y), y)
                     - _score_contrib(_pieces(tm, y), y)) / (2.0 * h))
    hess = np.stack(cols, axis=1)               # (n, 4, 4), d s_j / d theta_i
    hess = 0.5 * (hess + np.transpose(hess, (0, 2, 1)))
    est = -hess.mean(axis=0)
    se = hess.std(axis=0, ddof=1) / math.sqrt(n_draws)
    return est, se


def information_matrix(dist: BGE, mc_fallback_draws: int = 200_000,
                       rng: np.random.Generator | None = None) -> InfoMatrix:
    """Unit expected information matrix K(theta).

    Entries combine polygamma terms with T-expectations.  At b = 1 the
    closed form of the (b, alpha) entry is 0/0 and the entry is taken by
    quadrature instead; if any required T-expectation reports
    non-integrability, that entry falls back to the Monte Carlo expected
    negative Hessian.  Either substitution is listed in
    ``fallback_entries``.
    """
    a, b, lam, alpha = dist.params_tuple()
    psi, psi1 = specfun.digamma, specfun.trigamma
    T = lambda *idx: t_expectation(dist, *idx)

    entries: dict[str, float] = {}
    failed: list[str] = []
    flagged: list[str] = []

    def put(name: str, compute):
        try:
            entries[name] = compute()
        except NonIntegrableError:
            failed.append(name)

    put("a,a", lambda: psi1(a) - psi1(a + b))
    put("a,b", lambda: -psi1(a + b))
    put("a,lam", lambda: alpha / lam * T(0, 1, 1, 1, 0))
    put("a,alpha", lambda: (psi(a + b) - psi(a)) / alpha)
    put("b,b", lambda: psi1(b) - psi1(a + b))
    put("b,lam", lambda: -alpha / lam * T(1, 1, 1, 1, 0))
    if abs(b - 1.0) > 1e-8:
        put("b,alpha", lambda: (a * (psi(a) - psi(a + b)) + 1.0) / (alpha * (b - 1.0)))
    else:
        # the closed form is 0/0 at b = 1; take the quadrature route
        put("b,alpha", lambda: T(1, 0, 0, 0, 1) / alpha)
        flagged.append("b,alpha")
    put("lam,lam", lambda: (1.0
                            + (alpha * a - 1.0) * (T(0, 2, 2, 2, 0) + T(0, 1, 1, 2, 0))
                            + alpha * (b - 1.0) * (alpha * T(2, 2, 2, 2, 0)
                                                   + (alpha - 1.0) * T(1, 2, 2, 2, 0)
                                                   - T(1, 1, 1, 2, 0))) / lam ** 2)
    put("lam,alpha", lambda: (a * T(0, 1, 1, 1, 0)
                              - (b - 1.0) * (T(1, 1, 1, 1, 0) + T(2, 1, 1, 1, 1)
                                             + T(1, 1, 1, 1, 1))) / lam)
    put("alpha,alpha", lambda: (1.0 + (b - 1.0) * (T(2, 0, 0, 0, 2)
                                                   + T(1, 0, 0, 0, 2))) / alpha ** 2)

    if failed:
        mc, _ = mc_expected_information(
            dist, mc_fallback_draws,
            rng if rng is not None else np.random.default_rng(20090615))
        pos = {name: idx for idx, name in enumerate(PARAM_NAMES)}
        for name in failed:
            r, c = (pos[p] for p in name.split(","))
            entries[name] = float(mc[r, c])

    K = np.empty((4, 4))
    pos = {name: idx for idx, name in enumerate(PARAM_NAMES)}
    for name in _INFO_ENTRY_NAMES:
        p, q = name.split(",")
        K[pos[p], pos[q]] = K[pos[q], pos[p]] = entries[name]
    return InfoMatrix(K, n_scale=1, fallback_entries=tuple(failed + flagged))


# -- fitting ---------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    ``score_norm`` is the infinity norm of the projected log-space
    gradient at the returned point.  ``converged`` requires that norm
    below 1e-6 with no active search-box bound; fits stopped on the box
    (likelihood-ridge degeneracy) list the offending parameters in
    ``hit_bounds``.  ``covariance`` is the inverse total expected
    information embedded in a 4x4 with zero rows/columns for pinned
    parameters, or None when it could not be computed.
    """

    model: str
    params: BGE
    loglik: float
    score_norm: float
    converged: bool
    iterations: int
    n_obs: int
    hit_bounds: tuple = ()
    covariance: np.ndarray | None = field(default=None, repr=False)

    @property
    def free_names(self) -> tuple:
        return MODEL_FREE_PARAMS[self.model]


def _ge_moment_match(mean: float, var: float) -> tuple:
    """Moment-matched (lam, alpha) start for the a = b = 1 sub-model."""
    if not (var > 0.0) or not math.isfinite(var):
        return 1.0 / mean, 1.0
    cv2 = var / mean ** 2

    def gap(log_alpha: float) -> float:
        al = math.exp(log_alpha)
        c = specfun.digamma(al + 1.0) - specfun.digamma(1.0)
        p = specfun.trigamma(1.0) - specfun.trigamma(al + 1.0)
        return p / (c * c) - cv2

    lo, hi = math.log(1e-4), math.log(1e6)
    if gap(lo) < 0.0 or gap(hi) > 0.0:
        return 1.0 / mean, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
        if step == (lo, hi):
            break       # lo and hi are adjacent floats: every later step repeats this one
        lo, hi = step
    alpha = math.exp(0.5 * (lo + hi))
    lam = (specfun.digamma(alpha + 1.0) - specfun.digamma(1.0)) / mean
    return lam, alpha


_SHAPE_GRID = (0.5, 1.0, 2.0, 10.0)


def _ladder(model: str, y: np.ndarray) -> list:
    """Deterministic starting points (full 4-vectors, pinned entries = 1)."""
    mean = float(y.mean())
    var = float(y.var(ddof=1)) if y.size > 1 else 0.0
    lam_g, alpha_g = _ge_moment_match(mean, var)
    starts: list = []

    def add(a=1.0, b=1.0, lam=1.0, alpha=1.0):
        starts.append(np.array([a, b, lam, alpha]))

    if model == "exp":
        add(lam=1.0 / mean)
    elif model == "ge":
        add(lam=lam_g, alpha=alpha_g)
        add(lam=1.0 / mean, alpha=1.0)
    elif model == "be":
        add(lam=1.0 / mean)
        for a0 in _SHAPE_GRID:
            for b0 in _SHAPE_GRID:
                lam0 = (specfun.digamma(a0 + b0) - specfun.digamma(b0)) / mean
                add(a=a0, b=b0, lam=lam0)
    elif model == "dge":
        for b0 in (1.0,) + _SHAPE_GRID:
            add(b=b0, lam=lam_g, alpha=alpha_g)
    elif model == "bge":
        add(lam=lam_g, alpha=alpha_g)
        for a0 in _SHAPE_GRID:
            for b0 in _SHAPE_GRID:
                add(a=a0, b=b0, lam=lam_g, alpha=alpha_g)
    else:
        raise ValueError(f"unknown model tag {model!r}; expected one of {sorted(MODEL_FREE_PARAMS)}")
    return starts


def fit_mle(data, model: str = "bge", init: BGE | None = None, *,
            log_bound: float = DEFAULT_LOG_BOUND,
            compute_covariance: bool = True) -> FitResult:
    """Maximum-likelihood fit of a BGE sub-model.

    Parameters
    ----------
    data : Sample or array-like
        Positive observations.
    model : str
        One of "bge", "be", "ge", "dge", "exp"; pinned parameters are 1.
    init : BGE, optional
        Starting point; when absent a deterministic multi-start ladder
        (moment-matched GE seed plus a shape grid) is used.  A start
        equal to an earlier one after clipping to the box is skipped: its
        run would repeat the earlier run exactly and lose the tie-break.
        Within a start the objective is memoized on the parameter vector,
        so L-BFGS-B restarts and repeated line-search points cost no
        second likelihood pass; the memo is cleared at each start.
    log_bound : float
        Half-width of the log-parameter search box.

    Returns
    -------
    FitResult
        Best point found: the best converged run, else the best run
        overall, ties broken by start index.  Non-convergence (including
        ridge terminations on the box) is reported, never raised.
    """
    from scipy.optimize import minimize

    if model not in MODEL_FREE_PARAMS:
        raise ValueError(f"unknown model tag {model!r}; expected one of {sorted(MODEL_FREE_PARAMS)}")
    y = _as_values(data)
    free = MODEL_FREE_PARAMS[model]
    free_idx = [PARAM_NAMES.index(p) for p in free]
    pinned = np.ones(4)

    # One start meets many theta twice: the check after each L-BFGS-B run
    # and the next run's x0 repeat the point it stopped at, and near
    # convergence distinct phi round to one theta.  memo holds one start.
    memo: dict = {}

    def objective(phi: np.ndarray):
        theta = pinned.copy()
        theta[free_idx] = np.exp(phi)
        key = theta.tobytes()
        if key not in memo:
            ll, g = _loglik_score(theta, y)
            memo[key] = (-ll, -(g[free_idx] * theta[free_idx]))
        f, neg_g = memo[key]
        return f, neg_g.copy()          # scipy keeps the arrays it is given

    if init is not None:
        starts = [np.array(init.params_tuple())]
    else:
        starts = _ladder(model, y)

    bounds = [(-log_bound, log_bound)] * len(free_idx)
    runs = []
    seen = set()
    for start_idx, theta0 in enumerate(starts):
        phi0 = np.clip(np.log(theta0[free_idx]), -log_bound + 1e-2, log_bound - 1e-2)
        if phi0.tobytes() in seen:
            continue    # a bit-for-bit rerun of an earlier start, which wins the tie-break
        seen.add(phi0.tobytes())
        memo.clear()
        nit = 0
        phi = phi0
        # restarts clear the L-BFGS memory, which pushes the gradient
        # further down on the shallow ridges this family produces
        for _ in range(4):
            res = minimize(objective, phi, jac=True, method="L-BFGS-B", bounds=bounds,
                           options=dict(maxiter=500, maxfun=2000, ftol=1e-15, gtol=1e-9))
            nit += res.nit
            moved = np.max(np.abs(res.x - phi)) if res.nit else 0.0
            phi = res.x
            _, neg_g = objective(phi)
            if np.max(np.abs(neg_g)) < 0.1 * _GRAD_TOL or (res.nit and moved == 0.0) \
                    or res.nit == 0:
                break
        at_lower = phi <= -log_bound + 1e-9
        at_upper = phi >= log_bound - 1e-9
        projected = neg_g.copy()
        projected[at_lower & (projected > 0)] = 0.0
        projected[at_upper & (projected < 0)] = 0.0
        pg_norm = float(np.max(np.abs(projected)))
        hit = tuple(free[idx] for idx in range(len(free)) if at_lower[idx] or at_upper[idx])
        converged = pg_norm < _GRAD_TOL and not hit
        runs.append((converged, -float(res.fun), start_idx, phi, pg_norm, hit, nit))

    converged_runs = [r for r in runs if r[0]]
    pool = converged_runs if converged_runs else runs
    best = max(pool, key=lambda r: (r[1], -r[2]))
    converged, loglik, _, phi, pg_norm, hit, nit = best

    theta = pinned.copy()
    theta[free_idx] = np.exp(phi)
    dist = BGE(*theta)

    cov = None
    if compute_covariance:
        try:
            K = information_matrix(dist).matrix
            Kf = K[np.ix_(free_idx, free_idx)] * y.size
            cov_f = np.linalg.inv(Kf)
            if np.all(np.isfinite(cov_f)):
                cov = np.zeros((4, 4))
                cov[np.ix_(free_idx, free_idx)] = cov_f
        except (NonIntegrableError, np.linalg.LinAlgError, ValueError, RuntimeError):
            cov = None

    return FitResult(model=model, params=dist, loglik=loglik, score_norm=pg_norm,
                     converged=converged, iterations=int(nit), n_obs=int(y.size),
                     hit_bounds=hit, covariance=cov)


def confidence_intervals(fit: FitResult, gamma: float = 0.05) -> dict:
    """Asymptotic per-parameter intervals theta_i -+ z_{gamma/2} * se_i.

    Uses the inverse total expected information at the fitted point;
    only the model's free parameters receive intervals.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if fit.covariance is None:
        raise ValueError("fit carries no covariance; cannot form intervals")
    free_idx = [PARAM_NAMES.index(p) for p in fit.free_names]
    cov_f = fit.covariance[np.ix_(free_idx, free_idx)]
    if np.any(np.linalg.eigvalsh(cov_f) <= 0.0):
        raise ValueError("covariance is not positive definite on the free parameters")
    z = NormalDist().inv_cdf(1.0 - gamma / 2.0)
    theta = np.array(fit.params.params_tuple())
    out = {}
    for pos, name in enumerate(fit.free_names):
        half = z * math.sqrt(cov_f[pos, pos])
        center = theta[PARAM_NAMES.index(name)]
        out[name] = (center - half, center + half)
    return out


@dataclass(frozen=True)
class LrTestResult:
    """Likelihood-ratio comparison of nested fits."""

    statistic: float
    dof: int
    p_value: float
    null_model: str
    alt_model: str


def lr_from_fits(fit_null: FitResult, fit_alt: FitResult) -> LrTestResult:
    null_free = set(MODEL_FREE_PARAMS[fit_null.model])
    alt_free = set(MODEL_FREE_PARAMS[fit_alt.model])
    if not null_free <= alt_free:
        raise ValueError(f"model {fit_null.model!r} is not nested in {fit_alt.model!r}")
    w = 2.0 * (fit_alt.loglik - fit_null.loglik)
    if w < -1e-6:
        raise RuntimeError(
            f"negative LR statistic {w:.3g}: alternative fit worse than null; optimizer failure")
    w = max(w, 0.0)
    dof = len(alt_free) - len(null_free)
    p = 1.0 if dof == 0 else specfun.chi2_sf(w, dof)
    return LrTestResult(statistic=w, dof=dof, p_value=p,
                        null_model=fit_null.model, alt_model=fit_alt.model)


def lr_test(data, null_model: str, alt_model: str) -> LrTestResult:
    """Fit both nested models and form w = 2(l_alt - l_null)."""
    fit_null = fit_mle(data, null_model, compute_covariance=False)
    fit_alt = fit_mle(data, alt_model, compute_covariance=False)
    return lr_from_fits(fit_null, fit_alt)


# -- structured-text serialization ------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.10g}"


def fit_result_kv(fit: FitResult) -> str:
    """Line-oriented key=value rendering with stable keys."""
    p = fit.params
    lines = [
        f"model={fit.model}",
        f"params.a={_fmt(p.a)}",
        f"params.b={_fmt(p.b)}",
        f"params.lambda={_fmt(p.lam)}",
        f"params.alpha={_fmt(p.alpha)}",
        f"loglik={_fmt(fit.loglik)}",
        f"score_norm={_fmt(fit.score_norm)}",
        f"converged={_fmt(fit.converged)}",
        f"iterations={_fmt(fit.iterations)}",
        f"n_obs={_fmt(fit.n_obs)}",
    ]
    if fit.hit_bounds:
        lines.append("hit_bounds=" + ",".join(fit.hit_bounds))
    return "\n".join(lines) + "\n"


def parse_fit_result_kv(text: str) -> FitResult:
    """Inverse of ``fit_result_kv`` (covariance is not serialized)."""
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()
    params = BGE(float(kv["params.a"]), float(kv["params.b"]),
                 float(kv["params.lambda"]), float(kv["params.alpha"]))
    hit = tuple(kv["hit_bounds"].split(",")) if "hit_bounds" in kv else ()
    return FitResult(model=kv["model"], params=params, loglik=float(kv["loglik"]),
                     score_norm=float(kv["score_norm"]),
                     converged=kv["converged"] == "true",
                     iterations=int(kv["iterations"]), n_obs=int(kv["n_obs"]),
                     hit_bounds=hit, covariance=None)


def lr_result_kv(lr: LrTestResult) -> str:
    return "\n".join([
        f"lr.null_model={lr.null_model}",
        f"lr.alt_model={lr.alt_model}",
        f"lr.statistic={_fmt(lr.statistic)}",
        f"lr.dof={_fmt(lr.dof)}",
        f"lr.p_value={_fmt(lr.p_value)}",
    ]) + "\n"
