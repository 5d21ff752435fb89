"""Maximum-likelihood machinery for the BGE family and its sub-models.

The likelihood is maximized in log-parameter space (all four parameters
are positive) by a projected Newton method with a trust region on the
analytic Hessian, from a deterministic multi-start ladder.  All starts
of a fit advance together as the rows of one batch, whose
log-likelihood, score and Hessian each pass takes from one broadcast
kernel; the public ``score`` is that kernel's score row at one point.
The ladders of the nested sub-models run in the same batch and their
optima seed the larger model, so a fit never ends below a model nested
in it.  The runs of the most recent dataset and box are
held, and later fits there reuse them bit for bit instead of running
them again.  The search domain is a documented box, |log theta_i| <= 4.5
by default: on some datasets the likelihood increases without bound
along a b -> infinity ridge on which the family degenerates to a
generalized gamma limit, so an unbounded "MLE" does not exist.  Fits
that terminate on the box are reported with ``converged=False`` and the
active bounds listed in ``hit_bounds``.  The expected information takes
its T-expectations as the rows of one call of the latent-expectation
engine (``distribution._latent_log_integrals``, a tanh-sinh rule on
cached nodes), and the fit takes psi and psi' from ``specfun``, so fits,
their covariance and likelihood-ratio tests load no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .distribution import (BGE, MODEL_FREE_PARAMS, PARAM_NAMES, NonIntegrableError, Sample,
                           _latent_log_integrals, _log_density, _log_norm)

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
    "t_expectation",
    "information_matrix",
    "fit_mle",
    "confidence_intervals",
    "lr_test",
    "lr_from_fits",
    "fit_result_kv",
    "parse_fit_result_kv",
    "lr_result_kv",
]

#: Half-width of the default search box in log-parameter space.
DEFAULT_LOG_BOUND = 4.5

_GRAD_TOL = 1e-6


def _as_values(data) -> np.ndarray:
    if isinstance(data, Sample):
        return data.values
    return Sample(np.asarray(data, dtype=float)).values


def _loglik_score_hessian(theta: np.ndarray, y: np.ndarray, logy: np.ndarray):
    """Log-likelihood (rows,), score (rows, 4) and Hessian (rows, 4, 4)
    in (a, b, lam, alpha) at each row of ``theta`` (rows, 4), from one
    broadcast pass of ``_log_density``; ``logy`` is log(y).

    The log-likelihood has the bits of ``log_likelihood`` at each row.
    The score and Hessian take psi and psi' of a, b and a + b from one
    call of the elementwise ``specfun._psi_trigamma``.
    With L = log u, L' = dL/dlam = y e^{-lam y}/u, L'' = -y^2 e^{-lam y}/u^2,
    M = log(1 - u^alpha) and r = u^alpha/(1 - u^alpha), the second
    derivatives need r(1 + r) = u^alpha/(1 - u^alpha)^2, which overflows
    where u^alpha rounds near 1; it is only formed in log space, inside
    its products with L^2, L L' and L'^2, which stay finite.  log(-L) and
    M are the log-density's, by its far-tail rule.
    """
    log_norm = np.array([[_log_norm(*row)] for row in theta.tolist()])
    logf, z, logu, alogu, log1mua, log_mlogu = _log_density(list(theta.T[:, :, None]), log_norm, y)
    ll = logf.sum(axis=1)

    log_yu = logy - logu                            # log(y/u)
    log_dl = log_yu - z                             # log L'
    log_r = alogu - log1mua
    log_rr = log_r - log1mua                        # log r(1 + r)
    # The eight sums are formed one at a time in one scratch array: a
    # pass that frees many (rows, n) temporaries lets the C heap shrink,
    # and the next pass then faults its pages back in.
    buf = np.empty_like(z)

    def sum_exp(*log_parts):
        """Row sums of exp(log_parts[0] + log_parts[1] + ...), the parts
        added left to right in ``buf``."""
        total = log_parts[0]
        for part in log_parts[1:]:
            total = np.add(total, part, out=buf)
        return np.exp(total, out=buf).sum(axis=1)

    two_log_mlogu, two_log_dl = 2.0 * log_mlogu, 2.0 * log_dl
    s_dl = sum_exp(log_dl)                              # L'
    s_rdl = sum_exp(log_r, log_dl)                      # r L'
    s_rl = sum_exp(log_r, log_mlogu)                    # -r L
    s_ddl = sum_exp(log_dl, log_yu)                     # -L''
    s_rrll = sum_exp(log_rr, two_log_mlogu)             # r(1 + r) L^2
    s_rrdd = sum_exp(log_rr, two_log_dl)                # r(1 + r) L'^2
    s_rrld = sum_exp(log_rr, log_dl, log_mlogu)         # -r(1 + r) L L'
    s_rddl = sum_exp(log_r, log_dl, log_yu)             # -r L''
    s_l, s_m = logu.sum(axis=1), log1mua.sum(axis=1)

    a, b, lam, alpha = theta.T
    n = y.size
    (psi_a, psi_b, psi_ab), (tri_a, tri_b, tri_ab) = specfun._psi_trigamma(
        np.array([a, b, a + b]))
    am1, bm1 = alpha * a - 1.0, b - 1.0
    score = np.stack([
        alpha * s_l - n * (psi_a - psi_ab),
        s_m - n * (psi_b - psi_ab),
        n / lam - y.sum() + am1 * s_dl - alpha * bm1 * s_rdl,
        n / alpha + a * s_l + bm1 * s_rl,
    ], axis=1)
    hess = np.empty((theta.shape[0], 4, 4))
    for (i, j), v in {(0, 0): n * (tri_ab - tri_a), (0, 1): n * tri_ab,
                      (1, 1): n * (tri_ab - tri_b), (0, 2): alpha * s_dl, (0, 3): s_l,
                      (1, 2): -alpha * s_rdl, (1, 3): s_rl,
                      (2, 2): -n / lam ** 2 - am1 * s_ddl - alpha * bm1 * (alpha * s_rrdd - s_rddl),
                      (2, 3): a * s_dl - bm1 * (s_rdl - alpha * s_rrld),
                      (3, 3): -n / alpha ** 2 - bm1 * s_rrll}.items():
        hess[:, i, j] = hess[:, j, i] = v
    return ll, score, hess


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
    return float(np.sum(dist.logpdf(_as_values(data))))


def score(dist: BGE, data) -> ScoreVector:
    """Analytic score (gradient of the total log-likelihood): the fit
    kernel's score row at ``dist``."""
    y = _as_values(data)
    theta = np.array([dist.params_tuple()])
    return ScoreVector(*_loglik_score_hessian(theta, y, np.log(y))[1][0].tolist())


# -- expectations over the latent beta variate ----------------------------------


def t_expectation(dist: BGE, i: int, j: int, k: int, l: int, m: int) -> float:
    """The paper's T_{i,j,k,l,m}:
    E[(1-V)^-i (1-V^(1/alpha))^j V^(i-k/alpha) log(1-V^(1/alpha))^l (log V)^m]
    for V ~ Beta(a, b), indices in {0, 1, 2}.

    Near v=1 the integrand scales like (1-v)^(b-1-i+j+m) up to logs, so
    the expectation is finite iff b > i - j - m; the symmetric condition
    at v=0 is a + i + (l-k)/alpha > 0.

    The integral is one row of the latent-expectation engine,
    ``distribution._latent_log_integrals``: a tanh-sinh rule truncated
    where 1 - v or v is near e^-4682, by which the integrand has decayed
    like (1-v)^(b-i+j+m) or v^(a+i+(l-k)/alpha), with every factor in
    log space.  A row that does not converge raises
    ``NonIntegrableError``, as a divergent index set does.
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
    return _t_expectations(dist, [(i, j, k, l, m)])[0]


def _t_expectations(dist: BGE, index_sets) -> list:
    """T_{i,j,k,l,m} for each index set, as the rows of one engine call."""
    a, b, alpha = dist.a, dist.b, dist.alpha
    rows = [(a - 1.0 + i - k / alpha, b - 1.0 - i, m, j, l, 0, 0) for i, j, k, l, m in index_sets]
    return [(-1.0 if (l + m) % 2 else 1.0) * math.exp(log_integral - specfun.log_beta(a, b))
            for (i, j, k, l, m), log_integral in zip(index_sets, _latent_log_integrals(dist, rows))]


@dataclass(frozen=True)
class InfoMatrix:
    """Expected information per observation, with the entries taken by
    quadrature instead of their closed form (the (b, alpha) entry at
    b = 1)."""

    matrix: np.ndarray
    fallback_entries: tuple = ()


def information_matrix(dist: BGE) -> InfoMatrix:
    """Unit expected information matrix K(theta).

    Entries combine polygamma terms with T-expectations.  At b = 1 the
    closed form of the (b, alpha) entry is 0/0, so the entry is taken by
    quadrature instead and listed in ``fallback_entries``.  The 11
    T-expectations (12 at b = 1) are the rows of one engine call, each
    fixed at the level where it converges, so each equals its
    ``t_expectation``.  Every index set used has i - j - m <= 0 and
    l >= k, so each T-expectation is finite for all a, b > 0; a row
    that does not converge raises ``NonIntegrableError``, which
    ``fit_mle`` reports as ``covariance=None``.
    """
    a, b, lam, alpha = dist.params_tuple()
    psi, psi1 = specfun.digamma, specfun.trigamma
    at_b1 = abs(b - 1.0) <= 1e-8
    index_sets = [(0, 1, 1, 1, 0), (1, 1, 1, 1, 0), (0, 2, 2, 2, 0), (0, 1, 1, 2, 0),
                  (2, 2, 2, 2, 0), (1, 2, 2, 2, 0), (1, 1, 1, 2, 0), (2, 1, 1, 1, 1),
                  (1, 1, 1, 1, 1), (2, 0, 0, 0, 2), (1, 0, 0, 0, 2)]
    if at_b1:
        index_sets.append((1, 0, 0, 0, 1))
    T = dict(zip(index_sets, _t_expectations(dist, index_sets)))

    entries = {
        "a,a": psi1(a) - psi1(a + b),
        "a,b": -psi1(a + b),
        "a,lam": alpha / lam * T[0, 1, 1, 1, 0],
        "a,alpha": (psi(a + b) - psi(a)) / alpha,
        "b,b": psi1(b) - psi1(a + b),
        "b,lam": -alpha / lam * T[1, 1, 1, 1, 0],
        # the closed form is 0/0 at b = 1; take the quadrature route
        "b,alpha": (T[1, 0, 0, 0, 1] / alpha if at_b1
                    else (a * (psi(a) - psi(a + b)) + 1.0) / (alpha * (b - 1.0))),
        "lam,lam": (1.0
                    + (alpha * a - 1.0) * (T[0, 2, 2, 2, 0] + T[0, 1, 1, 2, 0])
                    + alpha * (b - 1.0) * (alpha * T[2, 2, 2, 2, 0]
                                           + (alpha - 1.0) * T[1, 2, 2, 2, 0]
                                           - T[1, 1, 1, 2, 0])) / lam ** 2,
        "lam,alpha": (a * T[0, 1, 1, 1, 0]
                      - (b - 1.0) * (T[1, 1, 1, 1, 0] + T[2, 1, 1, 1, 1]
                                     + T[1, 1, 1, 1, 1])) / lam,
        "alpha,alpha": (1.0 + (b - 1.0) * (T[2, 0, 0, 0, 2]
                                           + T[1, 0, 0, 0, 2])) / alpha ** 2,
    }

    K = np.empty((4, 4))
    pos = {name: idx for idx, name in enumerate(PARAM_NAMES)}
    for name, v in entries.items():
        p, q = name.split(",")
        K[pos[p], pos[q]] = K[pos[q], pos[p]] = v
    return InfoMatrix(K, fallback_entries=("b,alpha",) if at_b1 else ())


# -- fitting ---------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    ``score_norm`` is the infinity norm of the projected log-space
    gradient at the returned point.  ``converged`` requires that norm
    below 1e-6 with no active search-box bound; fits stopped on the box
    (likelihood-ridge degeneracy) list the offending parameters in
    ``hit_bounds``.  ``iterations`` counts the Newton steps that the
    selected run accepted from its start; a run seeded by a sub-model's
    optimum counts from that optimum.  ``covariance`` is the inverse
    total expected information embedded in a 4x4 with zero rows/columns
    for pinned parameters, or None when it could not be computed.
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


def _ladders(models, y: np.ndarray) -> dict:
    """Deterministic starting points (full 4-vectors, pinned entries = 1)
    of each model."""
    mean = float(y.mean())
    var = float(y.var(ddof=1)) if y.size > 1 else 0.0
    lam_g, alpha_g = _ge_moment_match(mean, var)
    return {m: _ladder(m, mean, lam_g, alpha_g) for m in models}


def _ladder(model: str, mean: float, lam_g: float, alpha_g: float) -> list:
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


#: The sub-models whose selected optima seed a model's fit, each listed
#: after the ones that seed it: they run in the model's batch, first.
_SEEDS = {"dge": ("ge",), "bge": ("be", "ge", "dge")}
#: A row stops once its projected log-space gradient is this small, once
#: its next step cannot change theta, or after this many evaluations.
_STOP_TOL = 1e-9
_MAX_EVALS = 200
#: Initial and largest trust-region radius, in log-parameter units.
_RADIUS0, _RADIUS_MAX = 1.0, 4.0
_BOUND_SLACK = 1e-9
#: Observations times rows per kernel call, which bounds its temporaries.
_KERNEL_BLOCK = 4096
#: Relative rounding noise of a log-likelihood sum, per unit of |loglik| + n.
_F_NOISE = 1e-13
#: ((bytes of y, log_bound), what ``_ascend`` holds) of the last dataset
#: fitted by ladder; a fit reads it once, so a concurrent one on other
#: data can cost it the reuse but never mix two datasets' runs.
_held: tuple = (None, {})


def _projected(phi, free, g, lo, hi):
    """(projected gradient, free coordinates on the box) of rows of phi."""
    at_lo, at_hi = phi <= lo + _BOUND_SLACK, phi >= hi - _BOUND_SLACK
    proj = np.where(free & ~(at_lo & (g < 0.0)) & ~(at_hi & (g > 0.0)), g, 0.0)
    return proj, free & (at_lo | at_hi)


def _trust_step(phi, free, g, hess, radius, lo, hi):
    """Steps of a projected Newton method with a trust region (Bertsekas
    1982; More & Sorensen 1983), one per row.

    Coordinates that are pinned, or on the box with the gradient or the
    step pointing out of it, stay fixed.  On the rest the step maximizes
    the quadratic model within ``radius``: the Newton step where -H is
    positive definite and the step fits, else the step of the
    Levenberg-Marquardt parameter mu found by Newton's method on
    1/|d(mu)| - 1/radius, from the eigendecomposition of the free block
    of -H.
    """
    on_lo, on_hi = phi <= lo, phi >= hi
    fixed = ~free | (on_lo & (g < 0.0)) | (on_hi & (g > 0.0))
    for _ in range(4):
        d = _model_step(fixed, g, hess, radius)
        out = ~fixed & ((on_lo & (d < 0.0)) | (on_hi & (d > 0.0)))
        if not out.any():
            return d
        fixed = fixed | out
    return _model_step(fixed, g, hess, radius)


def _model_step(fixed, g, hess, radius):
    """The trust-region step of ``_trust_step`` with ``fixed`` coordinates held."""
    gm = np.where(fixed, 0.0, g)
    neg_h = np.where(fixed[:, :, None] | fixed[:, None, :], 0.0, -hess)
    neg_h[:, range(4), range(4)] += fixed
    lam, vec = np.linalg.eigh(neg_h)
    q = np.einsum("kij,ki->kj", vec, gm)
    q2 = q ** 2
    lmin = lam[:, 0]
    # mu > max(0, -lmin) keeps -H + mu I positive definite
    mu_lo = np.where(lmin > 0.0, 0.0, 1e-12 * (1.0 + np.abs(lam).max(axis=1)) - lmin)
    mu = mu_lo
    for _ in range(30):
        den = lam + mu[:, None]
        norm2 = np.sum(q2 / den ** 2, axis=1)
        norm = np.sqrt(norm2)
        far = (norm > 1.1 * radius) | ((mu > mu_lo) & (norm < 0.9 * radius))
        if not far.any():
            break
        step = norm2 / np.sum(q2 / den ** 3, axis=1) * (norm - radius) / radius
        mu = np.where(far, np.maximum(mu + step, mu_lo), mu)
    d = np.einsum("kij,kj->ki", vec, q / (lam + mu[:, None]))
    # the hard case: gm has no component along the most negative curvature
    hard = (lmin < 0.0) & (norm < 0.9 * radius)
    if hard.any():
        tau = np.sqrt(np.maximum(radius ** 2 - np.sum(d ** 2, axis=1), 0.0))
        d = d + np.where(hard, tau, 0.0)[:, None] * vec[:, :, 0]
    return np.where(fixed, 0.0, d)


def _to_box(phi, d, lo, hi):
    """phi + t d with the largest t <= 1 that keeps the point in the box,
    the coordinates that reach the box set on it; coordinates already on
    the box that d points out of stay there."""
    d = np.where(((phi >= hi) & (d > 0.0)) | ((phi <= lo) & (d < 0.0)), 0.0, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hit = np.where(d > 0.0, (hi - phi) / d, np.where(d < 0.0, (lo - phi) / d, np.inf))
    t = np.minimum(np.min(t_hit, axis=1, keepdims=True), 1.0)
    return np.where(t_hit <= t, np.where(d > 0.0, hi, lo), np.clip(phi + t * d, lo, hi))


def _log_space(theta, score, hess):
    """Score and Hessian in phi = log theta."""
    g = score * theta
    h = hess * theta[:, :, None] * theta[:, None, :]
    h[:, range(4), range(4)] += g
    return g, h


def _ascend(y: np.ndarray, plan: list, starts: dict, log_bound: float, held=None) -> dict:
    """Runs every start of every model in ``plan`` that ``held`` lacks as
    one row of a batch, and returns ``held`` with each model's selected
    run and the score and Hessian of its row added.

    Each pass evaluates the log-likelihood, score and Hessian of every
    live row by ``_loglik_score_hessian``, in blocks of at most
    ``_KERNEL_BLOCK`` rows times observations.  A row's trajectory
    depends on its start and the data alone, so a model's run is the same
    in every batch it takes part in.  Once every row of a model has
    stopped, its selected optimum goes back in as two rows of each model
    in ``plan`` that it seeds: one that ascends from it and one that
    stays there, so that the larger model's selection, which may not end
    below it, always has it to choose.  A model in ``held`` (same data
    and box) goes back in the same way before the first pass.
    """
    held = {} if held is None else held
    logy = np.log(y)
    block = max(1, _KERNEL_BLOCK // y.size)
    lo, hi = -log_bound, log_bound
    masks = {m: np.isin(PARAM_NAMES, MODEL_FREE_PARAMS[m]) for m in plan}
    phi, group = [], []
    to_run = [(k, m) for k, m in enumerate(plan) if m not in held]
    for k, m in to_run:
        seen = set()
        for theta0 in starts[m]:
            p = np.where(masks[m], np.clip(np.log(theta0), lo + 1e-2, hi - 1e-2), 0.0)
            if p.tobytes() in seen:
                continue    # a bit-for-bit rerun of an earlier start, which wins the tie-break
            seen.add(p.tobytes())
            phi.append(p), group.append(k)
    ladder = np.arange(len(group))
    seeds = []                                  # (sub-model, row that stays, row that ascends)
    for k, m in to_run:
        for sub in _SEEDS.get(m, ()):
            if sub in plan:
                seeds.append((sub, len(group), len(group) + 1))
                phi += [np.zeros(4)] * 2
                group += [k, k]
    phi, group = np.array(phi), np.array(group)
    rows = group.size
    free = np.array([masks[m] for m in plan])[group]
    anchor = np.zeros(rows, bool)
    anchor[[stay for _, stay, _ in seeds]] = True
    f, g, hess = np.full(rows, -np.inf), np.zeros((rows, 4)), np.zeros((rows, 4, 4))
    radius = np.full(rows, _RADIUS0)
    live = np.zeros(rows, bool)
    evals, steps = np.zeros(rows, int), np.zeros(rows, int)

    def evaluate(pts):
        theta = np.exp(pts)
        ll, sc, hs = (np.concatenate(part) for part in zip(*(
            _loglik_score_hessian(theta[i:i + block], y, logy)
            for i in range(0, len(theta), block))))
        gp, hp = _log_space(theta, sc, hs)
        ll = np.where(np.isnan(ll), -np.inf, ll)
        finite = np.isfinite(ll) & np.isfinite(gp).all(axis=1) & np.isfinite(hp).all(axis=(1, 2))
        return ll, gp, hp, finite

    def stop_converged(idx):
        proj, _ = _projected(phi[idx], free[idx], g[idx], lo, hi)
        done = (np.max(np.abs(proj), axis=1) <= _STOP_TOL) | (evals[idx] >= _MAX_EVALS)
        live[idx[done]] = False

    def choose(m, run):
        held[m] = run
        for sub, stay, go in seeds:
            if sub == m:
                phi[[stay, go]], f[[stay, go]], g[[stay, go]], hess[[stay, go]] = \
                    run[0], run[1], run[6], run[7]
                live[go] = True
                stop_converged(np.array([go]))

    def close_models():
        for k, m in enumerate(plan):
            mine = np.flatnonzero(group == k)
            if m in held or live[mine].any() or any(
                    sub in plan and sub not in held for sub in _SEEDS.get(m, ())):
                continue
            proj, hit = _projected(phi[mine], free[mine], g[mine], lo, hi)
            pg = np.max(np.abs(proj), axis=1)
            conv = (pg < _GRAD_TOL) & ~hit.any(axis=1)
            floor = np.max(f[mine], where=anchor[mine], initial=-np.inf)
            pool = np.flatnonzero(conv & (f[mine] >= floor))
            if pool.size == 0:
                pool = np.arange(mine.size)
            best = pool[np.argmax(f[mine][pool])]       # the first of equal maxima
            r = mine[best]
            choose(m, (phi[r], f[r], pg[best], bool(conv[best]),
                       tuple(p for p, h in zip(PARAM_NAMES, hit[best]) if h), int(steps[r]),
                       g[r], hess[r]))

    for m, run in list(held.items()):
        choose(m, run)
    f[ladder], g[ladder], hess[ladder], live[ladder] = evaluate(phi[ladder])
    evals[ladder] = 1
    stop_converged(ladder)
    close_models()
    while live.any():
        stepping = np.flatnonzero(live)
        d = _trust_step(phi[stepping], free[stepping], g[stepping], hess[stepping],
                        radius[stepping], lo, hi)
        cand = _to_box(phi[stepping], d, lo, hi)
        still = np.all(np.exp(cand) == np.exp(phi[stepping]), axis=1)
        live[stepping[still]] = False           # theta can no longer move
        stepping, cand, d = stepping[~still], cand[~still], d[~still]
        if stepping.size:
            ll, gp, hp, finite = evaluate(cand)
            evals[stepping] += 1
            s = cand - phi[stepping]
            g0 = g[stepping]
            pred = np.sum(g0 * s, axis=1) + 0.5 * np.einsum("ki,kij,kj->k", s, hess[stepping], s)
            gain = ll - f[stepping]
            # Within the rounding noise of the log-likelihood its change
            # says nothing: a step the model predicts to gain no more than
            # that is accepted when it shrinks the projected gradient.
            noise = _F_NOISE * (np.abs(f[stepping]) + y.size)
            pg_old = np.max(np.abs(_projected(phi[stepping], free[stepping], g0, lo, hi)[0]), axis=1)
            pg_new = np.max(np.abs(_projected(cand, free[stepping], gp, lo, hi)[0]), axis=1)
            ok = finite & ((gain > 0.0) | ((pred < noise) & (gain > -noise) & (pg_new < pg_old)))
            rho = np.where(pred > 0.0, gain / np.where(pred > 0.0, pred, 1.0), -1.0)
            full = np.sqrt(np.sum(d ** 2, axis=1)) >= 0.99 * radius[stepping]
            radius[stepping] = np.where(
                ~ok | (rho < 0.25), 0.25 * np.sqrt(np.sum(s ** 2, axis=1)),
                np.where((rho > 0.75) & full, np.minimum(2.0 * radius[stepping], _RADIUS_MAX),
                         radius[stepping]))
            acc = stepping[ok]
            phi[acc], f[acc], g[acc], hess[acc] = cand[ok], ll[ok], gp[ok], hp[ok]
            steps[acc] += 1
            stop_converged(stepping)
        close_models()
    return held


def fit_mle(data, model: str = "bge", init: BGE | None = None, *,
            log_bound: float = DEFAULT_LOG_BOUND,
            compute_covariance: bool = True) -> FitResult:
    """Maximum-likelihood fit of a BGE sub-model.

    The log-likelihood is maximized in phi = log theta over the box
    |phi_i| <= ``log_bound`` by a projected Newton method with a trust
    region on the analytic Hessian.  Every start of the fit advances as
    one row of a batch, whose log-likelihood, score and Hessian each pass
    takes from one broadcast kernel.  A step is accepted when it
    raises the log-likelihood or, where the model predicts a gain below
    the sum's rounding noise, when it shrinks the projected gradient.  A
    row stops once its projected gradient is below 1e-9, once its next
    step cannot change theta, or after 200 evaluations.  The returned
    ``loglik`` is ``log_likelihood`` at the returned point, bit for bit.

    Parameters
    ----------
    data : Sample or array-like
        Positive observations.
    model : str
        One of "bge", "be", "ge", "dge", "exp"; pinned parameters are 1.
    init : BGE, optional
        Starting point; when absent a deterministic multi-start ladder
        (moment-matched GE seed plus a shape grid) is used.  A start
        equal to an earlier one after clipping to the box is skipped.
        Without ``init``, "dge" also runs the "ge" ladder and "bge" the
        "ge", "be" and "dge" ladders in the same batch; each sub-model's
        selected optimum (what ``fit_mle`` returns for it) then joins
        the larger model's batch as one more start, so a fit never ends
        below a model nested in it.  The runs of the last data and
        ``log_bound`` fitted without ``init`` are held and reused bit for
        bit; an ``init`` fit neither reads nor adds to them.
    log_bound : float
        Half-width of the log-parameter search box.

    Returns
    -------
    FitResult
        The best converged run that is not below a seeding sub-model's
        optimum, else the best run overall (the seeding optima among
        them), ties broken by start order.
        Non-convergence (including ridge terminations on the box) is
        reported, never raised.
    """
    if model not in MODEL_FREE_PARAMS:
        raise ValueError(f"unknown model tag {model!r}; expected one of {sorted(MODEL_FREE_PARAMS)}")
    global _held
    y = _as_values(data)
    if init is not None:
        held = _ascend(y, [model], {model: [np.array(init.params_tuple())]}, log_bound)
    else:
        key = (y.tobytes(), log_bound)
        held_key, held = _held
        if held_key != key:
            held = {}
            _held = (key, held)
        if model not in held:
            plan = [*_SEEDS.get(model, ()), model]
            _ascend(y, plan, _ladders([m for m in plan if m not in held], y), log_bound, held)
    phi, loglik, pg_norm, converged, hit, steps, *_ = held[model]
    dist = BGE(*np.exp(phi))
    free_idx = [PARAM_NAMES.index(p) for p in MODEL_FREE_PARAMS[model]]

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

    return FitResult(model=model, params=dist, loglik=float(loglik), score_norm=float(pg_norm),
                     converged=converged, iterations=steps, n_obs=int(y.size),
                     hit_bounds=hit, covariance=cov)


def confidence_intervals(fit: FitResult, gamma: float = 0.05) -> dict:
    """Asymptotic per-parameter intervals theta_i -+ z_{gamma/2} * se_i.

    Uses the inverse total expected information at the fitted point;
    only the model's free parameters receive intervals, each end a
    Python float.  Raises ``ValueError`` when that covariance is missing
    or not positive definite on the free parameters.
    """
    from statistics import NormalDist

    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if fit.covariance is None:
        raise ValueError("fit carries no covariance; cannot form intervals")
    free_idx = [PARAM_NAMES.index(p) for p in fit.free_names]
    cov_f = fit.covariance[np.ix_(free_idx, free_idx)]
    var = np.diag(cov_f)
    # definiteness is tested on the correlation form: at a box-corner fit
    # the variances span 1e16 and more, and the eigenvalues of cov_f
    # itself then carry rounding errors larger than its smallest one
    if not (np.all(var > 0.0) and np.all(
            np.linalg.eigvalsh(cov_f / np.sqrt(np.outer(var, var))) > 0.0)):
        raise ValueError("covariance is not positive definite on the free parameters")
    z = NormalDist().inv_cdf(1.0 - gamma / 2.0)
    out = {}
    for pos, name in enumerate(fit.free_names):
        half = z * math.sqrt(var[pos])
        center = getattr(fit.params, name)
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
    if fit_null.n_obs != fit_alt.n_obs:
        raise ValueError(f"fits of different data: n_obs {fit_null.n_obs} and {fit_alt.n_obs}")
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
    if isinstance(v, (bool, np.bool_)):
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
