import math
import pathlib

import numpy as np
import pytest
from scipy import optimize, special, stats

from bgedist import BGE, glass_fibre_sample
from bgedist.distribution import _TS_H0, _TS_LEVELS, _tanh_sinh_level
from bgedist.inference import score_contributions

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (name, ok, detail) tuples collected by the acceptance module.
ACCEPTANCE_RESULTS: list = []


def mc_expected_information(dist, n_draws, rng, rel_step=1e-5):
    """Monte Carlo estimate of E[-d^2 l / d theta d theta^T] per observation.

    Central finite differences of the analytic per-observation score
    over ``n_draws`` draws from ``dist``.  Returns (estimate,
    standard_errors), both 4x4.
    """
    y = dist.sample(n_draws, rng).values
    theta = np.array(dist.params_tuple())
    cols = []
    for idx in range(4):
        h = rel_step * theta[idx]
        tp = theta.copy(); tp[idx] += h
        tm = theta.copy(); tm[idx] -= h
        cols.append((score_contributions(BGE(*tp), y)
                     - score_contributions(BGE(*tm), y)) / (2.0 * h))
    hess = np.stack(cols, axis=1)               # (n, 4, 4), d s_j / d theta_i
    hess = 0.5 * (hess + np.transpose(hess, (0, 2, 1)))
    est = -hess.mean(axis=0)
    se = hess.std(axis=0, ddof=1) / math.sqrt(n_draws)
    return est, se


def latent_score_information(dist):
    """Expected information per observation, K = E[s s^T], with the score
    s of one observation written in the latent variate V ~ Beta(a, b) of
    x = -log(1 - V^(1/alpha)) / lam.

    The expectation is a sum over every node of the shared tanh-sinh rule
    at its finest step, each weighted by the Beta(a, b) density.  Every
    factor is formed from log V and log(1 - V), not from x, which loses
    1 - V below 1e-16.  With z = -log V / alpha and L = lam x =
    -log(1 - e^-z), the scaled scores are
    lam s_lam = 1 - L + (alpha a - 1) L (e^z - 1) - alpha (b - 1) L (e^z - 1) V / (1 - V)
    and alpha s_alpha = 1 + a log V - (b - 1) V log V / (1 - V), whose
    last ratio is -exp(log V + log(-log V) - log(1 - V)), finite as V -> 1.
    """
    a, b, lam, alpha = dist.params_tuple()
    logv, log1mv, loglogv, logw = np.concatenate(
        [_tanh_sinh_level(k) for k in range(_TS_LEVELS)], axis=1)
    weight = (_TS_H0 / 2 ** (_TS_LEVELS - 1)) * np.exp(
        logw + (a - 1.0) * logv + (b - 1.0) * log1mv - special.betaln(a, b))
    log_z = loglogv - math.log(alpha)
    z = np.exp(log_z)
    with np.errstate(divide="ignore"):
        # log(1 - e^-z), each branch accurate on its own range
        log1mu = np.where(z < 1e-8, log_z - 0.5 * z, np.where(
            z < math.log(2.0), np.log(-np.expm1(-z)), np.log1p(-np.exp(-z))))
        log_l = np.where(z > 30.0, -z, np.log(-log1mu))      # L = e^-z (1 + O(e^-z))
    log_e1 = log_l + z + log1mu                              # log L (e^z - 1)
    e1, e2 = np.exp(log_e1), np.exp(log_e1 + logv - log1mv)
    psi_ab = special.digamma(a + b)
    s = np.stack([
        logv - special.digamma(a) + psi_ab,
        log1mv - special.digamma(b) + psi_ab,
        (1.0 - np.exp(log_l) + (alpha * a - 1.0) * e1 - alpha * (b - 1.0) * e2) / lam,
        (1.0 + a * logv + (b - 1.0) * np.exp(logv + loglogv - log1mv)) / alpha,
    ])
    return (s * weight) @ s.T


@pytest.fixture(scope="session")
def glass_fibre():
    return glass_fibre_sample()


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture(scope="session")
def parameter_grid():
    """3x3x3x3 grid spanning {0.5, 1, 2.5} per parameter."""
    vals = (0.5, 1.0, 2.5)
    return [BGE(a, b, lam, alpha)
            for a in vals for b in vals for lam in vals for alpha in vals]


@pytest.fixture(scope="session")
def be_glass_fibre_oracle():
    """Bounded BE maximum likelihood on the glass-fibre data, without bgedist.

    The beta-exponential log-density log(lam) - log B(a, b) - b*lam*y
    + (a - 1)*log(1 - exp(-lam*y)) is written directly in scipy and read
    against data/glass_fibre.txt.  On these data the likelihood rises
    along b -> infinity, so the maximum over the box |log theta| <= 4.5
    lies on its b edge: (a, lam) are profiled at b = e^4.5 by
    Nelder-Mead in log space from the gamma limit, then polished by
    BFGS with the analytic score.  As b -> infinity with b*lam fixed the
    family tends to gamma(a, rate b*lam), whose ML log-likelihood
    (``gamma_sup``) is the supremum along the ridge.
    """
    y = np.loadtxt(REPO_ROOT / "data" / "glass_fibre.txt")
    b = math.exp(4.5)

    def neg_loglik(log_theta):
        a, lam = np.exp(log_theta)
        log_u = np.log(-np.expm1(-lam * y))
        ll = np.sum(np.log(lam) - special.betaln(a, b) - b * lam * y
                    + (a - 1.0) * log_u)
        d_a = np.sum(special.digamma(a + b) - special.digamma(a) + log_u)
        d_lam = np.sum(1.0 / lam - b * y + (a - 1.0) * y / np.expm1(lam * y))
        return -ll, -np.array([a * d_a, lam * d_lam])

    shape, _, scale = stats.gamma.fit(y, floc=0.0)
    gamma_sup = float(np.sum(stats.gamma.logpdf(y, shape, scale=scale)))
    start = [math.log(shape), -math.log(b * scale)]
    nm = optimize.minimize(lambda t: neg_loglik(t)[0], start, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-13})
    polish = optimize.minimize(neg_loglik, nm.x, jac=True, method="BFGS",
                               options={"gtol": 1e-8})
    assert np.max(np.abs(polish.jac)) < 1e-4  # a stationary point of the profile
    a, lam = np.exp(polish.x)
    return {"a": float(a), "b": b, "lam": float(lam),
            "loglik": -float(polish.fun), "gamma_sup": gamma_sup}


@pytest.fixture(scope="session")
def bge_glass_fibre_oracle():
    """Bounded BGE maximum likelihood on the glass-fibre data, without bgedist.

    The BGE log-density log(alpha) + log(lam) - log B(a, b) - lam*y
    + (a*alpha - 1)*log(u) + (b - 1)*log(1 - u^alpha), u = 1 - exp(-lam*y),
    is written directly in scipy and read against data/glass_fibre.txt.
    As for BE, the likelihood rises along b -> infinity (errata.json), so
    the maximum over the box |log theta| <= 4.5 lies on its b edge:
    (a, lam, alpha) are profiled at b = e^4.5 by Nelder-Mead in log space
    from the published BGE point, then polished by BFGS with the analytic
    score.
    """
    y = np.loadtxt(REPO_ROOT / "data" / "glass_fibre.txt")
    b = math.exp(4.5)

    def neg_loglik(log_theta):
        a, lam, alpha = np.exp(log_theta)
        log_u = np.log(-np.expm1(-lam * y))
        u_alpha = np.exp(alpha * log_u)
        one_m = -np.expm1(alpha * log_u)             # 1 - u^alpha
        dlog_u = y / np.expm1(lam * y)               # d log(u) / d lam
        ll = np.sum(np.log(alpha) + np.log(lam) - special.betaln(a, b) - lam * y
                    + (a * alpha - 1.0) * log_u + (b - 1.0) * np.log(one_m))
        d_a = np.sum(special.digamma(a + b) - special.digamma(a) + alpha * log_u)
        d_lam = np.sum(1.0 / lam - y + (a * alpha - 1.0) * dlog_u
                       - (b - 1.0) * alpha * u_alpha * dlog_u / one_m)
        d_alpha = np.sum(1.0 / alpha + a * log_u - (b - 1.0) * u_alpha * log_u / one_m)
        return -ll, -np.array([a * d_a, lam * d_lam, alpha * d_alpha])

    start = np.log([0.4125, 0.92271, 22.6124])     # the published (a, lam, alpha)
    nm = optimize.minimize(lambda t: neg_loglik(t)[0], start, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 20000})
    polish = optimize.minimize(neg_loglik, nm.x, jac=True, method="BFGS",
                               options={"gtol": 1e-8})
    assert np.max(np.abs(polish.jac)) < 1e-4  # a stationary point of the profile
    a, lam, alpha = np.exp(polish.x)
    return {"a": float(a), "b": b, "lam": float(lam), "alpha": float(alpha),
            "loglik": -float(polish.fun)}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        flag = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{flag}] {name}: {detail}")
