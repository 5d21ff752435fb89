"""The box contract: public functions against independent oracles at
300 points log-uniform over the parameter box [e^-4.5, e^4.5]^4.

The design is the one ``TestBoxSweep`` uses, ``default_rng(0)``.  A
function joins with its oracle and tolerance once it is measured to
hold over the whole box.  ``TestBoxSweep`` stops at lam x = e^6.5, so
the far tail of the transform, where 1 - e^(-lam x) rounds to 1 past
lam x = 37 and its log to 0 past 745, has rows of its own.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from bgedist import BGE
from bgedist.inference import information_matrix
from bgedist.order_stats import OrderStatIndex, order_stat_mgf
from bgedist.series import mgf, moment_set, raw_moment
from bgedist.specfun import log_beta

from conftest import latent_score_information


@pytest.fixture(scope="module")
def box():
    rng = np.random.default_rng(0)
    return [BGE(*map(float, p)) for p in np.exp(rng.uniform(-4.5, 4.5, size=(300, 4)))]


def test_information_matrix_matches_latent_score_oracle(box):
    # every entry within 1e-6 of K = E[s s^T], relative to sqrt(K_ii K_jj)
    for d in box:
        want = latent_score_information(d)
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        err = np.abs(information_matrix(d).matrix - want) / scale
        assert err.max() <= 1e-6, (d, err.max())


def test_raw_moment_is_moment_set_row(box):
    # one engine row per order, whatever the batch: the same bits
    for d in box:
        ms = moment_set(d)
        assert [raw_moment(d, r) for r in (1, 2, 3, 4)] == [ms.mu1, ms.mu2, ms.mu3, ms.mu4], d


def test_mgf_at_minus_lam_matches_closed_form(box):
    # e^(-lam X) = 1 - W, W = V^(1/alpha), so M(-lam) = 1 - B(a + 1/alpha, b) / B(a, b)
    for d in box:
        want = -math.expm1(log_beta(d.a + 1.0 / d.alpha, d.b) - log_beta(d.a, d.b))
        assert mgf(d, -d.lam) == pytest.approx(want, rel=1e-10, abs=0.0), d


def test_order_stat_mgf_at_minus_lam_raises_nowhere(box):
    # E[e^(-lam X)] lies in (0, 1]; where W is tiny it rounds to a few ulps above 1
    for d in box:
        assert 0.0 < order_stat_mgf(d, OrderStatIndex(2, 3), -d.lam) < 1.0 + 1e-13, d


@pytest.mark.parametrize("delta", [0.0034, 0.0044])
def test_mgf_refuses_where_the_rule_drops_mass(delta):
    # t = lam (b - delta): the rule would drop ~e^(-4682 delta) of the mass,
    # 1e-7 and 1e-9 here, so the mgf raises rather than return a value short by it
    d = BGE(2.0, 0.3, 1.0, 1.0)
    with pytest.raises(ValueError, match="lam b"):
        mgf(d, d.b - delta)


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_mgf_matches_be_closed_form(a):
    # alpha = 1: M(t) = B(a, b - t/lam) / B(a, b), on t/(lam b) in {-10, -1, 0.5, 0.9};
    # at b = 0.02 and 0.9, b - t/lam = 0.002 is inside the refused band
    lam = 1.3
    for b in (0.02, 0.5, 2.0, 50.0):
        d = BGE(a, b, lam, 1.0)
        for f in (-10.0, -1.0, 0.5, 0.9):
            t = f * lam * b
            if b - t / lam < 0.0059:
                with pytest.raises(ValueError):
                    mgf(d, t)
                continue
            with mp.workdps(30):
                want = float(mp.beta(a, b - mp.mpf(t) / lam) / mp.beta(a, b))
            assert mgf(d, t) == pytest.approx(want, rel=1e-12), (d, t)
    d = BGE(2.0, 0.3, 1.0, 1.0)
    t = 0.29  # b - t/lam = 0.01
    with mp.workdps(30):
        want = float(mp.beta(2, mp.mpf(0.3) - mp.mpf(t)) / mp.beta(2, mp.mpf(0.3)))
    assert mgf(d, t) == pytest.approx(want, rel=1e-12)


def _mp_log_one_minus_g(d, x):
    """log(1 - G(x)) = log(-expm1(alpha log u)) and log u =
    log1p(-e^(-lam x)) in mpmath at the double x: every digit is kept at
    any lam x."""
    with mp.workdps(40):
        log_u = mp.log1p(-mp.exp(-mp.mpf(d.lam) * mp.mpf(x)))
        return mp.log(-mp.expm1(mp.mpf(d.alpha) * log_u)), log_u


def test_logpdf_far_tail_against_log_space_closed_form():
    # log f = log(alpha lam / B(a, b)) - z + (alpha a - 1) log u
    #         + (b - 1) log(1 - u^alpha), z = lam x, where u rounds to 1
    for a, alpha in ((0.05, 0.02), (0.05, 7.0), (4.0, 0.02), (4.0, 7.0)):
        for b in (0.0115, 0.5, 3.0, 90.0):
            d = BGE(a, b, 1.3, alpha)
            xs = np.array([691.0, 700.0, 745.0, 800.0, 2000.0, 1e5]) / d.lam
            got_array = d.logpdf(xs)
            for x, got_a in zip(xs.tolist(), got_array.tolist()):
                log_1mg, log_u = _mp_log_one_minus_g(d, x)
                with mp.workdps(40):
                    a_, b_, lam_, alpha_ = map(mp.mpf, d.params_tuple())
                    want = float(mp.log(alpha_ * lam_) - mp.log(mp.beta(a_, b_)) - lam_ * x
                                 + (alpha_ * a_ - 1) * log_u + (b_ - 1) * log_1mg)
                tol = max(1e-12, 4e-16 * abs(want))
                assert abs(d.logpdf(x) - want) <= tol, (d, x, d.logpdf(x), want)
                assert abs(got_a - want) <= tol, (d, x, got_a, want)


@pytest.mark.parametrize("p", [1.0 - 1e-6, 1.0 - 1e-10])
def test_upper_tail_round_trip(box, p):
    # survival(quantile(p)) is 1 - p, also where the quantile lies past
    # lam x = 690.8, and the hazard there is a number
    for d in box:
        q = d.quantile(p)
        assert abs(d.survival(q) - (1.0 - p)) <= 1e-12 * (1.0 - p), (d, p, q)
        assert abs(d.cdf(q) - p) <= 1e-12, (d, p, q)
        assert math.isfinite(d.hazard(q)), (d, p, q)


def test_survival_where_one_minus_g_is_subnormal():
    # 1 - G is 6.5e-324 here, so only its log carries it
    d, x = BGE(15.98, 0.01554, 0.0195, 0.0505), 38009.049594265435
    log_1mg, _ = _mp_log_one_minus_g(d, x)
    with mp.workdps(40):
        want = float(mp.betainc(d.b, d.a, 0, mp.exp(log_1mg), regularized=True))
    assert want == pytest.approx(1.0000e-5, rel=1e-4)
    assert d.survival(x) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert d.survival(np.array([x]))[0] == pytest.approx(want, rel=1e-13, abs=0.0)
    # BGE(1, 0.5, 1, 1) is the exponential of rate 1/2: survival e^(-x/2),
    # with 1 - G = e^-x below the double range
    d = BGE(1.0, 0.5, 1.0, 1.0)
    assert d.survival(760.0) == pytest.approx(math.exp(-380.0), rel=1e-13, abs=0.0)


def test_zero_d_array_where_one_minus_g_underflows():
    # a 0-d array takes the array path, which must carry 1 - G's log there too
    d = BGE(1.0, 0.5, 1.0, 1.0)
    assert d.survival(np.array(760.0)) == pytest.approx(math.exp(-380.0), rel=1e-13, abs=0.0)
    assert d.cdf(np.array(760.0)) == 1.0
