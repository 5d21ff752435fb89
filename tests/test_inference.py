"""Likelihood machinery: score, T-expectations, information, fitting, LR."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import bgedist.distribution as distribution
import bgedist.inference as inf
from bgedist import BGE
from bgedist import specfun as sf
from bgedist.inference import (NonIntegrableError, confidence_intervals,
                               fit_mle, fit_result_kv, information_matrix,
                               log_likelihood, lr_from_fits, lr_result_kv,
                               lr_test, parse_fit_result_kv, score, t_expectation)
from bgedist.order_stats import OrderStatIndex, order_stat_moment
from bgedist.series import SeriesConvergenceError, moment_set, shannon_entropy

from conftest import _ref_pieces, _ref_score_contrib, mc_expected_information


class TestLogLikelihood:
    def test_exponential_closed_form(self):
        d = BGE.exponential(1.0)
        assert log_likelihood(d, [1.0, 2.0]) == pytest.approx(-3.0, abs=1e-13)

    def test_published_point_on_glass_fibre(self, glass_fibre):
        d = BGE(0.4125, 93.4655, 0.92271, 22.6124)
        assert log_likelihood(d, glass_fibre) == pytest.approx(-15.5995, abs=0.01)

    def test_five_point_highprecision_oracle(self):
        # independent oracle: 40-digit direct evaluation of the log density
        import mpmath as mp

        mp.mp.dps = 40
        d = BGE(2.0, 3.0, 1.0, 1.5)
        points = [0.4, 0.9, 1.3, 2.1, 3.5]
        a, b, lam, alpha = (mp.mpf(repr(v)) for v in d.params_tuple())
        want = 0.0
        for x in points:
            x = mp.mpf(repr(x))
            u = 1 - mp.e ** (-lam * x)
            want += mp.log(alpha * lam / mp.beta(a, b) * mp.e ** (-lam * x)
                           * u ** (alpha * a - 1) * (1 - u ** alpha) ** (b - 1))
        assert log_likelihood(d, points) == pytest.approx(float(want), rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_likelihood(BGE(1, 1, 1, 1), [1.0, -1.0])


class TestScore:
    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            d = BGE(*rng.uniform(0.4, 3.0, size=4))
            data = d.sample(20, rng)
            analytic = score(d, data).as_array()
            theta = np.array(d.params_tuple())
            fd = np.empty(4)
            for i in range(4):
                h = 1e-6 * theta[i]
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (log_likelihood(BGE(*tp), data) - log_likelihood(BGE(*tm), data)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-5 * scale)

    def test_vanishes_at_converged_fit(self, rng):
        d = BGE(2.0, 1.5, 1.0, 2.0)
        data = d.sample(2000, rng)
        fit = fit_mle(data, "bge")
        assert fit.converged
        g = score(fit.params, data).as_array()
        theta = np.array(fit.params.params_tuple())
        assert np.max(np.abs(g * theta)) < 1e-4

    def test_contributions_sum(self, rng):
        d = BGE(1.5, 2.0, 0.8, 1.2)
        data = d.sample(50, rng)
        contrib = _ref_score_contrib(np.array(d.params_tuple()), data.values)
        assert contrib.shape == (50, 4)
        assert np.allclose(contrib.sum(axis=0), score(d, data).as_array(), rtol=1e-12)

    def test_finite_at_subnormal_observation(self):
        # y e^(-lam y) / u -> 1/lam as y -> 0, so d_lam -> alpha a / lam;
        # e^(-lam y - log u) alone overflows below lam y ~ 1e-308
        d = BGE(2.0, 3.0, 0.5, 1.5)
        assert np.all(np.isfinite(score(d, [1e-310, 1.0]).as_array()))
        assert score(d, [1e-310]).d_lambda == pytest.approx(d.alpha * d.a / d.lam, rel=1e-12)

    def test_expected_score_vanishes_monte_carlo(self):
        d = BGE(2.0, 3.0, 1.0, 1.5)
        draws = d.sample(1_000_000, np.random.default_rng(21))
        n = draws.values.size
        mean = score(d, draws).as_array() / n
        contrib = _ref_score_contrib(np.array(d.params_tuple()), draws.values)
        se = contrib.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean) < 4.0 * se)

    @pytest.mark.parametrize("theta", [(1.7, 0.6, 2.3, 0.9), tuple(np.exp([4.5, -4.5, 4.5, -4.5])),
                                       (2.0, 0.05, 1.0, 1.0)], ids=["interior", "corner", "small_b"])
    def test_matches_mpmath_derivative(self, theta):
        # an oracle that shares nothing with the library: mpmath's
        # numerical derivative of the log-likelihood written at 30 digits
        d = BGE(*theta)
        y = d.quantile((np.arange(20) + 0.5) / 20)
        with mp.workdps(30):
            ys = [mp.mpf(float(v)) for v in y]

            def log_u(z):
                # log(1 - e^-z), from whichever of e^-z and 1 - e^-z is small
                return mp.log1p(-mp.exp(-z)) if z > 1 else mp.log(-mp.expm1(-z))

            def loglik(a, b, lam, alpha):
                logu = [log_u(lam * v) for v in ys]
                return mp.fsum(mp.log(alpha * lam) - mp.log(mp.beta(a, b)) - lam * v
                               + (alpha * a - 1) * lu + (b - 1) * mp.log(-mp.expm1(alpha * lu))
                               for v, lu in zip(ys, logu))

            point = [mp.mpf(float(t)) for t in theta]
            want = np.array([float(mp.diff(loglik, point, tuple(int(i == k) for i in range(4))))
                             for k in range(4)])
        got = score(d, y).as_array()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# Reference log-likelihood in its plain column-stacked form, on the
# pieces of the reference score in conftest: the library's one-pass
# kernel evaluates the same log-density and must return the same bits.


def _ref_loglik(theta, y) -> float:
    a, b, lam, alpha = theta
    z, logu, log1mua = _ref_pieces(theta, y)
    return float(np.sum(math.log(alpha) + math.log(lam) - sf.log_beta(a, b)
                        - z + (alpha * a - 1.0) * logu + (b - 1.0) * log1mua))


class TestKernelMatchesReference:
    @staticmethod
    def assert_same_bits(theta, y):
        # the log-likelihood keeps its bits; the score sums in a
        # different order, so it matches the reference's sum to 1e-12
        d = BGE(*theta)
        want_ll = _ref_loglik(theta, y)
        want_score = _ref_score_contrib(theta, y).sum(axis=0)
        assert repr(float(np.sum(d.logpdf(y)))) == repr(want_ll)
        assert repr(log_likelihood(d, y)) == repr(want_ll)
        got = score(d, y).as_array()
        assert np.max(np.abs(got - want_score)) <= 1e-12 * np.max(np.abs(want_score)), theta

    @pytest.mark.parametrize("n", [63, 1000])
    def test_box_points_and_corners(self, n):
        rng = np.random.default_rng(4242)
        edge = inf.DEFAULT_LOG_BOUND
        corners = [np.exp(edge * (2.0 * np.array(s) - 1.0)) for s in np.ndindex(2, 2, 2, 2)]
        inner = list(np.exp(rng.uniform(-edge, edge, size=(8, 4))))
        for theta in corners + inner:
            # lam y log-uniform over [1e-6, 60]: both branches of log1mexp
            y = np.exp(rng.uniform(math.log(1e-6), math.log(60.0), n)) / theta[2]
            self.assert_same_bits(theta, y)

    def test_subnormal_observation(self):
        self.assert_same_bits(np.array([2.0, 3.0, 0.5, 1.5]), np.array([1e-310, 1.0]))


class TestHessianKernel:
    @staticmethod
    def points(n):
        rng = np.random.default_rng(4242)
        edge = inf.DEFAULT_LOG_BOUND
        corners = [np.exp(edge * (2.0 * np.array(s) - 1.0)) for s in np.ndindex(2, 2, 2, 2)]
        inner = list(np.exp(rng.uniform(-edge, edge, size=(8, 4))))
        for theta in corners + inner:
            # lam y log-uniform over [1e-6, 60]: both branches of log1mexp
            yield theta, np.exp(rng.uniform(math.log(1e-6), math.log(60.0), n)) / theta[2]

    @pytest.mark.parametrize("n", [63, 1000])
    def test_hessian_matches_central_differences_of_score(self, n):
        # relative to the largest entry: entries that are differences of
        # nearly equal polygamma values are below what a difference
        # quotient of the score can resolve
        for theta, y in self.points(n):
            _, _, hess = inf._loglik_score_hessian(theta[None], y, np.log(y))
            fd = np.empty((4, 4))
            for i in range(4):
                h = 1e-5 * theta[i]
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (score(BGE(*tp), y).as_array() - score(BGE(*tm), y).as_array()) / (2 * h)
            assert np.max(np.abs(hess[0] - fd)) <= 1e-8 * np.max(np.abs(hess[0])), theta

    @pytest.mark.parametrize("n", [63, 1000])
    def test_one_row_has_the_bits_of_the_1d_path(self, n):
        # one row's log-likelihood has the bits of logpdf's 1-D path, and
        # its score row is the public score
        for theta, y in self.points(n):
            ll, sc, _ = inf._loglik_score_hessian(theta[None], y, np.log(y))
            d = BGE(*theta)
            assert repr(float(ll[0])) == repr(log_likelihood(d, y))
            np.testing.assert_array_equal(sc[0], score(d, y).as_array(), strict=True)

    def test_rows_do_not_depend_on_the_batch(self):
        y = BGE(2.0, 1.5, 1.0, 2.0).sample(63, np.random.default_rng(5)).values
        theta = np.exp(np.random.default_rng(6).uniform(-4.5, 4.5, size=(9, 4)))
        batch = inf._loglik_score_hessian(theta, y, np.log(y))
        for r in range(len(theta)):
            alone = inf._loglik_score_hessian(theta[r:r + 1], y, np.log(y))
            for got, want in zip(batch, alone):
                np.testing.assert_array_equal(got[r:r + 1], want, strict=True)

    def test_rows_of_a_full_block_do_not_depend_on_the_batch(self):
        # the largest batch that _ascend passes at n = 63
        y = BGE(2.0, 1.5, 1.0, 2.0).sample(63, np.random.default_rng(7)).values
        rows = inf._KERNEL_BLOCK // y.size
        assert rows == 65
        theta = np.exp(np.random.default_rng(8).uniform(-4.5, 4.5, size=(rows, 4)))
        batch = inf._loglik_score_hessian(theta, y, np.log(y))
        for r in range(rows):
            alone = inf._loglik_score_hessian(theta[r:r + 1], y, np.log(y))
            for got, want in zip(batch, alone):
                np.testing.assert_array_equal(got[r:r + 1], want, strict=True)

    def test_rows_of_a_blocked_batch_do_not_depend_on_the_batch(self):
        # at n = 1000 a block holds 4 rows, so 9 rows take three blocks
        y = BGE(2.0, 1.5, 1.0, 2.0).sample(1000, np.random.default_rng(9)).values
        assert -(-9 // (inf._KERNEL_BLOCK // y.size)) == 3
        theta = np.exp(np.random.default_rng(10).uniform(-4.5, 4.5, size=(9, 4)))
        batch = inf._loglik_score_hessian(theta, y, np.log(y))
        for r in range(len(theta)):
            alone = inf._loglik_score_hessian(theta[r:r + 1], y, np.log(y))
            for got, want in zip(batch, alone):
                np.testing.assert_array_equal(got[r:r + 1], want, strict=True)

    def test_one_kernel_call_per_stepping_pass(self, monkeypatch):
        # the kernel blocks its own sums, so a pass calls it once however
        # many rows times observations it evaluates; the ascent's first
        # evaluation of its ladder is the one call without a step
        calls = {"kernel": 0, "step": 0}
        kernel, trust_step = inf._loglik_score_hessian, inf._trust_step

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(inf, "_loglik_score_hessian", counting("kernel", kernel))
        monkeypatch.setattr(inf, "_trust_step", counting("step", trust_step))
        monkeypatch.setattr(inf, "_held", (None, {}))
        y = BGE(2.0, 1.5, 1.0, 2.0).sample(1000, np.random.default_rng(11))
        fit_mle(y, "bge", compute_covariance=False)
        assert calls["step"] > 0
        assert calls["kernel"] <= calls["step"] + 1


class TestExpectedScoreIdentities:
    """The three expectations implied by a vanishing expected score."""

    POINTS = [BGE(2.0, 3.0, 1.0, 1.5), BGE(0.8, 2.0, 2.0, 1.0), BGE(1.5, 4.5, 0.7, 2.5)]

    @pytest.mark.parametrize("d", POINTS, ids=str)
    def test_identities(self, d):
        rng = np.random.default_rng(31)
        y = d.sample(1_000_000, rng).values
        logu = np.log(-np.expm1(-d.lam * y))
        log1mua = np.log(-np.expm1(d.alpha * logu))
        ratio = np.exp(d.alpha * logu - log1mua)
        psi = sf.digamma

        checks = [
            (logu, (psi(d.a) - psi(d.a + d.b)) / d.alpha),
            (log1mua, psi(d.b) - psi(d.a + d.b)),
            (ratio * logu, (d.a * (psi(d.a) - psi(d.a + d.b)) + 1.0) / (d.alpha * (d.b - 1.0))),
        ]
        for vals, want in checks:
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - want) < 4.0 * se


def mp_t_expectation(params, i, j, k, l, m):
    """Independent oracle: T_{i,j,k,l,m} by mpmath quadrature at 20 digits,
    in s = -log v on v < 1/2 and in q = -log(1 - v) on v > 1/2."""
    with mp.workdps(20):
        a, b, lam, alpha = map(mp.mpf, params)

        def integrand(logv, log1mv):
            lw = logv / alpha                      # log v^(1/alpha)
            omw = -mp.expm1(lw)                    # 1 - v^(1/alpha)
            log_omw = mp.log(omw) if lw > -1 else mp.log1p(-mp.exp(lw))
            return (mp.exp((a - 1 + i - k / alpha) * logv + (b - 1 - i) * log1mv)
                    * omw ** j * log_omw ** l * logv ** m)

        cuts = [mp.log(2), 1, 10, 100, mp.inf]
        lo = mp.quad(lambda s: integrand(-s, mp.log1p(-mp.exp(-s))) * mp.exp(-s), cuts)
        hi = mp.quad(lambda q: integrand(mp.log1p(-mp.exp(-q)), -q) * mp.exp(-q), cuts)
        return float((lo + hi) / mp.beta(a, b))


class TestTExpectation:
    def test_total_mass(self):
        assert t_expectation(BGE(2, 3, 1, 1.5), 0, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-9)

    def test_log_mean_identity(self):
        d = BGE(2, 3, 1, 1.5)
        want = sf.digamma(2.0) - sf.digamma(5.0)
        assert t_expectation(d, 0, 0, 0, 0, 1) == pytest.approx(want, abs=1e-9)

    def test_against_monte_carlo(self):
        d = BGE(2.0, 3.0, 1.0, 1.5)
        rng = np.random.default_rng(41)
        v = rng.beta(2.0, 3.0, size=10_000_000)
        vals = (1.0 - v ** (1.0 / 1.5)) * v ** (-1.0 / 1.5) * np.log1p(-v ** (1.0 / 1.5))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert t_expectation(d, 0, 1, 1, 1, 0) == pytest.approx(
            float(vals.mean()), abs=4.0 * se)

    def test_sharp_integrability_guard(self):
        # (1-V)^-2 with nothing to soften it diverges for b <= 2 ...
        with pytest.raises(NonIntegrableError):
            t_expectation(BGE(2.0, 1.5, 1.0, 1.0), 2, 0, 0, 0, 0)
        # ... but the j and m factors vanish at v=1 and restore it
        assert math.isfinite(t_expectation(BGE(2.0, 1.5, 1.0, 1.0), 2, 2, 2, 2, 0))
        assert math.isfinite(t_expectation(BGE(2.0, 0.5, 1.0, 1.0), 2, 0, 0, 0, 2))

    def test_index_domain(self):
        with pytest.raises(ValueError):
            t_expectation(BGE(2, 3, 1, 1), 3, 0, 0, 0, 0)

    @pytest.mark.parametrize("params, idx", [
        # value -1.0: v^(1/alpha) underflows over most of (0, 1)
        ((2.0078, 37.1225, 57.5254, 0.0176), (0, 1, 1, 1, 0)),
        # a fitted point of the benchmark's fit study: 0.99663786439345675
        # and -0.99812522700031201, where 1 - v^(1/alpha) rounds to 1
        ((0.2004, 1.8441, 0.3021, 0.1085), (0, 2, 2, 2, 0)),
        ((0.2004, 1.8441, 0.3021, 0.1085), (0, 1, 1, 1, 0)),
        # value 205.0313094891527: 1 - v underflows at small b
        ((0.0133, 0.0184, 55.1298, 12.6715), (1, 1, 1, 2, 0)),
    ])
    def test_against_mpmath(self, params, idx):
        assert t_expectation(BGE(*params), *idx) == pytest.approx(
            mp_t_expectation(params, *idx), rel=1e-10)


class TestInformationMatrix:
    def test_polygamma_entries(self):
        K = information_matrix(BGE(2.0, 3.0, 1.0, 1.5)).matrix
        assert K[0, 0] == pytest.approx(0.25 + 1.0 / 9.0 + 1.0 / 16.0, abs=1e-10)
        assert K[0, 1] == pytest.approx(-sf.trigamma(5.0), abs=1e-10)
        assert K[1, 1] == pytest.approx(sf.trigamma(3.0) - sf.trigamma(5.0), abs=1e-10)
        assert K[0, 3] == pytest.approx((sf.digamma(5.0) - sf.digamma(2.0)) / 1.5, abs=1e-10)

    def test_symmetric_positive_definite(self):
        info = information_matrix(BGE(2.0, 3.0, 1.0, 1.5))
        assert np.allclose(info.matrix, info.matrix.T)
        assert np.linalg.eigvalsh(info.matrix)[0] > 0.0

    def test_matches_monte_carlo_hessian(self):
        # 1e-8 absolute slack: the pure-polygamma entries have zero
        # Monte Carlo variance, so only the finite-difference truncation
        # of the oracle remains there
        d = BGE(2.0, 3.0, 1.0, 1.5)
        K = information_matrix(d).matrix
        est, se = mc_expected_information(d, 400_000, np.random.default_rng(51))
        assert np.all(np.abs(K - est) < 3.0 * se + 1e-8)

    def test_matches_monte_carlo_hessian_small_alpha(self):
        # the rule of test_matches_monte_carlo_hessian at a fitted point of
        # the benchmark's fit study, where v^(1/alpha) is tiny over most
        # of (0, 1)
        d = BGE(0.2004, 1.8441, 0.3021, 0.1085)
        K = information_matrix(d).matrix
        est, se = mc_expected_information(d, 400_000, np.random.default_rng(51))
        assert np.all(np.abs(K - est) < 3.0 * se + 1e-8)

    @pytest.mark.parametrize("d", [
        BGE(2.0, 0.6, 1.0, 2.0),
        # a ridge fit of the CLI session's fit input
        BGE(4.236264206, 0.458623873, 5.251855108, 90.0171313),
    ], ids=str)
    def test_no_warnings(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = information_matrix(d)
        assert info.fallback_entries == ()

    def test_b_equal_one_fallback_entry(self):
        # the closed form for the (b, alpha) entry is 0/0 at b=1; the
        # quadrature route must still produce the (finite) limit and be
        # flagged as a fallback
        d = BGE(2.0, 1.0, 1.0, 1.5)
        info = information_matrix(d)
        d_eps = BGE(2.0, 1.0 + 1e-6, 1.0, 1.5)
        want = (d_eps.a * (sf.digamma(d_eps.a) - sf.digamma(d_eps.a + d_eps.b)) + 1.0) \
            / (d_eps.alpha * (d_eps.b - 1.0))
        assert info.matrix[1, 3] == pytest.approx(want, rel=1e-4)
        assert "b,alpha" in info.fallback_entries

    def test_non_integrable_error_propagates(self, monkeypatch, glass_fibre):
        # a latent-rule pass that fails is not papered over: the error
        # leaves information_matrix, and fit_mle reports no covariance
        def failing(dist, powers):
            raise NonIntegrableError("forced")

        monkeypatch.setattr(inf, "_latent_log_integrals", failing)
        with pytest.raises(NonIntegrableError, match="forced"):
            information_matrix(BGE(2.0, 3.0, 1.0, 1.5))
        assert fit_mle(glass_fibre, "ge").covariance is None


#: The index sets (i, j, k, l, m) of the information matrix's T-expectations.
INFO_INDEX_SETS = [(0, 1, 1, 1, 0), (1, 1, 1, 1, 0), (0, 2, 2, 2, 0), (0, 1, 1, 2, 0),
                   (2, 2, 2, 2, 0), (1, 2, 2, 2, 0), (1, 1, 1, 2, 0), (2, 1, 1, 1, 1),
                   (1, 1, 1, 1, 1), (2, 0, 0, 0, 2), (1, 0, 0, 0, 2)]


class TestLatentEngine:
    """The one tanh-sinh engine behind the T-expectations, the moments and
    the order-statistic moments."""

    def test_each_caller_raises_its_documented_type(self, monkeypatch):
        # one level leaves no level difference, so no row converges
        monkeypatch.setattr(distribution, "_TS_LEVELS", 1)
        d = BGE(2.0, 3.0, 1.0, 1.5)
        message = "the tanh-sinh rule did not converge"
        with pytest.raises(NonIntegrableError, match=message):
            t_expectation(d, 0, 1, 1, 1, 0)
        with pytest.raises(NonIntegrableError, match=message):
            information_matrix(d)
        with pytest.raises(SeriesConvergenceError, match=message):
            moment_set(d)
        with pytest.raises(SeriesConvergenceError, match=message):
            shannon_entropy(d)
        with pytest.raises(RuntimeError, match=message):
            order_stat_moment(d, OrderStatIndex(2, 3), 2)

    def test_rows_do_not_depend_on_their_batch(self):
        # each row is fixed at the first level where it converges, so one
        # call equals its rows taken one by one: the information matrix's
        # rows, and order-statistic rows, whose zero I_v powers must not
        # meet a log I_v of -inf as nan
        rng = np.random.default_rng(0)
        for params in np.exp(rng.uniform(-4.5, 4.5, size=(20, 4))):
            d = BGE(*map(float, params))
            info_rows = [(d.a - 1.0 + i - k / d.alpha, d.b - 1.0 - i, m, j, l, 0, 0)
                         for i, j, k, l, m in INFO_INDEX_SETS]
            order_rows = [(d.a - 1.0, d.b - 1.0, 0, 0, r, i - 1, n - i)
                          for i, n, r in ((1, 3, 1), (3, 3, 1), (2, 4, 2))]
            for rows in (info_rows, order_rows):
                assert distribution._latent_log_integrals(d, rows) == [
                    distribution._latent_log_integrals(d, [row])[0] for row in rows]

    def test_one_side_rows_keep_their_bits_beside_the_other_side(self):
        # a row reading only log(1 - I_v), (1, 3, 1), or only log I_v,
        # (3, 3, 1), takes the complement of the small side's ratio on its
        # own side alone; batched with the other, both sides are formed in
        # full, and each row keeps its bits
        rng = np.random.default_rng(1)
        for params in np.exp(rng.uniform(-4.5, 4.5, size=(30, 4))):
            d = BGE(*map(float, params))
            rows = [(d.a - 1.0, d.b - 1.0, 0, 0, 1, i - 1, 3 - i) for i in (1, 3)]
            try:
                alone = [distribution._latent_log_integrals(d, [row])[0] for row in rows]
            except NonIntegrableError:
                continue
            assert distribution._latent_log_integrals(d, rows) == alone
            assert distribution._latent_log_integrals(d, rows[::-1]) == alone[::-1]


class TestFit:
    def test_exponential_closed_form(self, rng):
        y = rng.exponential(2.0, size=300)
        fit = fit_mle(y, "exp")
        assert fit.converged
        assert fit.params.lam == pytest.approx(1.0 / y.mean(), abs=1e-10)

    def test_ge_glass_fibre(self, glass_fibre):
        fit = fit_mle(glass_fibre, "ge")
        assert fit.converged
        assert fit.params.lam == pytest.approx(2.6105, rel=0.01)
        assert fit.params.alpha == pytest.approx(31.3032, rel=0.01)
        assert fit.loglik == pytest.approx(-31.3834, abs=0.02)

    def test_be_glass_fibre_published_point(self, glass_fibre, be_glass_fibre_oracle):
        # The published BE point has the published loglik but is not a
        # stationary point (score != 0 there): the likelihood rises past
        # it along the b ridge toward a gamma limit (errata.json
        # "glass-fibre-published-fits").  The bounded fit must stop on
        # the b bound at the scipy oracle's profile maximum, above the
        # published loglik and below the limit.
        assert log_likelihood(BGE(17.7786, 22.7222, 0.3898, 1.0),
                              glass_fibre) == pytest.approx(-24.1270, abs=0.001)
        want = be_glass_fibre_oracle
        fit = fit_mle(glass_fibre, "be")
        assert fit.loglik == pytest.approx(want["loglik"], abs=1e-6)
        assert fit.params.a == pytest.approx(want["a"], rel=1e-4)
        assert fit.params.b == pytest.approx(want["b"], rel=1e-9)
        assert fit.params.lam == pytest.approx(want["lam"], rel=1e-4)
        assert fit.hit_bounds == ("b",) and not fit.converged
        assert -24.1270 + 0.1 < fit.loglik < want["gamma_sup"]

    def test_bge_glass_fibre_loglik_window(self, glass_fibre, bge_glass_fibre_oracle):
        # the published window, and the oracle's b = e^4.5 profile
        # maximum, which does not lean on the box edge lying near the
        # published, early-stopped b = 93.47
        want = bge_glass_fibre_oracle
        fit = fit_mle(glass_fibre, "bge")
        assert fit.loglik >= -15.6495
        assert fit.loglik == pytest.approx(-15.5995, abs=0.05)
        assert fit.hit_bounds == ("b",) and not fit.converged
        assert fit.loglik == pytest.approx(want["loglik"], abs=1e-6)
        for name in ("a", "lam", "alpha"):
            assert getattr(fit.params, name) == pytest.approx(want[name], rel=1e-4)

    def test_nesting_chain_likelihood_monotone(self, glass_fibre):
        lls = {m: fit_mle(glass_fibre, m, compute_covariance=False).loglik
               for m in ("exp", "ge", "be", "bge")}
        assert lls["exp"] <= lls["ge"] <= lls["bge"] + 1e-9
        assert lls["exp"] <= lls["be"] <= lls["bge"] + 1e-9

    def test_consistency_on_simulated_data(self):
        true = BGE(2.0, 1.5, 1.0, 2.0)
        data = true.sample(10_000, np.random.default_rng(61))
        fit = fit_mle(data, "bge")
        xs = np.linspace(0.01, true.quantile(0.9999), 200)
        sup = max(abs(fit.params.cdf(float(x)) - true.cdf(float(x))) for x in xs)
        assert sup <= 0.02

    def test_respects_init(self, glass_fibre):
        fit = fit_mle(glass_fibre, "ge", init=BGE.ge(2.0, 20.0))
        assert fit.params.lam == pytest.approx(2.6105, rel=0.01)

    def test_submodels_pin_parameters_at_one(self, glass_fibre):
        ge_fit = fit_mle(glass_fibre, "ge", compute_covariance=False).params
        assert (ge_fit.a, ge_fit.b) == (1.0, 1.0)
        assert fit_mle(glass_fibre, "be", compute_covariance=False).params.alpha == 1.0
        assert fit_mle(glass_fibre, "dge", compute_covariance=False).params.a == 1.0
        exp_fit = fit_mle(glass_fibre, "exp", compute_covariance=False).params
        assert exp_fit == BGE.exponential(exp_fit.lam)

    def test_dge_recovers_simulated_data(self):
        true = BGE.dge(2.0, 1.0, 1.5)
        data = true.sample(5000, np.random.default_rng(81))
        fit = fit_mle(data, "dge")
        assert fit.converged
        assert fit.params.b == pytest.approx(2.0, rel=0.25)
        xs = np.linspace(0.05, true.quantile(0.999), 100)
        assert max(abs(fit.params.cdf(float(x)) - true.cdf(float(x))) for x in xs) < 0.02

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_mle([1.0, 2.0], "weibull")

    @pytest.mark.parametrize("model", ["ge", "be", "dge", "bge"])
    def test_no_run_evaluates_a_point_twice(self, glass_fibre, model):
        # A row's path depends on its start and the data alone
        # (test_sub_model_runs_do_not_depend_on_the_batch), so each start
        # runs here as the only row, and each seed as the only row once
        # its one-start sub-model has closed: every kernel call then
        # holds one row, and a row's points must all differ.
        y = glass_fibre.values
        kernel = inf._loglik_score_hessian
        calls: list = []

        def recording_kernel(theta, y, logy):
            calls.append(theta.copy())
            return kernel(theta, y, logy)

        plan = [*inf._SEEDS.get(model, ()), model]
        ladders = inf._ladders(plan, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inf, "_loglik_score_hessian", recording_kernel)
            for start in ladders[model]:
                calls.clear()
                inf._ascend(y, [model], {model: [start]}, inf.DEFAULT_LOG_BOUND)
                points = [t.tobytes() for t in calls]
                assert all(len(t) == 1 for t in calls)
                assert len(set(points)) == len(points) > 1
            for sub in inf._SEEDS.get(model, ()):
                calls.clear()
                chosen = inf._ascend(y, [sub, model], {sub: ladders[sub][:1], model: []},
                                     inf.DEFAULT_LOG_BOUND)
                points = [t.tobytes() for t in calls]
                assert all(len(t) == 1 for t in calls)
                assert len(set(points)) == len(points)
                assert chosen[model][1] >= chosen[sub][1]

    @pytest.mark.parametrize("model", ["ge", "be", "dge", "bge"])
    def test_repeat_fit_is_identical(self, monkeypatch, glass_fibre, model):
        # nothing is held before either call, so both runs are cold
        monkeypatch.setattr(inf, "_held", (None, {}))
        one = fit_mle(glass_fibre, model, compute_covariance=False)
        monkeypatch.setattr(inf, "_held", (None, {}))
        two = fit_mle(glass_fibre, model, compute_covariance=False)
        assert repr(one.loglik) == repr(two.loglik)
        assert one.iterations == two.iterations
        assert repr(one.params) == repr(two.params)

    def test_sub_model_runs_do_not_depend_on_the_batch(self, glass_fibre):
        # the be, ge and dge runs inside a bge fit's batch are the
        # standalone fits, bit for bit: what makes nesting exact
        y = glass_fibre.values

        def ascend(model):
            plan = [*inf._SEEDS.get(model, ()), model]
            return inf._ascend(y, plan, inf._ladders(plan, y), inf.DEFAULT_LOG_BOUND)

        inside = ascend("bge")
        for sub in ("be", "ge", "dge"):
            assert repr(ascend(sub)[sub]) == repr(inside[sub])

    @staticmethod
    def _fit_samples():
        rng = np.random.default_rng(1717)
        for k in range(24):
            true = BGE(*np.exp(rng.uniform(-2.0, 2.0, size=4)))
            yield true.sample((63, 1000)[k % 2], rng)

    def test_nesting_holds_exactly(self):
        for data in self._fit_samples():
            ll = {m: fit_mle(data, m, compute_covariance=False).loglik
                  for m in ("ge", "be", "dge", "bge")}
            assert ll["dge"] >= ll["ge"], ll
            assert ll["bge"] >= max(ll["be"], ll["dge"], ll["ge"]), ll

    def test_converged_fits_are_strict_maxima(self, glass_fibre):
        # a converged fit has a projected log-space gradient below
        # _GRAD_TOL and a negative definite Hessian over its free
        # parameters, both taken at the returned point
        checked = 0
        for data in [glass_fibre] + list(self._fit_samples())[:12]:
            y = data.values
            for model in ("exp", "ge", "be", "dge", "bge"):
                fit = fit_mle(data, model, compute_covariance=False)
                if not fit.converged:
                    continue
                theta = np.array([fit.params.params_tuple()])
                _, sc, hess = inf._loglik_score_hessian(theta, y, np.log(y))
                g, h = inf._log_space(theta, sc, hess)
                idx = [inf.PARAM_NAMES.index(p) for p in fit.free_names]
                assert np.max(np.abs(g[0, idx])) < inf._GRAD_TOL
                assert np.max(np.linalg.eigvalsh(h[0][np.ix_(idx, idx)])) < 0.0
                checked += 1
        assert checked >= 30

    def test_ge_moment_match_stops_early_with_the_same_bits(self, glass_fibre):
        def full_bisection(mean, var):
            # the moment match with all 200 bisection steps taken
            cv2 = var / mean ** 2

            def gap(log_alpha):
                al = math.exp(log_alpha)
                c = sf.digamma(al + 1.0) - sf.digamma(1.0)
                p = sf.trigamma(1.0) - sf.trigamma(al + 1.0)
                return p / (c * c) - cv2

            lo, hi = math.log(1e-4), math.log(1e6)
            assert gap(lo) >= 0.0 >= gap(hi)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if gap(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            alpha = math.exp(0.5 * (lo + hi))
            return (sf.digamma(alpha + 1.0) - sf.digamma(1.0)) / mean, alpha

        y = glass_fibre.values
        pairs = [(float(y.mean()), float(y.var(ddof=1))), (1.0, 1.0), (2.0, 0.1),
                 (0.5, 2.0), (3.0, 0.5), (1e-3, 1e-5)]
        for mean, var in pairs:
            assert repr(inf._ge_moment_match(mean, var)) == repr(full_bisection(mean, var))

    def test_ladder_robustness_sweep(self):
        # the fitted cdf must track the truth across regimes even where
        # the parameters themselves ride a flat ridge
        rng = np.random.default_rng(314159)
        for _ in range(8):
            true = BGE(*np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=4)))
            data = true.sample(1000, rng)
            fit = fit_mle(data, "bge", compute_covariance=False)
            assert math.isfinite(fit.loglik)
            hi = true.quantile(0.999)
            xs = np.linspace(0.01 * hi, hi, 60)
            sup = max(abs(fit.params.cdf(float(x)) - true.cdf(float(x))) for x in xs)
            assert sup < 0.05, (true, fit.params, sup)


class TestHeldRuns:
    """Ladder fits on one dataset and box reuse the runs already made
    there, and return what a cold fit returns, bit for bit."""

    @staticmethod
    def cold(monkeypatch, data, model, **kw):
        monkeypatch.setattr(inf, "_held", (None, {}))
        return fit_mle(data, model, **kw)

    @staticmethod
    def assert_same(got, want):
        for name in ("params", "loglik", "score_norm", "iterations", "converged", "hit_bounds"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name
        assert (None if got.covariance is None else got.covariance.tobytes()) == \
            (None if want.covariance is None else want.covariance.tobytes())

    @pytest.fixture
    def kernel_rows(self, monkeypatch):
        """Row counts of the kernel calls made since it was last cleared."""
        rows, kernel = [], inf._loglik_score_hessian

        def counting(theta, y, logy):
            rows.append(len(theta))
            return kernel(theta, y, logy)

        monkeypatch.setattr(inf, "_loglik_score_hessian", counting)
        return rows

    @pytest.fixture(scope="class")
    def interior(self):
        return BGE(2.0, 1.5, 1.0, 2.0).sample(200, np.random.default_rng(41))

    @pytest.mark.parametrize("order", [("ge", "be", "dge", "bge"), ("bge", "be", "ge"),
                                       ("ge", "be", "bge")],
                             ids=["fit_study", "compare", "reproduce"])
    @pytest.mark.parametrize("which", ["glass_fibre", "interior"])
    def test_call_orders(self, monkeypatch, request, kernel_rows, order, which):
        data = request.getfixturevalue(which)
        want, cold_rows = {}, {}
        for m in order:
            kernel_rows.clear()
            want[m] = self.cold(monkeypatch, data, m)
            cold_rows[m] = sum(kernel_rows)
        monkeypatch.setattr(inf, "_held", (None, {}))
        ran = set()                     # the models fitted so far, alone or inside a fit
        for m in order:
            kernel_rows.clear()
            self.assert_same(fit_mle(data, m), want[m])
            # a model that ran before, or that one of them seeds, runs fewer rows
            reused = m in ran or any(sub in ran for sub in inf._SEEDS.get(m, ()))
            assert (sum(kernel_rows) < cold_rows[m]) if reused else (sum(kernel_rows) == cold_rows[m])
            ran |= {m, *inf._SEEDS.get(m, ())}

    @pytest.mark.parametrize("model", ["exp", "ge", "be", "dge", "bge"])
    def test_exact_repeat_runs_no_kernel(self, monkeypatch, glass_fibre, kernel_rows, model):
        want = self.cold(monkeypatch, glass_fibre, model)
        kernel_rows.clear()
        self.assert_same(fit_mle(glass_fibre.values.copy(), model), want)
        assert kernel_rows == []

    def test_other_bound_is_not_reused(self, monkeypatch, glass_fibre):
        want = self.cold(monkeypatch, glass_fibre, "bge", log_bound=4.0)
        at_default = self.cold(monkeypatch, glass_fibre, "bge")
        assert want.params.b != at_default.params.b     # b ends on the box here
        self.assert_same(fit_mle(glass_fibre, "bge", log_bound=4.0), want)
        self.assert_same(fit_mle(glass_fibre, "bge"), at_default)

    def test_init_fit_neither_reads_nor_adds(self, monkeypatch, glass_fibre):
        init = BGE.ge(2.0, 20.0)
        want = self.cold(monkeypatch, glass_fibre, "ge", init=init)
        ladder = self.cold(monkeypatch, glass_fibre, "ge")
        assert want.iterations != ladder.iterations
        fit_mle(glass_fibre, "bge")
        key, held = inf._held
        runs = dict(held)
        self.assert_same(fit_mle(glass_fibre, "ge", init=init), want)
        fit_mle(glass_fibre.values[:30], "bge", init=BGE(1.0, 2.0, 1.0, 5.0))
        assert inf._held[0] == key and inf._held[1] is held
        assert held.keys() == runs.keys() and all(held[m] is runs[m] for m in runs)
        self.assert_same(fit_mle(glass_fibre, "ge"), ladder)

    def test_one_dataset_is_held(self, monkeypatch, glass_fibre, interior, kernel_rows):
        kernel_rows.clear()
        want = self.cold(monkeypatch, glass_fibre, "bge")
        cold_rows = sum(kernel_rows)
        fit_mle(interior, "ge")
        assert inf._held[0] == (interior.values.tobytes(), inf.DEFAULT_LOG_BOUND)
        assert list(inf._held[1]) == ["ge"]
        kernel_rows.clear()
        self.assert_same(fit_mle(glass_fibre, "bge"), want)
        assert sum(kernel_rows) == cold_rows


class TestConfidenceIntervals:
    def test_z_quantile(self):
        from statistics import NormalDist

        assert NormalDist().inv_cdf(1 - 0.05 / 2) == pytest.approx(1.959964, abs=1e-6)

    def test_exponential_closed_form(self, rng):
        y = BGE.exponential(0.5).sample(400, rng)
        fit = fit_mle(y, "exp")
        ci = confidence_intervals(fit, gamma=0.05)
        lam = fit.params.lam
        z = 1.9599639845400545
        half = z * lam / math.sqrt(400)
        assert ci["lam"][0] == pytest.approx(lam - half, abs=1e-8)
        assert ci["lam"][1] == pytest.approx(lam + half, abs=1e-8)

    def test_width_scales_inverse_sqrt_n(self):
        true = BGE.ge(1.0, 2.0)
        widths = []
        for n in (2000, 8000):
            data = true.sample(n, np.random.default_rng(71))
            fit = fit_mle(data, "ge")
            lo, hi = confidence_intervals(fit)["alpha"]
            widths.append(hi - lo)
        assert widths[0] / widths[1] == pytest.approx(2.0, rel=0.05)

    def test_ends_are_python_floats(self, glass_fibre):
        for model in ("ge", "bge"):
            ci = confidence_intervals(fit_mle(glass_fibre, model))
            assert set(ci) == set(inf.MODEL_FREE_PARAMS[model])
            assert all(type(end) is float for ends in ci.values() for end in ends), ci

    def test_definiteness_resolved_across_scales(self):
        # a positive definite covariance whose variances span 1e16, as at
        # a box-corner fit: the eigenvalues of the matrix itself are
        # swamped by rounding, those of its correlation form are not
        sd = np.array([3e7, 0.1, 1.0, 3e7])
        fit = inf.FitResult("bge", BGE(1.0, 1.0, 1.0, 1.0), 0.0, 0.0, False, 0, 63,
                            covariance=(0.5 * np.eye(4) + 0.5) * np.outer(sd, sd))
        z = 1.959963984540054
        ci = confidence_intervals(fit)
        assert [hi - 1.0 for _, hi in ci.values()] == pytest.approx(z * sd, rel=1e-12)
        corr = np.eye(4)
        corr[0, 1] = corr[1, 0] = 1.5          # eigenvalue -0.5
        with pytest.raises(ValueError, match="positive definite"):
            confidence_intervals(inf.FitResult("bge", BGE(1.0, 1.0, 1.0, 1.0), 0.0, 0.0, False,
                                               0, 63, covariance=corr * np.outer(sd, sd)))

    def test_gamma_domain(self, rng):
        y = BGE.exponential(0.5).sample(50, rng)
        fit = fit_mle(y, "exp")
        with pytest.raises(ValueError):
            confidence_intervals(fit, gamma=1.5)


class TestLrTests:
    def test_model_vs_itself(self, glass_fibre):
        lr = lr_test(glass_fibre, "ge", "ge")
        assert lr.statistic == 0.0
        assert lr.p_value == 1.0
        assert lr.dof == 0

    def test_not_nested_rejected(self, glass_fibre):
        with pytest.raises(ValueError):
            lr_test(glass_fibre, "be", "ge")

    def test_fits_of_different_data_rejected(self, glass_fibre):
        # read as one test, these two fits would give w = 2.90, p = 0.234
        with pytest.raises(ValueError, match="different data"):
            lr_from_fits(fit_mle(glass_fibre.values[:30], "ge"), fit_mle(glass_fibre, "bge"))

    def test_ge_vs_bge_glass_fibre(self, glass_fibre):
        lr = lr_test(glass_fibre, "ge", "bge")
        assert lr.dof == 2
        assert lr.statistic == pytest.approx(31.5678, abs=0.1)
        assert 1.39e-7 / 2 <= lr.p_value <= 1.39e-7 * 2

    def test_be_vs_bge_glass_fibre_published_statistic(self, glass_fibre,
                                                        be_glass_fibre_oracle):
        # The published statistic is twice the published loglik gap, and
        # its BE leg is the early-stopped point (errata.json "glass-fibre-
        # published-fits"): the window is centred where it lands once the
        # BE leg reaches the scipy oracle's maximum.
        assert 17.0550 == pytest.approx(2.0 * (-15.5995 - -24.1270), abs=1e-3)
        centre = 17.0550 - 2.0 * (be_glass_fibre_oracle["loglik"] - -24.1270)
        lr = lr_test(glass_fibre, "be", "bge")
        assert lr.dof == 1
        assert 3.63e-5 / 2 <= lr.p_value <= 3.63e-5 * 2
        assert lr.statistic == pytest.approx(centre, abs=0.1)


class TestSerialization:
    def test_fit_roundtrip(self, glass_fibre):
        fit = fit_mle(glass_fibre, "ge")
        text = fit_result_kv(fit)
        back = parse_fit_result_kv(text)
        assert fit_result_kv(back) == text
        assert back.model == fit.model
        assert back.loglik == pytest.approx(fit.loglik, rel=1e-9)
        assert back.converged == fit.converged

    def test_numpy_bool_roundtrip(self, glass_fibre):
        # a flag taken from a numpy array renders as true/false, not 1/0
        import dataclasses

        fit = fit_mle(glass_fibre, "ge", compute_covariance=False)
        for flag in (np.True_, np.False_):
            text = fit_result_kv(dataclasses.replace(fit, converged=flag))
            assert f"converged={'true' if flag else 'false'}" in text
            assert parse_fit_result_kv(text).converged is bool(flag)
            assert fit_result_kv(parse_fit_result_kv(text)) == text

    def test_stable_keys(self, glass_fibre):
        fit = fit_mle(glass_fibre, "exp")
        text = fit_result_kv(fit)
        for key in ("model=", "params.a=", "params.b=", "params.lambda=",
                    "params.alpha=", "loglik=", "converged="):
            assert key in text
        lr = lr_from_fits(fit_mle(glass_fibre, "ge"), fit_mle(glass_fibre, "bge"))
        lr_text = lr_result_kv(lr)
        for key in ("lr.statistic=", "lr.dof=", "lr.p_value="):
            assert key in lr_text
