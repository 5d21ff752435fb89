"""Series expansions against the incomplete-beta forms and quadrature."""

import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln, polygamma

from bgedist import BGE, series
from bgedist import specfun as sf
from bgedist.series import (SeriesConvergenceError, cdf_series, closed_form_cdf_integer,
                            mgf, moment_set, pdf_mixture, raw_moment, shannon_entropy,
                            skewness_kurtosis)
from test_order_stats import mp_order_stat_moment


def quad_moment(dist, r):
    """Independent oracle: adaptive quadrature of x^r f(x) over (0, inf),
    with the origin singularity lifted by substitution."""
    k = 1.0 / (dist.alpha * dist.a)
    q = dist.quantile(0.3)
    left = quad(lambda s: (q * s ** k) ** r * dist.pdf(q * s ** k) * q * k * s ** (k - 1.0),
                0.0, 1.0, limit=400)[0]
    right = quad(lambda x: x ** r * dist.pdf(x), q, np.inf, limit=400)[0]
    return left + right


class TestCdfSeries:
    def test_ge_single_term(self):
        d = BGE.ge(1.0, 2.0)
        for x in (0.2, 1.0, 3.0):
            assert cdf_series(d, x) == pytest.approx((1 - math.exp(-x)) ** 2, abs=1e-14)

    def test_integer_branch_vs_incbeta(self):
        d = BGE(2, 3, 1, 1)
        assert cdf_series(d, 1.0) == pytest.approx(d.cdf(1.0), abs=1e-10)

    def test_real_branch_vs_incbeta(self):
        d = BGE(1.5, 2.7, 1.0, 1.3)
        assert cdf_series(d, 0.8) == pytest.approx(d.cdf(0.8), abs=1e-8)

    def test_agreement_grid_both_branches(self, parameter_grid):
        xs = np.geomspace(0.05, 6.0, 10)
        for d in parameter_grid:
            for x in xs:
                assert cdf_series(d, float(x)) == pytest.approx(
                    d.cdf(float(x)), abs=1e-8), (d, x)

    def test_full_output_bound_is_honest(self, rng):
        for _ in range(50):
            d = BGE(*rng.uniform(0.5, 3.0, size=4))
            x = float(rng.uniform(0.1, 4.0))
            res = cdf_series(d, x, full_output=True)
            assert abs(res.value - d.cdf(x)) <= res.error_bound + 1e-9

    def test_near_integer_b(self):
        # b = 3 + 5e-10 is summed as the real-b series it is, not rounded
        # to the finite b = 3 sum (which is 1.1e-10 off here)
        want = 0.736436217739093  # mpmath I_G(3, 3 + 5e-10), G = 1 - e^-1
        assert cdf_series(BGE(3, 3 + 5e-10, 1, 1), 1.0) == pytest.approx(want, rel=1e-12)

    def test_nonconvergence_signal(self, monkeypatch):
        monkeypatch.setattr(series, "_MAX_TERMS", 5)
        with pytest.raises(SeriesConvergenceError):
            cdf_series(BGE(1.5, 2.7, 1.0, 1.3), 3.0)

    def test_cancellation_signal_at_large_b(self):
        # the paper's moment and mgf expansions peak at ~2^b in the
        # alternating phase and are not evaluable in doubles for large b,
        # so the moment and the mgf are rows of the latent engine; the cdf
        # expansion survives because its payload suppresses the peak terms
        params = (0.4125, 93.4655, 0.92271, 22.6124)
        d = BGE(*params)
        assert raw_moment(d, 1) == moment_set(d).mu1
        assert mgf(d, 0.5) == pytest.approx(mp_order_stat_moment(params, 1, 1, 0, t=0.5),
                                            rel=1e-10)
        assert cdf_series(d, 1.5) == pytest.approx(d.cdf(1.5), abs=1e-9)

    def test_x_zero(self):
        assert cdf_series(BGE(2, 3, 1, 1), 0.0) == 0.0

    def test_flat_tail_cutoff_past_w_600(self):
        # the payload's geometric cutoff u^(alpha x) lies near w = lam x -
        # log x0 of the tail integral over w = log(x / x0), past w = 600 here:
        # a rule cut at w = 600 returned 0.999994805567363 at both x, 3e-6 off
        d = BGE(2.0, 0.02, 1.0, 0.5)
        for x in (650.0, 700.0):
            ev = cdf_series(d, x, full_output=True)
            assert abs(ev.value - d.cdf(x)) <= ev.error_bound < 1e-9, (x, ev)


class TestClosedFormInteger:
    def test_ge_reduction(self):
        d = BGE.ge(1.5, 2.0)
        for x in (0.3, 1.1):
            u = -math.expm1(-1.5 * x)
            assert closed_form_cdf_integer(d, x, "integer_a") == pytest.approx(u ** 2, abs=1e-13)
            assert closed_form_cdf_integer(d, x, "integer_b") == pytest.approx(u ** 2, abs=1e-13)

    def test_integer_a_vs_incbeta(self):
        d = BGE(3, 2.5, 1, 1)
        assert closed_form_cdf_integer(d, 1.0, "integer_a") == pytest.approx(d.cdf(1.0), abs=1e-11)

    def test_integer_b_vs_incbeta(self):
        d = BGE(2.5, 3, 1, 1)
        assert closed_form_cdf_integer(d, 1.0, "integer_b") == pytest.approx(d.cdf(1.0), abs=1e-11)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            closed_form_cdf_integer(BGE(2.5, 3, 1, 1), 1.0, "integer_a")
        with pytest.raises(ValueError):
            closed_form_cdf_integer(BGE(3, 2.5, 1, 1), 1.0, "integer_b")
        with pytest.raises(ValueError):
            closed_form_cdf_integer(BGE(3, 3, 1, 1), 1.0, "both")


class TestPdfMixture:
    def test_ge_single_term(self, rng):
        d = BGE.ge(2.0, 1.5)
        for x in rng.uniform(0.05, 4.0, size=10):
            assert pdf_mixture(d, float(x)) == pytest.approx(d.pdf(float(x)), rel=1e-12)

    def test_integer_branch(self):
        d = BGE(2, 4, 1, 1.5)
        assert pdf_mixture(d, 0.6) == pytest.approx(d.pdf(0.6), abs=1e-10)

    def test_real_branch(self):
        d = BGE(0.7, 2.3, 2.0, 0.9)
        assert pdf_mixture(d, 0.3) == pytest.approx(d.pdf(0.3), abs=1e-7)

    def test_agreement_grid(self, parameter_grid):
        xs = np.geomspace(0.05, 6.0, 10)
        for d in parameter_grid:
            for x in xs:
                assert pdf_mixture(d, float(x)) == pytest.approx(
                    d.pdf(float(x)), abs=1e-8), (d, x)


class TestMgf:
    def test_exponential(self):
        d = BGE.exponential(2.0)
        assert mgf(d, 0.5) == pytest.approx(2.0 / 1.5, rel=1e-12)

    def test_ge_closed_form(self):
        # a=b=1: M(t) = alpha B(1-t/lam, alpha)
        d = BGE.ge(1.0, 3.5)
        want = 3.5 * math.exp(sf.log_beta(0.6, 3.5))
        assert mgf(d, 0.4) == pytest.approx(want, rel=1e-11)

    def test_be_closed_form_both_branches(self):
        # alpha=1: M(t) = B(b - t/lam, a) / B(a, b), both sides independent
        for b in (3.0, 3.3):
            d = BGE.be(2.0, b, 1.0)
            want = math.exp(sf.log_beta(b - 0.4, 2.0) - sf.log_beta(2.0, b))
            assert mgf(d, 0.4) == pytest.approx(want, abs=1e-10)

    def test_at_zero_is_one(self, rng):
        for _ in range(20):
            d = BGE(*rng.uniform(0.5, 3.0, size=4))
            assert mgf(d, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_derivative_at_zero_is_mean(self, rng):
        for _ in range(10):
            d = BGE(*rng.uniform(0.8, 3.0, size=4))
            h = 1e-4 * d.lam
            deriv = (mgf(d, h) - mgf(d, -h)) / (2.0 * h)
            assert deriv == pytest.approx(raw_moment(d, 1), rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            mgf(BGE(1, 1, 1.0, 1), 1.0)

    def test_appendix_identity_real_b(self, rng):
        # sum_j (-1)^j Gamma(b) / (Gamma(b-j) j!) B(1-t/lam, a+j) = B(b-t/lam, a):
        # the paper's beta-function form of the BE mgf, summed by the series engine
        for _ in range(20):
            a = float(rng.uniform(0.5, 5.0))
            b = float(rng.uniform(1.2, 9.0))
            if abs(b - round(b)) < 0.05:
                b += 0.1
            t = float(rng.uniform(0.05, min(0.95, b - 0.2)))
            lhs = series._sum_series(b, lambda j: betaln(1.0 - t, a + j),
                                     -sf.log_beta(a, b), "mgf").value
            rhs = math.exp(sf.log_beta(b - t, a) - sf.log_beta(a, b))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("a, b, t", [(2.0, 0.05, 0.02), (1.5, 0.02, 0.01)])
    def test_appendix_identity_within_its_bound_or_refused(self, a, b, t):
        # the terms decay like j^-(1 + b - t): the tail's mass past where x
        # leaves the double range is about 1e-9 and 2e-3 of the sum here,
        # which the bound must cover, or the sum must be refused
        rhs = math.exp(sf.log_beta(b - t, a) - sf.log_beta(a, b))
        try:
            ev = series._sum_series(b, lambda j: betaln(1.0 - t, a + j),
                                    -sf.log_beta(a, b), "mgf")
        except SeriesConvergenceError:
            return
        assert abs(ev.value - rhs) <= ev.error_bound, ev


class TestMoments:
    def test_exponential_mean(self):
        assert raw_moment(BGE.exponential(2.0), 1) == pytest.approx(0.5, abs=1e-12)

    def test_ge_harmonic_identity(self):
        # alpha=3, lam=1: mean = psi(4) - psi(1) = 1 + 1/2 + 1/3
        assert raw_moment(BGE.ge(1.0, 3.0), 1) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("params", [(2.0, 1.5, 1.0, 2.0), (1.3, 2.6, 0.8, 1.1),
                                        (2.0, 3.0, 1.0, 1.0), (0.9, 1.4, 1.2, 0.7),
                                        (2.5, 6.0, 0.5, 3.0)])
    def test_vs_quadrature(self, params):
        d = BGE(*params)
        for r in (1, 2, 3, 4):
            assert raw_moment(d, r) == pytest.approx(quad_moment(d, r), rel=1e-6)

    @pytest.mark.parametrize("params", [(2.0, 0.3, 1.0, 1.5), (1.5, 0.05, 1.0, 2.0),
                                        (3.0, 0.12, 0.5, 4.0), (0.5, 0.7, 2.0, 0.8)])
    def test_flat_tail_exit_vs_mpmath(self, params):
        # small b: the cdf series at the 0.99 quantile leaves by the
        # one-signed flat-tail exit (at j + 1 terms, j >= 128 a multiple of
        # 32), so its value includes the tail integral
        d = BGE(*params)
        x = d.quantile(0.99)
        ev = cdf_series(d, x, full_output=True)
        assert ev.terms > 128 and (ev.terms - 1) % 32 == 0, ev
        assert ev.value == pytest.approx(d.cdf(x), abs=1e-8)
        ms = moment_set(d)
        for r in (1, 2, 3, 4):
            want = mp_order_stat_moment(params, 1, 1, r)
            assert raw_moment(d, r) == pytest.approx(want, rel=1e-12)
            assert getattr(ms, f"mu{r}") == pytest.approx(want, rel=1e-12)

    def test_exponential_skew_kurt_exact(self):
        skew, kurt = skewness_kurtosis(BGE.exponential(1.7))
        assert skew == pytest.approx(2.0, abs=1e-9)
        assert kurt == pytest.approx(9.0, abs=1e-9)
        ms = moment_set(BGE.exponential(1.7))
        assert ms.mu1 == pytest.approx(1.0 / 1.7, abs=1e-9)

    def test_variance_positive(self, rng):
        for _ in range(20):
            d = BGE(*rng.uniform(0.5, 3.0, size=4))
            assert moment_set(d).variance > 0.0

    def test_printed_fourth_moment_form_is_wrong(self):
        # adjudication of the published f_j: dropping the pentagamma
        # term understates the exponential fourth moment (18 vs 24)
        theta = 1.0
        c = sf.digamma(theta + 1) - sf.digamma(1.0)
        p = sf.trigamma(1.0) - sf.trigamma(theta + 1)
        q2 = polygamma(2, 1.0) - polygamma(2, theta + 1)
        printed = (c * c + p) * (c * c + 3 * p) + 2 * c * c * p - 4 * c * q2
        assert printed == pytest.approx(18.0, abs=1e-9)
        assert raw_moment(BGE.ge(1.0, theta), 4) == pytest.approx(24.0, abs=1e-9)
        assert quad_moment(BGE.exponential(1.0), 4) == pytest.approx(24.0, rel=1e-7)

    def test_ge_raw_moment_array_vs_mpmath(self):
        # E[Y^r] of unit-rate GE(theta) = BGE.ge(1, theta) from its cumulants
        # k_m = (-1)^m (psi^(m-1)(1) - psi^(m-1)(theta+1)), at 30 digits
        theta = np.geomspace(1e-4, 1e4, 17)
        want = []
        with mp.workdps(30):
            for t in theta:
                k1, k2, k3, k4 = [(-1) ** m * (mp.polygamma(m - 1, 1) - mp.polygamma(m - 1, t + 1))
                                  for m in (1, 2, 3, 4)]
                want.append([float(v) for v in (
                    k1, k2 + k1 ** 2, k3 + 3 * k2 * k1 + k1 ** 3,
                    k4 + 4 * k3 * k1 + 3 * k2 ** 2 + 6 * k2 * k1 ** 2 + k1 ** 4)])
        for r in (1, 2, 3, 4):
            got = [raw_moment(BGE.ge(1.0, float(t)), r) for t in theta]
            assert got == pytest.approx([w[r - 1] for w in want], rel=1e-11)

    def test_third_moment_sign_convention(self):
        # the extra sign on the third-moment coefficients is correct:
        # e_j = -(third GE raw moment), verified against quadrature
        d = BGE(2.0, 3.0, 1.0, 1.0)
        assert raw_moment(d, 3) == pytest.approx(quad_moment(d, 3), rel=1e-7)
        theta = 2.5
        c = sf.digamma(theta + 1) - sf.digamma(1.0)
        p = sf.trigamma(1.0) - sf.trigamma(theta + 1)
        e_j = -c * (c * c + 3 * p) + polygamma(2, 1.0) - polygamma(2, theta + 1)
        assert -e_j == pytest.approx(raw_moment(BGE.ge(1.0, theta), 3), rel=1e-12)


class TestSkewKurtCurves:
    # The curves at lam = alpha = 1 are monotone, but in the OPPOSITE
    # direction of the published figure-caption claim: both skewness and
    # kurtosis DECREASE with a at every fixed b, independently verified
    # against the quadrature moments (see errata.json, entry
    # "skew-kurt-monotonicity").  In b the direction flips with a:
    # increasing for a < 1, constant at a = 1 (that slice is the
    # exponential for every b), decreasing for a > 1.

    def test_skewness_decreases_with_a(self):
        vals = [skewness_kurtosis(BGE(a, 2.0, 1.0, 1.0))[0] for a in np.linspace(0.5, 5.0, 8)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_skewness_direction_in_b_depends_on_a(self):
        up = [skewness_kurtosis(BGE(0.5, b, 1.0, 1.0))[0] for b in np.linspace(0.5, 5.0, 8)]
        assert all(v2 > v1 for v1, v2 in zip(up, up[1:]))
        flat = [skewness_kurtosis(BGE(1.0, b, 1.0, 1.0))[0] for b in (0.5, 2.0, 5.0)]
        assert flat == pytest.approx([2.0, 2.0, 2.0], abs=1e-8)
        down = [skewness_kurtosis(BGE(2.0, b, 1.0, 1.0))[0] for b in np.linspace(0.5, 5.0, 8)]
        assert all(v2 < v1 for v1, v2 in zip(down, down[1:]))

    def test_kurtosis_decreases_with_a(self):
        ka = [skewness_kurtosis(BGE(a, 2.0, 1.0, 1.0))[1] for a in np.linspace(0.5, 5.0, 8)]
        assert all(v2 < v1 for v1, v2 in zip(ka, ka[1:]))

    def test_monotone_direction_matches_quadrature_oracle(self):
        # guard against a sign error in the series route itself
        lo, hi = BGE(0.5, 2.0, 1.0, 1.0), BGE(5.0, 2.0, 1.0, 1.0)

        def oracle_skew(d):
            m = [quad_moment(d, r) for r in (1, 2, 3)]
            var = m[1] - m[0] ** 2
            return (m[2] - 3 * m[0] * m[1] + 2 * m[0] ** 3) / var ** 1.5

        assert oracle_skew(lo) > oracle_skew(hi)
        assert skewness_kurtosis(lo)[0] == pytest.approx(oracle_skew(lo), rel=1e-6)
        assert skewness_kurtosis(hi)[0] == pytest.approx(oracle_skew(hi), rel=1e-6)


class TestEntropy:
    def test_exponential_closed_form(self):
        for lam in (0.5, 1.0, 3.0):
            assert shannon_entropy(BGE.exponential(lam)) == pytest.approx(
                1.0 - math.log(lam), abs=1e-10)

    def test_vs_quadrature(self):
        d = BGE(2, 3, 1, 1)
        k = 1.0 / (d.alpha * d.a)
        q = d.quantile(0.3)
        left = quad(lambda s: -d.pdf(q * s ** k) * d.logpdf(q * s ** k) * q * k * s ** (k - 1.0),
                    0.0, 1.0, limit=400)[0]
        right = quad(lambda x: -d.pdf(x) * d.logpdf(x), q, np.inf, limit=400)[0]
        assert shannon_entropy(d) == pytest.approx(left + right, abs=1e-6)

    def test_vs_monte_carlo(self):
        d = BGE(1.0, 1.0, 1.0, 2.0)
        draws = d.sample(1_000_000, np.random.default_rng(77)).values
        vals = -d.logpdf(draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(shannon_entropy(d) - vals.mean()) < 3.0 * se


def mp_entropy(params, mu1):
    """The entropy formula in mpmath around a given mean."""
    with mp.workdps(20):
        a, b, lam, alpha = map(mp.mpf, params)
        return float(-mp.log(alpha * lam) + mp.log(mp.beta(a, b)) + lam * mu1
                     + (1 / alpha - a) * (mp.digamma(a) - mp.digamma(a + b))
                     - (b - 1) * (mp.digamma(b) - mp.digamma(a + b)))


class TestLatentMoments:
    """``moment_set`` and the entropy mean against mpmath, at points where
    the real-b series was up to 8.6e-3 off (b < 0.026) or raised (b = 93)."""

    @pytest.mark.parametrize("params", [
        (1.1645788635323704, 0.011171851377448676, 3.409653146991546, 0.430616362199317),
        (15.629259924721465, 0.011367036351809601, 59.38539695139428, 30.737897468028287),
        (0.122, 6.284, 22.78, 0.0946),
        (0.02, 0.02, 1.0, 0.5),                   # mean 24.6826315773593
        (0.4125, 93.4655, 0.92271, 22.6124),
    ])
    def test_against_mpmath(self, params):
        want = [mp_order_stat_moment(params, 1, 1, r) for r in (1, 2, 3, 4)]
        d = BGE(*params)
        ms = moment_set(d)
        assert [ms.mu1, ms.mu2, ms.mu3, ms.mu4] == pytest.approx(want, rel=1e-10)
        assert shannon_entropy(d) == pytest.approx(mp_entropy(params, want[0]), rel=1e-10)

    @pytest.mark.parametrize("signs", list(itertools.product((-1.0, 1.0), repeat=4)))
    def test_box_corners(self, signs):
        d = BGE(*(math.exp(4.5 * s) for s in signs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = moment_set(d)
            h = shannon_entropy(d)
        assert all(math.isfinite(v) for v in (*vars(ms).values(), h)), (ms, h)
        assert ms.variance > 0.0


class TestExpectedLogIdentity:
    def test_expected_log_u(self):
        # E[log(1 - e^{-lam Y})] = (psi(a) - psi(a+b)) / alpha
        d = BGE(2.0, 3.0, 1.0, 1.5)
        draws = d.sample(1_000_000, np.random.default_rng(88)).values
        vals = np.log(-np.expm1(-d.lam * draws))
        want = (sf.digamma(d.a) - sf.digamma(d.a + d.b)) / d.alpha
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - want) < 4.0 * se
