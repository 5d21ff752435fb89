"""Acceptance gate: every stated criterion at its stated tolerance.

Each criterion records one PASS/FAIL line (printed in the terminal
summary via conftest).  The published BE glass-fibre point is not a
stationary point of the likelihood (errata.json "glass-fibre-published-
fits"), so the BE checks compare the bounded fit with an independent
scipy oracle of the b = e^4.5 profile maximum and the gamma-limit
supremum, and move the BE-vs-BGE statistic window by the loglik the
published BE point falls short of that maximum.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from bgedist import BGE
from bgedist import specfun as sf
from bgedist.cli import main as cli_main
from bgedist.datasets import GLASS_FIBRE_TOLERANCES as TOL, glass_fibre_sample
from bgedist.inference import (fit_mle, information_matrix, lr_from_fits,
                               log_likelihood, score)
from bgedist.order_stats import (MixtureTermBudget, OrderStatIndex,
                                 order_stat_pdf_direct, order_stat_pdf_mixture)
from bgedist.series import cdf_series, mgf, pdf_mixture, raw_moment, skewness_kurtosis

from conftest import ACCEPTANCE_RESULTS, mc_expected_information


def _record(name, ok, detail):
    ACCEPTANCE_RESULTS.append((name, bool(ok), detail))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def glass_fits():
    data = glass_fibre_sample()
    out = {}
    for model in ("ge", "be", "bge"):
        t0 = time.perf_counter()
        out[model] = fit_mle(data, model)
        out[model + "_time"] = time.perf_counter() - t0
    return out


class TestGlassFibreReproduction:
    def test_ge_fit(self, glass_fits):
        fit, dt, tol = glass_fits["ge"], glass_fits["ge_time"], TOL["ge"]
        ok = (abs(fit.params.lam - 2.6105) <= tol["rel"] * 2.6105
              and abs(fit.params.alpha - 31.3032) <= tol["rel"] * 31.3032
              and abs(fit.loglik - -31.3834) <= tol["loglik"]
              and dt < 1.0)
        _record("glass-fibre GE fit",
                ok, f"lam={fit.params.lam:.4f} alpha={fit.params.alpha:.4f} "
                    f"ll={fit.loglik:.4f} t={dt:.2f}s")

    def test_be_fit(self, glass_fits, be_glass_fibre_oracle):
        # The published BE point (17.7786, 22.7222, 0.3898; ll -24.1270)
        # is an early-stopped iterate: the likelihood rises along the b
        # ridge toward a gamma limit (errata.json "glass-fibre-published-
        # fits").  The bounded fit must stop on the b bound at the oracle's
        # profile maximum, above the published loglik and below the limit.
        fit, dt = glass_fits["be"], glass_fits["be_time"]
        p, want = fit.params, be_glass_fibre_oracle
        ok = (abs(fit.loglik - want["loglik"]) <= 1e-6
              and abs(p.a - want["a"]) <= 1e-4 * want["a"]
              and abs(p.lam - want["lam"]) <= 1e-4 * want["lam"]
              and abs(p.b - want["b"]) <= 1e-9 * want["b"]
              and fit.hit_bounds == ("b",) and not fit.converged
              and -24.1270 + 0.1 < fit.loglik < want["gamma_sup"]
              and dt < 5.0)
        _record("glass-fibre BE fit (b = e^4.5 profile maximum, below gamma limit)",
                ok, f"a={p.a:.4f} b={p.b:.4f} lam={p.lam:.6f} ll={fit.loglik:.6f} "
                    f"hit_bounds={fit.hit_bounds} t={dt:.2f}s vs oracle "
                    f"({want['a']:.4f}, {want['b']:.4f}, {want['lam']:.6f}, "
                    f"{want['loglik']:.6f}), gamma limit {want['gamma_sup']:.6f}")

    def test_bge_fit(self, glass_fits, bge_glass_fibre_oracle):
        # The published window holds only while the box edge e^4.5 stays
        # near the published, early-stopped b = 93.47; the oracle's
        # b = e^4.5 profile maximum pins the bounded fit itself.
        fit, dt, tol = glass_fits["bge"], glass_fits["bge_time"], TOL["bge"]
        p, want = fit.params, bge_glass_fibre_oracle
        ll_ok = fit.loglik >= tol["loglik_floor"] and abs(fit.loglik - -15.5995) <= tol["loglik"]
        ref = {"a": 0.4125, "b": 93.4655, "lam": 0.92271, "alpha": 22.6124}
        par_ok = all(abs(getattr(p, k) - v) <= tol["rel"] * v for k, v in ref.items())
        oracle_ok = (abs(fit.loglik - want["loglik"]) <= 1e-6
                     and all(abs(getattr(p, k) - want[k]) <= 1e-4 * want[k]
                             for k in ("a", "lam", "alpha"))
                     and fit.hit_bounds == ("b",))
        ok = ll_ok and dt < 30.0 and par_ok and oracle_ok
        _record("glass-fibre BGE fit (published window, b = e^4.5 profile maximum)",
                ok, f"ll={fit.loglik:.4f} params=({p.a:.4f}, {p.b:.3f}, "
                    f"{p.lam:.4f}, {p.alpha:.3f}) within 10% of published, t={dt:.2f}s"
                    + ("" if par_ok else " [parameter drift]")
                    + f"; vs oracle ({want['a']:.6f}, {want['lam']:.6f}, "
                      f"{want['alpha']:.5f}, {want['loglik']:.10f}) hit_bounds={fit.hit_bounds}")

    def test_lr_ge_vs_bge(self, glass_fits):
        lr, tol = lr_from_fits(glass_fits["ge"], glass_fits["bge"]), TOL["lr"]
        ok = (abs(lr.statistic - 31.5678) <= tol["statistic"]
              and 1.39e-7 / tol["p_factor"] <= lr.p_value <= 1.39e-7 * tol["p_factor"])
        _record("glass-fibre LR GE vs BGE",
                ok, f"w={lr.statistic:.4f} p={lr.p_value:.3g}")

    def test_lr_be_vs_bge(self, glass_fits, be_glass_fibre_oracle):
        # The published 17.0550 = 2 * (-15.5995 - -24.1270) inherits the
        # BE early stop; the window is centred where the published
        # statistic lands once the BE leg reaches the oracle's maximum.
        published_ok = abs(17.0550 - 2.0 * (-15.5995 - -24.1270)) <= 1e-3
        centre = 17.0550 - 2.0 * (be_glass_fibre_oracle["loglik"] - -24.1270)
        lr, tol = lr_from_fits(glass_fits["be"], glass_fits["bge"]), TOL["lr"]
        p_ok = 3.63e-5 / tol["p_factor"] <= lr.p_value <= 3.63e-5 * tol["p_factor"]
        ok = (published_ok and lr.dof == 1 and abs(lr.statistic - centre) <= tol["statistic"]
              and p_ok)
        _record("glass-fibre LR BE vs BGE (published statistic shifted to the BE oracle)",
                ok, f"w={lr.statistic:.4f} vs {centre:.4f}+-0.1, dof={lr.dof}, "
                    f"p={lr.p_value:.3g} (p factor-2 check: {'pass' if p_ok else 'fail'})")

    def test_published_loglik_at_published_point(self):
        # direct evaluation (no optimization): the likelihood itself is
        # the published one
        d = BGE(0.4125, 93.4655, 0.92271, 22.6124)
        ll = log_likelihood(d, glass_fibre_sample())
        _record("glass-fibre published-point log-likelihood",
                abs(ll - -15.5995) <= 0.01, f"ll={ll:.6f} vs -15.5995")


class TestSeriesValidation:
    def test_series_agreement_and_mgf_identity(self, parameter_grid):
        t0 = time.perf_counter()
        xs = np.geomspace(0.05, 6.0, 10)
        worst_cdf = worst_pdf = 0.0
        for d in parameter_grid:
            for x in xs:
                x = float(x)
                worst_cdf = max(worst_cdf, abs(cdf_series(d, x) - d.cdf(x)))
                worst_pdf = max(worst_pdf, abs(pdf_mixture(d, x) - d.pdf(x)))
        rng = np.random.default_rng(314)
        worst_mgf = 0.0
        for _ in range(20):
            a = float(rng.uniform(0.5, 5.0))
            b = float(rng.uniform(1.2, 9.0))
            if abs(b - round(b)) < 0.05:
                b += 0.1
            t = float(rng.uniform(0.05, min(0.95, b - 0.2)))
            lhs = mgf(BGE.be(a, b, 1.0), t)
            rhs = math.exp(sf.log_beta(b - t, a) - sf.log_beta(a, b))
            worst_mgf = max(worst_mgf, abs(lhs - rhs))
        dt = time.perf_counter() - t0
        ok = worst_cdf <= 1e-8 and worst_pdf <= 1e-8 and worst_mgf <= 1e-9 and dt < 30.0
        _record("series validation suite",
                ok, f"cdf err {worst_cdf:.2g}, pdf err {worst_pdf:.2g}, "
                    f"mgf identity err {worst_mgf:.2g}, t={dt:.1f}s")


class TestMomentOracle:
    INTEGER_B = [(2.0, 3.0, 1.0, 1.0), (1.0, 2.0, 0.5, 2.0), (0.7, 1.0, 1.0, 1.3),
                 (2.5, 4.0, 2.0, 0.8), (1.5, 2.0, 1.0, 1.0), (3.0, 1.0, 0.7, 1.5),
                 (0.5, 5.0, 1.0, 1.0), (2.0, 2.0, 1.5, 2.5), (1.2, 3.0, 1.0, 0.6),
                 (4.0, 2.0, 0.9, 1.0)]
    REAL_B = [(2.0, 1.5, 1.0, 2.0), (1.3, 2.6, 0.8, 1.1), (0.9, 1.4, 1.2, 0.7),
              (2.5, 6.5, 0.5, 3.0), (1.0, 3.3, 1.0, 1.0), (3.0, 2.2, 1.5, 0.9),
              (0.6, 4.7, 1.0, 1.8), (2.2, 1.8, 2.0, 1.2), (1.7, 5.5, 0.7, 1.0),
              (1.1, 2.9, 1.3, 2.1)]

    @staticmethod
    def quad_moment(dist, r):
        k = 1.0 / (dist.alpha * dist.a)
        q = dist.quantile(0.3)
        left = quad(lambda s: (q * s ** k) ** r * dist.pdf(q * s ** k)
                    * q * k * s ** (k - 1.0), 0.0, 1.0, limit=400)[0]
        right = quad(lambda x: x ** r * dist.pdf(x), q, np.inf, limit=400)[0]
        return left + right

    def test_moments_match_quadrature(self):
        worst = 0.0
        for params in self.INTEGER_B + self.REAL_B:
            d = BGE(*params)
            for r in (1, 2, 3, 4):
                want = self.quad_moment(d, r)
                rel = abs(raw_moment(d, r) - want) / want
                worst = max(worst, rel)
        _record("moment oracle suite (10 points per b-branch, r=1..4)",
                worst <= 1e-6, f"worst rel err {worst:.2g}")

    def test_exponential_exact(self):
        d = BGE.exponential(1.7)
        skew, kurt = skewness_kurtosis(d)
        ok = (abs(raw_moment(d, 1) - 1.0 / 1.7) <= 1e-9
              and abs(skew - 2.0) <= 1e-9 and abs(kurt - 9.0) <= 1e-9)
        _record("exponential sub-model (mean, skew, kurt) = (1/lam, 2, 9)",
                ok, f"mean={raw_moment(d, 1):.12f} skew={skew:.12f} kurt={kurt:.12f}")


class TestInferenceSuite:
    def test_score_vs_finite_differences(self):
        rng = np.random.default_rng(271)
        worst = 0.0
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
                fd[i] = (log_likelihood(BGE(*tp), data)
                         - log_likelihood(BGE(*tm), data)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            worst = max(worst, float(np.max(np.abs(analytic - fd))) / scale)
        _record("analytic score vs finite differences (100 cases)",
                worst <= 1e-5, f"worst scaled err {worst:.2g}")

    def test_information_vs_mc_hessian(self):
        points = [BGE(2.0, 3.0, 1.0, 1.5), BGE(0.8, 2.5, 2.0, 1.0),
                  BGE(1.5, 4.0, 0.7, 2.5), BGE(3.0, 3.0, 1.2, 0.8),
                  BGE(1.0, 2.2, 1.0, 1.0)]
        worst_z = 0.0
        for i, d in enumerate(points):
            K = information_matrix(d).matrix
            est, se = mc_expected_information(d, 300_000, np.random.default_rng(500 + i))
            z = np.abs(K - est) / (se + 1e-8 / 3.0)
            worst_z = max(worst_z, float(z.max()))
        _record("information matrix vs MC expected negative Hessian (5 points)",
                worst_z <= 3.0, f"worst |z| {worst_z:.2f}")

    def test_expected_score_identities(self):
        points = [BGE(2.0, 3.0, 1.0, 1.5), BGE(0.8, 2.0, 2.0, 1.0), BGE(1.5, 4.5, 0.7, 2.5)]
        worst_sigma = 0.0
        for i, d in enumerate(points):
            y = d.sample(1_000_000, np.random.default_rng(600 + i)).values
            logu = np.log(-np.expm1(-d.lam * y))
            log1mua = np.log(-np.expm1(d.alpha * logu))
            ratio = np.exp(d.alpha * logu - log1mua)
            psi = sf.digamma
            for vals, want in [
                (logu, (psi(d.a) - psi(d.a + d.b)) / d.alpha),
                (log1mua, psi(d.b) - psi(d.a + d.b)),
                (ratio * logu,
                 (d.a * (psi(d.a) - psi(d.a + d.b)) + 1.0) / (d.alpha * (d.b - 1.0))),
            ]:
                se = vals.std(ddof=1) / math.sqrt(vals.size)
                worst_sigma = max(worst_sigma, abs(vals.mean() - want) / se)
        _record("expected-score identities (3 points, b > 1.5, 4-sigma)",
                worst_sigma <= 4.0, f"worst |z| {worst_sigma:.2f}")


class TestOrderStatisticsSuite:
    def test_direct_normalization_and_completeness(self):
        d = BGE(1.5, 2.0, 1.0, 1.2)
        worst_norm = 0.0
        for n in range(1, 6):
            for i in range(1, n + 1):
                idx = OrderStatIndex(i, n)
                k = 1.0 / (d.alpha * d.a * i)
                q = d.quantile(0.5)
                left = quad(lambda s: order_stat_pdf_direct(d, idx, q * s ** k)
                            * q * k * s ** (k - 1.0), 0.0, 1.0, limit=300)[0]
                right = quad(lambda x: order_stat_pdf_direct(d, idx, x),
                             q, np.inf, limit=300)[0]
                worst_norm = max(worst_norm, abs(left + right - 1.0))
        rng = np.random.default_rng(700)
        worst_comp = 0.0
        for n in range(1, 6):
            for x in rng.uniform(0.05, 4.0, size=5):
                x = float(x)
                s = sum(order_stat_pdf_direct(d, OrderStatIndex(i, n), x)
                        for i in range(1, n + 1)) / n
                worst_comp = max(worst_comp, abs(s - d.pdf(x)))
        ok = worst_norm <= 1e-7 and worst_comp <= 1e-10
        _record("order statistics: normalization and completeness (n <= 5)",
                ok, f"norm err {worst_norm:.2g}, completeness err {worst_comp:.2g}")

    def test_mixture_reconciliation(self):
        # the adjudicated (shifted) component shapes agree with the direct
        # density; the report is emitted by tests/test_order_stats.py
        budget = MixtureTermBudget(per_index_cap=60, total_term_cap=500_000)
        cases = [(BGE(1.0, 2.0, 1.0, 1.0), 1, 2, 0.5),
                 (BGE(1.7, 3.0, 1.2, 1.4), 2, 3, 0.9),
                 (BGE(1.5, 2.5, 1.0, 1.2), 2, 3, 1.0),
                 (BGE(0.9, 1.8, 1.4, 0.8), 1, 3, 0.6)]
        worst = 0.0
        for d, i, n, x in cases:
            idx = OrderStatIndex(i, n)
            direct = order_stat_pdf_direct(d, idx, x)
            got = order_stat_pdf_mixture(d, idx, x, budget=budget)
            worst = max(worst, abs(got - direct) / direct)
        _record("order statistics: mixture reconciliation (validated reading)",
                worst <= 1e-4, f"worst rel err {worst:.2g} (shifted reading)")


class TestSamplerSuite:
    POINTS = [BGE(2.0, 1.5, 1.0, 2.0), BGE(0.5, 1.0, 1.0, 0.5),
              BGE(1.0, 3.0, 2.0, 1.0), BGE(3.0, 2.0, 0.5, 1.5),
              BGE(0.8, 0.8, 1.0, 1.2)]

    def test_ks_at_five_points(self):
        n = 100_000
        crit = 1.63 / math.sqrt(n)  # 1% level
        worst = 0.0
        for i, d in enumerate(self.POINTS):
            draws = np.sort(d.sample(n, np.random.default_rng(4242 + i)).values)
            probs = d.cdf(draws)
            grid = np.arange(n)
            stat = float(np.max(np.maximum(probs - grid / n, (grid + 1) / n - probs)))
            worst = max(worst, stat)
        _record("sampler KS at 1% level (5 points, 1e5 draws)",
                worst < crit, f"worst KS {worst:.5f} vs critical {crit:.5f}")

    def test_seeded_determinism(self):
        import io

        argv = ["sample", "--params", "2,3,1.5,0.8", "--n", "1000", "--seed", "31415"]
        out1, out2 = io.StringIO(), io.StringIO()
        assert cli_main(list(argv), out=out1) == 0
        assert cli_main(list(argv), out=out2) == 0
        _record("sampler seeded determinism (byte-exact)",
                out1.getvalue() == out2.getvalue(),
                f"{len(out1.getvalue())} bytes identical")
