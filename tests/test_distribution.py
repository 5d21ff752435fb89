"""Distribution object: densities, tails, quantiles, sampling."""

import copy
import math
import pickle
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from bgedist import BGE, Sample, distribution
from bgedist.distribution import _log_density, log1mexp

mp.mp.dps = 40


def log_u(dist, x):
    """log(1 - e^(-lam x)) as the log-density takes it."""
    return _log_density(dist.params_tuple(), 0.0, x)[2]


def mp_pdf(dist, x):
    """Arbitrary-precision direct evaluation of the density."""
    a, b, lam, alpha = (mp.mpf(repr(v)) for v in dist.params_tuple())
    x = mp.mpf(repr(x))
    u = 1 - mp.e ** (-lam * x)
    val = (alpha * lam / mp.beta(a, b) * mp.e ** (-lam * x)
           * u ** (alpha * a - 1) * (1 - u ** alpha) ** (b - 1))
    return float(val)


class TestValidation:
    def test_rejects_nonpositive_params(self):
        for bad in [(0, 1, 1, 1), (1, -2, 1, 1), (1, 1, 0, 1), (1, 1, 1, float("nan"))]:
            with pytest.raises(ValueError):
                BGE(*bad)

    def test_sample_type_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Sample(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            Sample(np.array([]))
        with pytest.raises(ValueError):
            Sample(np.array([1.0, float("inf")]))

    def test_submodel_predicates(self):
        assert BGE.ge(1, 2).params_tuple() == (1.0, 1.0, 1.0, 2.0)
        assert BGE.be(2, 3, 1).params_tuple() == (2.0, 3.0, 1.0, 1.0)
        assert BGE.dge(2, 1, 3).params_tuple() == (1.0, 2.0, 1.0, 3.0)
        assert BGE.exponential(1.0).params_tuple() == (1.0, 1.0, 1.0, 1.0)

    def test_cached_constants_stay_out_of_value_semantics(self):
        d = BGE(2.0, 0.35, 1.0, 1.5)
        before = (repr(d), str(d), hash(d), pickle.dumps(d))
        d.pdf(1.0), d.cdf(1.0), d.hazard(1.0)
        assert {"log_beta_ab", "_log_norm_const"} <= set(vars(d))
        assert (repr(d), str(d), hash(d), pickle.dumps(d)) == before
        fresh = BGE(2.0, 0.35, 1.0, 1.5)
        assert d == fresh and fresh == d and hash(fresh) == hash(d)
        for clone in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
            assert clone == d and set(vars(clone)) == {"a", "b", "lam", "alpha"}
            assert clone.hazard(1.0) == d.hazard(1.0)


class TestPdf:
    def test_exponential_point(self):
        assert BGE.exponential(1.0).pdf(0.7) == pytest.approx(math.exp(-0.7), rel=1e-14)

    def test_ge_closed_form(self):
        # a=b=1: f(x) = alpha lam e^{-lam x}(1-e^{-lam x})^{alpha-1}
        d = BGE.ge(2.0, 3.0)
        want = 6.0 * math.exp(-2.0) * (1.0 - math.exp(-2.0)) ** 2
        assert d.pdf(1.0) == pytest.approx(want, rel=1e-13)

    def test_against_highprecision_oracle(self):
        d = BGE(2.0, 3.0, 1.5, 0.8)
        assert d.pdf(0.5) == pytest.approx(mp_pdf(d, 0.5), rel=1e-13)

    def test_large_shape_stability(self):
        d = BGE(0.4125, 93.4655, 0.92271, 22.6124)
        for x in (0.3, 1.0, 1.5, 2.5):
            assert d.pdf(x) == pytest.approx(mp_pdf(d, x), rel=1e-11)

    def test_origin_convention(self):
        assert BGE(2, 1, 1, 1).pdf(0.0) == 0.0                      # alpha a > 1
        assert math.isinf(BGE(0.5, 1, 1, 1).pdf(0.0))               # alpha a < 1
        d = BGE(0.5, 2.0, 1.5, 2.0)                                 # alpha a == 1
        assert d.pdf(0.0) == pytest.approx(
            d.alpha * d.lam * math.exp(-d.log_beta_ab), rel=1e-14)
        # an array takes the same limit at its zeros and the density elsewhere
        for d in (BGE(2, 1, 1, 1), BGE(0.5, 1, 1, 1), d):
            got = d.pdf(np.array([0.0, 0.7, 0.0]))
            assert got[0] == got[2] == d.pdf(0.0) and got[1] > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_density_above_the_double_range_is_inf(self):
        # alpha a = 0.005 < 1, so f grows like x^-0.995 at 0: its log is
        # 727.84 at x = 1e-320, and pdf gives the unbounded marker there
        d, x = BGE(0.05, 1, 1, 0.1), 1e-320
        assert d.logpdf(x) == pytest.approx(727.84, abs=0.01)
        assert d.pdf(x) == math.inf and d.hazard(x) == math.inf
        got = d.pdf(np.array([x, 1.0]))
        assert got[0] == math.inf and got[1] == pytest.approx(d.pdf(1.0), rel=1e-15)
        assert d.hazard(np.array([x]))[0] == math.inf

    def test_negative_x_raises(self):
        with pytest.raises(ValueError):
            BGE(1, 1, 1, 1).pdf(-0.1)
        with pytest.raises(ValueError, match="got -0.5"):    # the first negative element
            BGE(1, 1, 1, 1).pdf(np.array([1.0, 0.0, -0.5, -2.0]))

    def test_integrates_to_one_on_grid(self, parameter_grid):
        for d in parameter_grid:
            # substitute x = q s^(1/(alpha a)) near the origin so the
            # power singularity (alpha a < 1) is lifted before quadrature
            k = 1.0 / (d.alpha * d.a)
            q = d.quantile(0.3)
            left = quad(lambda s: d.pdf(q * s ** k) * q * k * s ** (k - 1.0),
                        0.0, 1.0, limit=300)[0]
            right = quad(d.pdf, q, np.inf, limit=300)[0]
            assert left + right == pytest.approx(1.0, abs=1e-7), d


class TestCdfSurvival:
    def test_zero_below_origin(self):
        d = BGE(2, 3, 1, 1)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-1.0) == 0.0
        assert d.survival(0.0) == 1.0
        x = np.array([-1.0, 0.0, 1.5])
        assert d.cdf(x).tolist() == [0.0, 0.0, d.cdf(1.5)]
        assert d.survival(x).tolist() == [1.0, 1.0, d.survival(1.5)]

    def test_ge_closed_form(self):
        assert BGE.ge(1.0, 2.0).cdf(math.log(2.0)) == pytest.approx(0.25, abs=1e-14)

    def test_against_quadrature(self):
        d = BGE(0.4125, 93.4655, 0.92271, 22.6124)
        want = quad(d.pdf, 0.0, 1.5, limit=300)[0]
        assert d.cdf(1.5) == pytest.approx(want, abs=1e-9)

    def test_survival_tail_quadrature(self):
        d = BGE(2, 3, 1, 1)
        want = quad(d.pdf, 3.0, 60.0, limit=300)[0]
        assert d.survival(3.0) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("params, x", [
        ((0.02, 2.0, 1.0, 1.0), 1e-20),   # 1 - G rounds to 1
        ((2.0, 0.05, 1.0, 1.0), 30.0),    # G rounds to just below 1
        ((0.02, 0.02, 1.0, 0.5), 40.0),   # G rounds to 1
        ((0.02, 2.0, 1.0, 90.0), 1e-10),  # G = 1e-900 underflows
    ])
    def test_box_corners_against_mpmath(self, params, x):
        d = BGE(*params)
        with mp.workdps(60):
            a, b, lam, alpha = (mp.mpf(repr(v)) for v in params)
            g = (-mp.expm1(-lam * mp.mpf(repr(x)))) ** alpha
            want_cdf = float(mp.betainc(a, b, 0, g, regularized=True))
            want_sf = float(mp.betainc(a, b, g, 1, regularized=True))
        assert d.cdf(x) == pytest.approx(want_cdf, rel=1e-13, abs=0.0)
        assert d.survival(x) == pytest.approx(want_sf, rel=1e-13, abs=0.0)

    #: (params, x, branch of the complement side): 1 - s where s <= 1/2,
    #: the mirror I_(1-x)(q, p) where the small argument x is >= 1/4, and
    #: betaincc for the rest, with a = e^-4.5 and b = e^-4.5 corners.  The
    #: complement is the survival where G <= 1/2 and the cdf where G > 1/2.
    BRANCH_POINTS = [
        ((2.0, 3.0, 1.0, 1.5), 0.5, "one_minus_s"),
        ((2.0, 3.0, 1.0, 1.5), 3.0, "one_minus_s"),
        ((0.011108996538242306, 0.011108996538242306, 1.0, 1.0), 3.0, "one_minus_s"),
        ((0.5, 5.0, 1.0, 1.0), 0.35, "mirror"),
        ((5.0, 0.5, 1.0, 1.0), 1.1, "mirror"),
        ((0.3, 7.0, 2.0, 0.7), 0.2, "mirror"),
        ((0.011108996538242306, 2.0, 1.0, 1.0), 0.1, "betaincc"),
        ((2.0, 0.011108996538242306, 1.0, 1.0), 2.0, "betaincc"),
        ((0.3, 7.0, 2.0, 0.7), 0.05, "betaincc"),
    ]

    @pytest.mark.parametrize("params, x, branch", BRANCH_POINTS)
    def test_complement_branches_against_mpmath(self, params, x, branch):
        d = BGE(*params)
        a, b, lam, alpha = map(mp.mpf, params)
        g = (-mp.expm1(-lam * mp.mpf(x))) ** alpha
        want_cdf = float(mp.betainc(a, b, 0, g, regularized=True))
        want_sf = float(mp.betainc(a, b, g, 1, regularized=True))
        for got_cdf, got_sf in ((d.cdf(x), d.survival(x)),
                                (d.cdf(np.array([x]))[0], d.survival(np.array([x]))[0])):
            assert got_cdf == pytest.approx(want_cdf, rel=1e-13, abs=0.0), branch
            assert got_sf == pytest.approx(want_sf, rel=1e-13, abs=0.0), branch

    class _Counting:
        """Forwards to a module of kernels, recording the arguments of
        each ``betaincc`` call."""

        def __init__(self, module):
            self._module, self.calls = module, []

        def betaincc(self, *args):
            self.calls.append(args)
            return self._module.betaincc(*args)

        def __getattr__(self, name):
            return getattr(self._module, name)

    def test_betaincc_only_on_the_third_branch(self, monkeypatch):
        import scipy.special
        import scipy.special.cython_special

        kernels = self._Counting(scipy.special.cython_special)
        ufuncs = self._Counting(scipy.special)
        monkeypatch.setattr(distribution, "_sc", kernels)
        monkeypatch.setattr(distribution, "_ufuncs", ufuncs)
        for params, x, branch in self.BRANCH_POINTS:
            d = BGE(*params)
            d.cdf(x), d.survival(x)
            assert len(kernels.calls) == (branch == "betaincc"), (params, x)
            kernels.calls.clear()
        rng = np.random.default_rng(3)
        for params in np.exp(rng.uniform(-4.5, 4.5, size=(40, 4))):
            d = BGE(*params)
            xs = np.exp(np.linspace(-12.0, 4.0, 60)) / d.lam
            for fn in (d.cdf, d.survival):
                fn(xs)
                for x in xs.tolist():
                    fn(x)
                elements = [args for call in ufuncs.calls for args in zip(*call)]
                assert len(elements) == len(kernels.calls), (d, fn)
                for p, q, small in elements:
                    assert small < 0.25 and scipy.special.betainc(p, q, small) > 0.5, (d, fn)
                kernels.calls.clear()
                ufuncs.calls.clear()

    def test_complementarity(self, rng):
        for _ in range(200):
            d = BGE(*rng.uniform(0.3, 4.0, size=4))
            x = rng.uniform(0.01, 8.0)
            assert d.cdf(x) + d.survival(x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self, rng):
        for _ in range(50):
            d = BGE(*rng.uniform(0.3, 4.0, size=4))
            x1, x2 = np.sort(rng.uniform(0.0, 10.0, size=2))
            assert d.cdf(x1) <= d.cdf(x2) + 1e-15


class TestSubmodelCollapse:
    def test_ge_density_pointwise(self, rng):
        for _ in range(50):
            lam, alpha = rng.uniform(0.3, 4.0, size=2)
            x = rng.uniform(0.01, 6.0)
            d = BGE(1.0, 1.0, lam, alpha)
            u = -math.expm1(-lam * x)
            want = alpha * lam * math.exp(-lam * x) * u ** (alpha - 1.0)
            assert d.pdf(x) == pytest.approx(want, rel=1e-12)

    def test_be_density_pointwise(self, rng):
        # alpha=1: f(x) = lam e^{-lam x}(1-e^{-lam x})^{a-1} e^{-lam x (b-1)}/B(a,b)
        for _ in range(50):
            a, b, lam = rng.uniform(0.3, 4.0, size=3)
            x = rng.uniform(0.01, 6.0)
            d = BGE(a, b, lam, 1.0)
            u = -math.expm1(-lam * x)
            want = (lam * math.exp(-lam * x) * u ** (a - 1.0) * (1.0 - u) ** (b - 1.0)
                    / math.exp(__import__("bgedist.specfun", fromlist=["log_beta"]).log_beta(a, b)))
            assert d.pdf(x) == pytest.approx(want, rel=1e-12)

    def test_dge_cdf_complement(self, rng):
        # a=1: survival(x) = {1-(1-e^{-lam x})^alpha}^b
        for _ in range(50):
            b, lam, alpha = rng.uniform(0.3, 4.0, size=3)
            x = rng.uniform(0.01, 6.0)
            d = BGE(1.0, b, lam, alpha)
            u = -math.expm1(-lam * x)
            want = 1.0 - (1.0 - u ** alpha) ** b
            assert d.cdf(x) == pytest.approx(want, abs=1e-12)


class TestHazard:
    def test_exponential_constant(self, rng):
        d = BGE.exponential(2.0)
        for x in rng.uniform(0.01, 10.0, size=20):
            assert d.hazard(float(x)) == pytest.approx(2.0, rel=1e-12)

    def test_matches_definition(self, rng):
        for _ in range(100):
            d = BGE(*rng.uniform(0.3, 4.0, size=4))
            x = float(rng.uniform(0.05, 5.0))
            assert d.hazard(x) == pytest.approx(d.pdf(x) / d.survival(x), rel=1e-10)

    def test_highprecision_point(self):
        d = BGE(0.5, 2.0, 1.0, 0.5)
        a, b, lam, alpha = (mp.mpf(repr(v)) for v in d.params_tuple())

        def mp_hazard(x):
            x = mp.mpf(repr(x))
            u = 1 - mp.e ** (-lam * x)
            num = alpha * lam * mp.e ** (-lam * x) * u ** (alpha * a - 1) * (1 - u ** alpha) ** (b - 1)
            den = mp.beta(a, b) * mp.betainc(b, a, 0, 1 - u ** alpha, regularized=True)
            return float(num / den)

        assert d.hazard(0.1) == pytest.approx(mp_hazard(0.1), rel=1e-11)

    def test_claimed_shapes(self):
        # constant, monotone both ways, bathtub, and unimodal regimes
        xs = np.linspace(0.05, 6.0, 60)
        increasing = [BGE(2.0, 1.0, 1.0, 2.0).hazard(float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(increasing, increasing[1:]))
        decreasing = [BGE(0.5, 1.0, 1.0, 0.5).hazard(float(x)) for x in xs]
        assert all(b <= a + 1e-12 for a, b in zip(decreasing, decreasing[1:]))
        bath = BGE(0.25, 8.7, 0.4, 2.8)
        h = [bath.hazard(x) for x in (0.02, 0.35, 6.0)]
        assert h[0] > h[1] < h[2]
        unimodal = BGE(0.2, 0.35, 6.0, 7.5)
        h = [unimodal.hazard(x) for x in (0.01, 0.1, 0.8)]
        assert h[0] < h[1] > h[2]

    def test_overflow_signal(self):
        d = BGE(1, 1, 1, 1)
        with pytest.raises(OverflowError):
            d.hazard(1e6)
        # an array raises where its first element would: here survival
        # underflows at x = 800, and x = 0 comes later
        with pytest.raises(OverflowError, match="x=800.0"):
            d.hazard(np.array([1.0, 800.0, 0.0]))
        with pytest.raises(ValueError, match="got -1.0"):
            d.hazard(np.array([1.0, -1.0, 800.0]))


class TestQuantile:
    def test_exponential(self):
        d = BGE.exponential(1.0)
        assert d.quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_ge_inversion(self):
        assert BGE.ge(1.0, 2.0).quantile(0.25) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_against_bisection(self):
        d = BGE(2, 2, 1, 1)
        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if d.cdf(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert d.quantile(0.5) == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_roundtrip(self, rng):
        # x-space identity at 1e-8 plus the provable conditioning floors:
        # p and the internal beta variate y are doubles, and the rounding
        # of either maps into x through dx/dp = 1/pdf(x) respectively
        # dx/dy ~ 1/(lam (1-y)); no inverse can beat those floors
        ulp = 1.2e-16
        for _ in range(30):
            d = BGE(*rng.uniform(0.4, 3.0, size=4))
            for x in np.geomspace(0.01, 10.0, 12):
                x = float(x)
                p = d.cdf(x)
                if not 1e-12 < p < 1.0 - 1e-13:
                    continue
                eps_y = -math.expm1(d.alpha * float(log_u(d, x)))
                tol = (1e-8 + 4.0 * ulp / max(d.pdf(x), 1e-290)
                       + 4.0 * ulp / (d.lam * max(eps_y, 1e-15)))
                assert d.quantile(p) == pytest.approx(x, abs=tol)

    def test_cdf_of_quantile(self, rng):
        for _ in range(100):
            d = BGE(*rng.uniform(0.4, 3.0, size=4))
            p = float(rng.uniform(1e-4, 1.0 - 1e-4))
            assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("params, p, want", [
        # roots in x by mpmath at 40-60 digits; 1 - V is 1.1e-85 at the
        # first point
        ((0.02, 0.02, 1.0, 0.5), 0.99, 194.93996946877962),
        ((57.07, 0.0201, 0.0677, 0.437), 0.3588, 382.25750917296662),
        # betaincinv(a, b, p) returns 2^-56 here, where V is 2.28e-17
        ((1.2348043624430136, 0.02473393138497943, 76.51480397627027, 1.9013428583870975),
         5.697955174254452e-23, 2.3096722490704442e-11),
    ])
    def test_small_b_against_mpmath(self, params, p, want):
        assert BGE(*params).quantile(p) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("params, p, want", [
        # roots in x by mpmath at 50 digits of the survival
        # I_(1-G)(b, a) = 1 - p.  1 - V is about e^-806 and e^-1076 at
        # the first point, where V rounds to 1; at the second 1 - G is
        # subnormal
        ((0.2459, 0.02559, 32.49, 38.19), 1 - 1e-9, 24.928657059450582789),
        ((0.2459, 0.02559, 32.49, 38.19), 1 - 1e-12, 33.237075007348357435),
        ((15.98, 0.01554, 0.0195, 0.0505), 0.99999, 38009.049594265435029),
    ])
    def test_upper_tail_past_the_double_range(self, params, p, want):
        assert BGE(*params).quantile(p) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_domain(self):
        d = BGE(1, 1, 1, 1)
        for p in (0.0, 1.0, -0.2, 1.3, math.nan):
            with pytest.raises(ValueError):
                d.quantile(p)
        with pytest.raises(ValueError, match="got 1.3"):
            d.quantile(np.array([0.5, 1.3, 0.0]))

    def test_underflowed_beta_quantile_is_zero(self):
        # the Beta(a, b) quantile of 1e-9 underflows to 0 at this small-a
        # point; x = 0 follows from log Q = -inf instead of a math error
        d = BGE(0.029272590475917508, 2.057727328657118, 0.6196796010661249,
                0.06049645040918779)
        assert d.quantile(1e-9) == 0.0

    def test_below_the_smallest_double_is_zero(self):
        # the true median is about 1e-2276; +0.0 is its correctly rounded
        # value, since the smallest positive double already has F > 1/2
        d = BGE(0.0115, 1, 1, 0.0115)
        assert d.cdf(5e-324) > 0.5
        assert d.quantile(0.5) == 0.0


class TestBoxSweep:
    """300 points log-uniform over the box [e^-4.5, e^4.5]^4, each at 40
    x with lam*x log-spaced over [e^-25, e^6.5]: both tails of G."""

    @pytest.fixture(scope="class")
    def sweep(self):
        rng = np.random.default_rng(0)
        out = []
        for params in np.exp(rng.uniform(-4.5, 4.5, size=(300, 4))):
            d = BGE(*map(float, params))
            out += [(d, float(x)) for x in np.exp(np.linspace(-25.0, 6.5, 40)) / d.lam]
        return out

    def test_cdf_plus_survival_is_one(self, sweep):
        for d, x in sweep:
            assert abs(d.cdf(x) + d.survival(x) - 1.0) <= 1e-11, (d, x)

    def test_quantile_roundtrip_on_small_side(self, sweep):
        # cdf or survival of quantile(p), whichever is at most 1/2, against
        # p or 1 - p at p = cdf(x), wherever x is a normal double and
        # V = G(x) and 1 - V are both representable
        checked = 0
        for d, x in sweep:
            p = d.cdf(x)
            log_v = d.alpha * log1mexp(d.lam * x)
            if not (0.0 < p < 1.0 and x >= sys.float_info.min
                    and math.exp(log_v) >= 1e-290 and -math.expm1(log_v) >= 1e-290):
                continue
            checked += 1
            q = d.quantile(p)
            got, want = (d.cdf(q), p) if p <= 0.5 else (d.survival(q), 1.0 - p)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), (d, p, q)
        assert checked > 8000


class TestSampling:
    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            BGE(1, 1, 1, 1).sample(0, np.random.default_rng(0))

    def test_deterministic_given_state(self):
        d = BGE(2, 3, 1.5, 0.8)
        s1 = d.sample(1000, np.random.default_rng(11)).values
        s2 = d.sample(1000, np.random.default_rng(11)).values
        assert np.array_equal(s1, s2)

    def test_ks_against_cdf(self):
        d = BGE(2, 1.5, 1.0, 2.0)
        draws = np.sort(d.sample(100_000, np.random.default_rng(12)).values)
        n = draws.size
        probs = d.cdf(draws[:: 50])
        idx = np.arange(0, n, 50)
        stat = np.max(np.maximum(probs - idx / n, (idx + 50) / n - probs))
        assert stat < 1.63 / math.sqrt(n) + 50.0 / n  # 1% critical value, coarse grid slack

    def test_mean_against_series(self):
        from bgedist.series import raw_moment

        d = BGE(2.0, 1.5, 1.0, 2.0)
        draws = d.sample(1_000_000, np.random.default_rng(13)).values
        mu1 = raw_moment(d, 1)
        sd = math.sqrt(raw_moment(d, 2) - mu1 ** 2)
        assert abs(draws.mean() - mu1) < 4.0 * sd / math.sqrt(draws.size)


def _ulps(got, want):
    """|got - want| in units of the spacing at want; 0 when equal."""
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    return abs(got - want) / np.spacing(abs(want))


#: lam*x grid: both ends of the domain, the log 2 switch, and z = 800,
#: where exp(-z) underflows, log u rounds to 0 and the log-density's
#: far-tail rule gives log(1 - u^alpha) = log alpha - z.
_LOG2 = math.log(2.0)
Z_GRID = sorted(set([1e-300, 1e-200, 1e-20, 1e-8, 800.0]
                    + [_LOG2 + k * 1e-15 for k in range(-3, 4)]
                    + list(map(float, np.geomspace(1e-300, 800.0, 400)))))


class TestScalarArrayAgreement:
    """Float arguments take a math-module path, arrays the numpy one.

    numpy's exp, expm1 and log1p round differently from the C library's
    on a few percent of arguments, so log1mexp may differ by 1 ulp.
    logpdf adds that difference, scaled by its coefficient, to the other
    terms; where the terms cancel the sum can move by many of its own
    ulps, so logpdf is held to 2 ulps of its largest term.  Past
    -log u < 1e-300 both paths take the far-tail pieces, log alpha - z
    and -z, whose log alpha is math.log or np.log (1 ulp).

    cdf and survival take the same ``betainc`` and ``betaincc`` calls, at
    log G from log1mexp (1 ulp, so |log G| ulps absolute) and at G or
    1 - G from exp or expm1 (1 ulp).  A value v moves by kappa times the
    change in log G, kappa = |d log v / d log G| = G^a (1 - G)^(b-1) /
    (B(a, b) v), so it is held to 2 + 2 kappa (1 + |log G|) ulps.  The
    hazard adds the pdf's and the survival's bounds.  The quantile loops
    the scalar inverse: equal.
    """

    @pytest.fixture(scope="class")
    def dists(self):
        rng = np.random.default_rng(31)
        box = [BGE(*np.exp(rng.uniform(-4.5, 4.5, size=4))) for _ in range(12)]
        return box + [BGE(2.0, 1.5, 1.0, 2.0), BGE(0.02, 0.02, 1.0, 0.5),
                      BGE(6.981477861205264, 36.965048860238646, 0.24067299161721956,
                          0.09541622946881864)]

    def test_log1mexp(self):
        for z in Z_GRID:
            assert _ulps(log1mexp(z), log1mexp(np.array([z]))[0]) <= 1.0, z
        for z in (0.0, -1.0, math.inf, math.nan):
            want = log1mexp(np.array([z]))[0]
            got = log1mexp(z)
            assert got == want or (math.isnan(got) and math.isnan(want)), z

    def test_log_u_and_far_pieces(self, dists):
        for d in dists:
            for z in Z_GRID:
                x = z / d.lam
                assert _ulps(log_u(d, x), log_u(d, np.array([x]))[0]) <= 1.0, (d, x)
            # at z = 800, log u rounds to 0; log(-log u) = -z and
            # log(1 - u^alpha) = log alpha - z
            x = 800.0 / d.lam
            scalar = _log_density(d.params_tuple(), 0.0, x)
            array = [p[0] for p in _log_density(d.params_tuple(), 0.0, np.array([x]))]
            for _, z, logu, _, log1mua, loglogu in (scalar, array):
                assert logu == 0.0 and loglogu == -z, (d, x)
                assert _ulps(log1mua, math.log(d.alpha) - z) <= 1.0, (d, x)

    @staticmethod
    def _logpdf_tol(d, x):
        """The bound on logpdf at x: 2 ulps of its largest term."""
        _, z, logu, _, log1mua, _ = _log_density(d.params_tuple(), 0.0, x)
        terms = (math.log(d.alpha * d.lam) - d.log_beta_ab, z,
                 (d.alpha * d.a - 1.0) * logu, (d.b - 1.0) * log1mua)
        return 2.0 * np.spacing(max(abs(t) for t in terms))

    def test_logpdf_and_pdf(self, dists):
        for d in dists:
            for z in Z_GRID:
                x = z / d.lam
                tol = self._logpdf_tol(d, x)
                got, want = d.logpdf(x), d.logpdf(np.array([x]))[0]
                assert abs(got - want) <= tol, (d, x)
                want_pdf = np.exp(want)
                if 0.0 < want_pdf < math.inf:
                    assert abs(d.pdf(x) - want_pdf) <= (tol + 4e-16) * want_pdf, (d, x)
                else:
                    assert d.pdf(x) == want_pdf, (d, x)
            # the array pdf is exp of the array logpdf held above
            xs = np.array(Z_GRID) / d.lam
            assert np.array_equal(d.pdf(xs), np.exp(d.logpdf(xs))), d

    @staticmethod
    def _tail_ulps(d, x, value):
        """The bound on a cdf or survival value v at x, in ulps of v."""
        log_g = d.alpha * log1mexp(d.lam * x)
        log_kappa = (d.a * log_g + (d.b - 1.0) * log1mexp(-log_g) - d.log_beta_ab
                     - math.log(value))
        return 2.0 + 2.0 * math.exp(min(log_kappa, 700.0)) * (1.0 + abs(log_g))

    def test_cdf_and_survival(self, dists):
        for d in dists:
            xs = np.array(Z_GRID) / d.lam
            for name in ("cdf", "survival"):
                fn = getattr(d, name)
                for x, got in zip(xs.tolist(), fn(xs)):
                    want = fn(x)
                    if want == 0.0:
                        assert got == 0.0, (d, name, x)
                    else:
                        assert _ulps(got, want) <= self._tail_ulps(d, x, want), (d, name, x)

    def test_hazard(self, dists):
        for d in dists:
            xs = np.array(Z_GRID) / d.lam
            xs = xs[d.survival(xs) > 0.0]       # the rest raise, as tested elsewhere
            for x, got in zip(xs.tolist(), d.hazard(xs)):
                # relative: the pdf's (as above), the survival's and the division's
                rel = (self._logpdf_tol(d, x) + 4e-16
                       + (self._tail_ulps(d, x, d.survival(x)) + 1.0) * np.finfo(float).eps)
                want = d.hazard(x)
                assert abs(got - want) <= rel * want, (d, x)

    def test_quantile(self, dists):
        for d in dists:
            ps = np.array([p for p in d.cdf(np.array(Z_GRID) / d.lam) if 0.0 < p < 1.0])
            assert d.quantile(ps).tolist() == [d.quantile(p) for p in ps.tolist()], d

    def test_shapes(self):
        d = BGE(0.02, 0.02, 1.0, 0.5)
        got = d.pdf(np.array([1.0, 2.0]))     # not numpy's "truth value ... is ambiguous"
        assert got.shape == (2,) and np.all(got > 0.0)
        x = np.array([[0.5, 1.0], [2.0, 4.0]])
        for name in ("logpdf", "pdf", "cdf", "survival", "hazard"):
            fn = getattr(d, name)
            assert fn(x).shape == (2, 2), name
            assert isinstance(fn(np.float32(1.0)), float), name
        assert d.quantile(np.array([[0.1], [0.9]])).shape == (2, 1)
        assert isinstance(d.quantile(np.array(0.5)), float)


#: Log-uniform over the documented box [e^-4.5, e^4.5]^4.
_param = st.floats(-4.5, 4.5).map(math.exp)
_params = st.tuples(_param, _param, _param, _param)


class TestProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_params, st.floats(-25.0, 6.5), st.floats(0.1, 12.0))
    def test_cdf_in_unit_interval_and_nondecreasing(self, params, log_z0, span):
        d = BGE(*params)
        xs = np.exp(np.linspace(log_z0, log_z0 + span, 40)) / d.lam
        cdf = [d.cdf(float(x)) for x in xs]
        assert all(0.0 <= c <= 1.0 for c in cdf)
        for lo, hi in zip(cdf, cdf[1:]):
            assert lo <= hi + 2.0 * np.spacing(hi), (d, lo, hi)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_params, st.floats(-25.0, 6.5))
    def test_hazard_is_pdf_over_survival(self, params, log_z):
        d = BGE(*params)
        x = math.exp(log_z) / d.lam
        s, f = d.survival(x), d.pdf(x)
        if s > 1e-300 and math.isfinite(f):
            assert d.hazard(x) == pytest.approx(f / s, rel=1e-12)
