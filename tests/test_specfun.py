"""Special-function kernel vs independent high-precision oracles.

The incomplete beta ratio and its inverse are scipy's, reached through
``BGE(a, b, 1, 1)``: its cdf at x = -log(1 - y) is I_y(a, b).
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from bgedist import BGE, specfun as sf

mp.mp.dps = 40


class TestLogBeta:
    def test_uniform(self):
        assert sf.log_beta(1.0, 1.0) == 0.0

    def test_small_integers(self):
        # B(2,3) = 1!2!/4! = 1/12
        assert sf.log_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), abs=1e-14)

    def test_extreme_shapes_vs_mpmath(self):
        # the shape pair from the glass-fibre benchmark
        want = float(mp.log(mp.beta(mp.mpf("0.4125"), mp.mpf("93.4655"))))
        assert sf.log_beta(0.4125, 93.4655) == pytest.approx(want, rel=1e-13)

    def test_wide_range_vs_mpmath(self):
        for a in (1e-3, 0.37, 5.5, 420.0, 1e6):
            for b in (1e-3, 2.25, 9000.0):
                want = float(mp.log(mp.beta(a, b)))
                assert sf.log_beta(a, b) == pytest.approx(want, rel=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = rng.uniform(0.01, 50.0, size=2)
            assert sf.log_beta(a, b) == sf.log_beta(b, a)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            sf.log_beta(1.0, -2.0)

    def test_huge_argument_vs_mpmath(self):
        # b = 1e160: 1/b^2 underflows to 0 in the Stirling correction,
        # silently; mpmath needs 200 digits for the difference
        a = (2.0, 0.5, 37.5)
        with mp.workdps(200):
            want = [float(mp.log(mp.beta(x, mp.mpf("1e160")))) for x in a]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [sf.log_beta(x, 1e160) for x in a] == pytest.approx(want, rel=1e-13)


class TestStirlingDiff:
    def test_array_form_vs_scalar(self):
        # the series tail's gamma ratio over arrays, for y >= 11.5 as its
        # exit needs; below y = 15 the scalar lgamma_diff subtracts two
        # lgamma values, up to 1.1e-13 off at delta = e^-4.5, so mpmath
        # is the reference there
        ys = np.geomspace(11.5, 1e300, 200)
        for delta in np.exp(np.linspace(-4.5, 4.5, 19)):
            delta = float(delta)
            with np.errstate(over="ignore"):
                diffs = sf._stirling_diff(ys, delta)
            for y, got in zip(ys, diffs):
                y = float(y)
                want = (sf.lgamma_diff(y, delta) if y >= 15.0 else
                        float(mp.loggamma(mp.mpf(y) + delta) - mp.loggamma(y)))
                assert got == pytest.approx(want, rel=1e-14), (y, delta)


def ratio(y, a, b):
    """I_y(a, b), the cdf of BGE(a, b, 1, 1) at x = -log(1 - y)."""
    return BGE(a, b, 1.0, 1.0).cdf(-math.log1p(-y))


def inverse(p, a, b):
    """The y with I_y(a, b) = p, from the quantile x of BGE(a, b, 1, 1)."""
    return -math.expm1(-BGE(a, b, 1.0, 1.0).quantile(p))


class TestIncBetaRatio:
    def test_uniform_is_identity(self):
        assert ratio(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_b_one_closed_form(self):
        for y in (0.1, 0.37, 0.99):
            for a in (0.5, 2.0, 7.3):
                assert ratio(y, a, 1.0) == pytest.approx(y ** a, abs=1e-13)

    def test_against_quadrature(self):
        # independent oracle: adaptive (tanh-sinh) quadrature of the
        # beta integrand at 40 digits
        y, a, b = 0.3, 2.5, 4.5
        dens = lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
        want = float(mp.quad(dens, [0, y]) / mp.quad(dens, [0, 1]))
        assert ratio(y, a, b) == pytest.approx(want, abs=1e-12)

    def test_endpoints(self):
        d = BGE(2.0, 3.0, 1.0, 1.0)
        assert d.cdf(0.0) == 0.0 and d.survival(0.0) == 1.0
        assert d.cdf(math.inf) == 1.0 and d.survival(math.inf) == 0.0

    def test_complement_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            y = rng.uniform(0.0, 1.0)
            a, b = rng.uniform(0.05, 40.0, size=2)
            s = ratio(y, a, b) + ratio(1.0 - y, b, a)
            assert s == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_y(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.uniform(0.1, 20.0, size=2)
            ys = np.sort(rng.uniform(0, 1, size=8))
            vals = [ratio(y, a, b) for y in ys]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_mpmath_spotchecks(self):
        for y, a, b in [(0.9, 0.4125, 93.4655), (1e-6, 3.0, 2.0), (0.999999, 2.0, 93.0)]:
            want = float(mp.betainc(a, b, 0, y, regularized=True))
            assert ratio(y, a, b) == pytest.approx(want, abs=1e-12)

    def test_extreme_shapes(self):
        # symmetric-shape oracle: I_{1/2}(a, a) = 1/2 exactly
        assert ratio(0.5, 1e4, 1e4) == pytest.approx(0.5, abs=1e-11)
        assert ratio(0.5, 1e6, 1e6) == pytest.approx(0.5, abs=1e-9)
        y = inverse(0.3, 1e6, 3.0)
        assert ratio(y, 1e6, 3.0) == pytest.approx(0.3, abs=1e-10)


class TestIncBetaInverse:
    def test_trivial(self):
        assert inverse(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_against_bisection_oracle(self):
        p, a, b = 0.9, 2.0, 5.0
        lo, hi = 0.0, 1.0
        for _ in range(200):  # plain bisection on the forward ratio
            mid = 0.5 * (lo + hi)
            if ratio(mid, a, b) < p:
                lo = mid
            else:
                hi = mid
        assert inverse(p, a, b) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_roundtrip_gridded(self):
        rng = np.random.default_rng(4)
        for _ in range(250):
            a, b = rng.uniform(0.05, 95.0, size=2)
            p = rng.uniform(1e-6, 1.0 - 1e-6)
            y = inverse(p, a, b)
            assert ratio(y, a, b) == pytest.approx(p, abs=1e-10)

    def test_inverse_of_forward_in_y(self):
        # identity in y-space requires the forward value to be resolvable:
        # where the density is ~0 or I_y rounds to 1.0, the y information
        # is destroyed by the forward map itself
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(400):
            a, b = rng.uniform(0.2, 30.0, size=2)
            y = rng.uniform(0.02, 0.98)
            p = ratio(y, a, b)
            dens = math.exp((a - 1) * math.log(y) + (b - 1) * math.log1p(-y)
                            - sf.log_beta(a, b))
            if dens < 1e-6 or not (1e-300 < p < 1.0 - 1e-13):
                continue
            checked += 1
            back = inverse(p, a, b)
            assert back == pytest.approx(y, abs=1e-9)
        assert checked > 200


class TestPolygamma:
    def test_known_constants(self):
        euler = 0.5772156649015329
        assert sf.digamma(1.0) == pytest.approx(-euler, abs=1e-12)
        assert sf.trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("order", [0, 1])
    def test_vs_mpmath_wide_range(self, order):
        for x in (1e-3, 0.2, 1.0, 5.7, 10.0, 123.4, 1e6):
            want = float(mp.polygamma(order, mp.mpf(x))) if order else float(mp.digamma(mp.mpf(x)))
            assert sf.polygamma(x, order) == pytest.approx(want, rel=1e-11)

    def test_recurrence(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            x = rng.uniform(1e-3, 100.0)
            lhs = sf.digamma(x + 1.0)
            rhs = sf.digamma(x) + 1.0 / x
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.polygamma(0.0, 0)
        with pytest.raises(ValueError):
            sf.polygamma(1.0, 4)


class TestPsiTrigamma:
    def test_vs_mpmath_over_the_box(self):
        # a, b and a + b over the default box |log theta| <= 4.5, as a
        # 2-D array like the fit kernel's (3, rows)
        x = np.exp(np.linspace(-4.5, math.log(2e4), 400)).reshape(2, 200)
        for order, values in enumerate(sf._psi_trigamma(x)):
            assert values.shape == x.shape
            for xi, v in zip(x.ravel(), values.ravel()):
                want = mp.polygamma(order, mp.mpf(float(xi)))
                assert abs(v - want) <= 1e-14 * max(abs(want), 1), (order, xi)

    def test_every_shape_gives_the_bits_of_the_stacked_call(self):
        # the fit kernel's (3, rows) call is the reference: a 0-d, a 1-d and
        # a (3, rows) argument return each element's bits
        x = np.exp(np.linspace(-4.5, math.log(2e4), 3 * 17)).reshape(3, 17)
        psi, tri = sf._psi_trigamma(x)
        for i, j in np.ndindex(x.shape):
            p0, t0 = sf._psi_trigamma(x[i, j])
            assert p0.shape == t0.shape == ()
            assert (p0.tobytes(), t0.tobytes()) == (psi[i, j].tobytes(), tri[i, j].tobytes())
        for i in range(3):
            p1, t1 = sf._psi_trigamma(x[i])
            assert (p1.tobytes(), t1.tobytes()) == (psi[i].tobytes(), tri[i].tobytes())
        for j in range(17):
            p1, t1 = sf._psi_trigamma(x[:, j])
            assert (p1.tobytes(), t1.tobytes()) == (psi[:, j].tobytes(), tri[:, j].tobytes())
        p2, t2 = sf._psi_trigamma(x.copy())
        assert (p2.tobytes(), t2.tobytes()) == (psi.tobytes(), tri.tobytes())


class TestChi2Sf:
    def test_chi2_sf_known(self):
        # X ~ chi2_2 has sf(x) = exp(-x/2)
        assert sf.chi2_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-13)
        with pytest.raises(ValueError):
            sf.chi2_sf(1.0, 0)

    @pytest.mark.parametrize("dof", range(1, 7))
    def test_vs_mpmath_no_worse_than_scipy(self, dof):
        from scipy.special import chdtrc

        worst = worst_scipy = 0.0
        for x in np.exp(np.linspace(math.log(1e-10), math.log(1400.0), 300)):
            want = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(float(x)) / 2, mp.inf, regularized=True)
            worst = max(worst, float(abs(sf.chi2_sf(float(x), dof) - want) / want))
            worst_scipy = max(worst_scipy, float(abs(chdtrc(dof, x) - want) / want))
        assert worst <= min(worst_scipy, 1e-15), (worst, worst_scipy)

    def test_endpoints(self):
        assert sf.chi2_sf(0.0, 3) == 1.0
        assert sf.chi2_sf(math.inf, 1) == 0.0
        assert sf.chi2_sf(2000.0, 2) == 0.0

    def test_non_integer_dof_raises(self):
        with pytest.raises(ValueError):
            sf.chi2_sf(1.0, 1.5)
