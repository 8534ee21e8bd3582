"""Kernel and Bessel-function tests.

The modified Bessel oracle is the defining integral
K_nu(r) = int_0^inf exp(-r cosh t) cosh(nu t) dt, evaluated with mpmath
quadrature, plus a handful of frozen reference values.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqcardinal as mq
from mqcardinal.errors import (
    DivergenceError,
    DomainError,
    KernelOverflowError,
    SingularityError,
    UnsupportedKernelError,
)

# Frozen values of K_nu(r) from the defining integral (50-digit mpmath
# quadrature, rounded to double precision).
K_REFERENCE = {
    (0.0, 1.0): 0.42102443824070834,
    (1.0, 1.0): 0.6019072301972346,
    (0.5, 2.0): 0.11993777196806145,
    (2.5, 0.7): 8.486341592801384,
    (1.5, 3.0): 0.04803464684235279,
}


def bessel_integral_oracle(nu, r, digits=30):
    mpmath = pytest.importorskip("mpmath")
    # Truncate where exp(-r cosh t) has decayed far below double precision.
    t_max = math.acosh(1.0 + (140.0 + 10.0 * abs(nu)) / r)
    with mpmath.workdps(digits):
        # The factor exp(-r) is taken out, so the quadrature's absolute
        # tolerance is relative to an order-one integrand at large r too.
        val = mpmath.quad(
            lambda t: mpmath.exp(-r * (mpmath.cosh(t) - 1)) * mpmath.cosh(nu * t),
            [0, t_max],
        )
        return float(val * mpmath.exp(-r))


class TestBesselK:
    def test_frozen_reference_values(self):
        for (nu, r), want in K_REFERENCE.items():
            assert mq.bessel_k(nu, r) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("nu,r", [(0.0, 0.5), (1.0, 2.0), (0.5, 1.0), (2.5, 4.0), (3.0, 0.3)])
    def test_against_defining_integral(self, nu, r):
        assert mq.bessel_k(nu, r) == pytest.approx(bessel_integral_oracle(nu, r), rel=1e-12)

    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 4])
    def test_integer_orders_against_defining_integral(self, nu):
        # kv is off by 4e-14 near r = 680 and returns 0 at r = 700.
        r = np.array([1e-3, 0.05, 0.7, 3.0, 20.0, 120.0, 680.0, 700.0])
        got = mq.bessel_k(nu, r)
        want = [bessel_integral_oracle(nu, float(x), digits=40) for x in r]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(mq.bessel_k(-nu, r), got, rtol=0, atol=0)

    def test_huge_integer_order_returns(self):
        # Far past the recurrence's range the order goes to kv instead of a
        # loop of one step per order.
        mq.bessel_k(1e20, 1.0)

    def test_high_half_integer_order_goes_to_kv(self):
        # Past the recurrence's range a half-integer order is kve's value
        # times e^-r, not an accumulation of one rounding step per order.
        from scipy import special

        r = np.linspace(50.0, 700.0, 131)
        np.testing.assert_array_equal(mq.bessel_k(200.5, r), special.kve(200.5, r) * np.exp(-r))
        # An order this large would take 1e12 recurrence steps.
        np.testing.assert_array_equal(
            mq.bessel_k(1e12 + 0.5, r), special.kve(1e12 + 0.5, r) * np.exp(-r)
        )

    @pytest.mark.parametrize(
        "nu, r", [(0.25, 1e-2), (0.25, 0.5), (0.25, 300.0), (0.25, 700.0), (200.5, 50.0), (200.5, 700.0)]
    )
    def test_non_integer_orders_against_mpmath(self, nu, r):
        # kv(0.25, 700) is 0; K_0.25(700) is about 4.67e-306, a normal double.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.besselk(nu, r))
        assert mq.bessel_k(nu, r) == pytest.approx(want, rel=1e-13)

    def test_half_integer_closed_form(self):
        r = np.linspace(0.2, 20.0, 40)
        want = np.sqrt(np.pi / (2 * r)) * np.exp(-r)
        np.testing.assert_allclose(mq.bessel_k(0.5, r), want, rtol=1e-14)
        np.testing.assert_allclose(mq.bessel_k(-0.5, r), want, rtol=1e-14)

    @given(
        nu=st.floats(-5, 5),
        r=st.floats(0.05, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_positivity(self, nu, r):
        k = mq.bessel_k(nu, r)
        assert k == pytest.approx(mq.bessel_k(-nu, r), rel=1e-12)
        assert k > 0

    @pytest.mark.parametrize("nu", [0.3, 2.0, 2.5])
    @pytest.mark.parametrize("r", [1e307, np.finfo(float).max])
    def test_no_warning_past_the_series_overflow(self, nu, r):
        # 8 j r overflows in the asymptotic series past r of about 5.6e306
        # and numpy warned; the step there is the 0 it rounds to.  Warnings
        # are errors in these tests.
        from mqcardinal.kernels import _bessel_ke

        assert mq.bessel_k(nu, r) == 0.0
        ke = _bessel_ke(nu, np.array([r]))[0]
        assert ke == pytest.approx(math.sqrt(math.pi / 2.0 / r), rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mq.bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            mq.bessel_k(1.0, -2.0)
        with pytest.raises(DomainError):
            mq.bessel_k(float("nan"), 1.0)


class TestKernelConstruction:
    def test_families(self):
        assert mq.poisson(2.0).alpha == -1.0
        assert mq.multiquadric(-1.5, 1.0).bessel_order == -1.0
        assert math.isnan(mq.gaussian(1.0).c)

    def test_validation(self):
        with pytest.raises(DomainError):
            mq.poisson(-1.0)
        with pytest.raises(DomainError):
            mq.gaussian(0.0)
        with pytest.raises(DomainError):
            mq.Kernel("poisson", alpha=-2.0, c=1.0)
        with pytest.raises(DomainError):
            mq.Kernel("nosuch")

    def test_spatial_values(self):
        k = mq.multiquadric(-1.0, 2.0)
        assert mq.kernel_spatial(k, 0.0) == pytest.approx(0.25)
        g = mq.gaussian(3.0)
        assert mq.kernel_spatial(g, 1.0) == pytest.approx(math.exp(-3.0))
        xs = np.array([-1.0, 0.0, 1.0])
        out = mq.kernel_spatial(g, xs)
        assert out[0] == out[2]

    @pytest.mark.parametrize(
        "k",
        [mq.poisson(0.7), mq.multiquadric(-1.5, 2.0), mq.multiquadric(-0.75, 0.3),
         mq.multiquadric(0.5, 1.0), mq.gaussian(3.0), mq.gaussian(1e-3)],
    )
    def test_spatial_bit_identical_to_plain_expressions(self, k):
        # The in-place evaluation keeps the plain expressions' operation order.
        def plain(x):
            if k.family == "gaussian":
                return np.exp(-k.lam * x * x)
            return (x * x + k.c * k.c) ** k.alpha

        x = np.random.default_rng(3).normal(scale=4.0, size=(37, 29))
        x[0, :3] = [0.0, -0.0, 1e-300]
        before = x.copy()
        np.testing.assert_array_equal(mq.kernel_spatial(k, x), plain(x))
        np.testing.assert_array_equal(x, before)  # the caller's array is untouched
        assert mq.kernel_spatial(k, 0.3) == float(plain(np.float64(0.3)))
        assert isinstance(mq.kernel_spatial(k, 2), float)


class TestFourierTransforms:
    def test_poisson_closed_form(self):
        k = mq.poisson(1.5)
        xs = np.linspace(-10, 10, 101)
        want = (math.pi / 1.5) * np.exp(-1.5 * np.abs(xs))
        np.testing.assert_allclose(mq.kernel_fourier(k, xs), want, rtol=1e-14)

    def test_poisson_vs_generic_bessel_branch(self):
        # alpha = -1 through the generic K_{1/2} route must match the
        # closed form; this is the dual-route consistency check.
        xs = np.linspace(0.01, 30.0, 400)
        for c in (0.5, 1.0, 2.0):
            closed = mq.kernel_fourier(mq.poisson(c), xs)
            generic = mq.kernel_fourier(mq.multiquadric(-1.0, c), xs)
            np.testing.assert_allclose(generic, closed, rtol=1e-10)

    def test_at_zero_limits(self):
        assert mq.kernel_fourier_at_zero(mq.poisson(1.0)) == pytest.approx(math.pi)
        assert mq.kernel_fourier_at_zero(mq.poisson(2.0)) == pytest.approx(math.pi / 2)
        assert mq.kernel_fourier_at_zero(mq.multiquadric(-1.5, 1.0)) == pytest.approx(2.0)
        assert mq.kernel_fourier_at_zero(mq.gaussian(4.0)) == pytest.approx(math.sqrt(math.pi / 4.0))

    def test_at_zero_continuity(self):
        k = mq.multiquadric(-1.5, 1.0)
        assert mq.kernel_fourier(k, 1e-8) == pytest.approx(
            mq.kernel_fourier_at_zero(k), rel=2e-4
        )

    # A fractional, an integer and a half-integer Bessel order.
    @pytest.mark.parametrize("alpha", [-0.75, -1.5, -2.0])
    @pytest.mark.parametrize("xi", [5e-324, 1e-320, 1e-310, 1e-305, 1e-301])
    def test_tiny_argument_is_the_zero_limit(self, alpha, xi):
        # kve(0.25, r) is inf below r of about 1e-305, and k1e(r) below the
        # smallest normal double: the transform raised KernelOverflowError.
        # Its value there is the one at xi = 0 to double precision.
        k = mq.multiquadric(alpha, 1.0)
        assert mq.kernel_fourier(k, xi) == pytest.approx(mq.kernel_fourier_at_zero(k), rel=1e-15)

    @pytest.mark.parametrize("alpha", [-0.505, -0.5001])
    @pytest.mark.parametrize("xi", [5e-324, 1e-320, 1e-301])
    def test_tiny_argument_near_order_zero(self, alpha, xi):
        # For |alpha + 1/2| below about 0.03 the second term of K's
        # small-argument form is above rounding even at a subnormal c |xi|.
        mpmath = pytest.importorskip("mpmath")
        k = mq.multiquadric(alpha, 2.0)
        with mpmath.workdps(40):
            a, x = mpmath.mpf(alpha), 2 * mpmath.mpf(xi)
            want = float(
                mpmath.sqrt(2 * mpmath.pi) * 2 ** (1 + a) / mpmath.gamma(-a)
                * (4 / x) ** (a + 0.5) * mpmath.besselk(a + 0.5, x)
            )
        assert mq.kernel_fourier(k, xi) == pytest.approx(want, rel=1e-13)

    # Half-integer, fractional and integer orders |nu| > 1, each where
    # K_|nu|(c |xi|) overflows although the transform is finite.
    @pytest.mark.parametrize(
        "alpha, xi", [(-2.0, 1.01e-300), (-2.0, 1e-210), (-3.3, 1e-299), (-2.5, 1e-160),
                      (-10.0, 1e-33), (-30.0, 1e-11)]
    )
    def test_tiny_argument_where_bessel_factor_overflows(self, alpha, xi):
        mpmath = pytest.importorskip("mpmath")
        k = mq.multiquadric(alpha, 1.0)
        with mpmath.workdps(40):
            a, x = mpmath.mpf(alpha), mpmath.mpf(xi)
            want = float(
                mpmath.sqrt(2 * mpmath.pi) * 2 ** (1 + a) / mpmath.gamma(-a)
                * (1 / x) ** (a + 0.5) * mpmath.besselk(a + 0.5, x)
            )
        assert mq.kernel_fourier(k, xi) == pytest.approx(want, rel=0, abs=1e-12)
        assert mq.kernel_fourier(k, np.array([xi, 0.0]))[0] == mq.kernel_fourier(k, xi)

    def test_tiny_argument_past_the_leading_term_takes_the_series(self):
        # K_44.5 overflows up to r of about 3.1e-6, where its second term is
        # above rounding: the leading term alone raised KernelOverflowError.
        # The value is mpmath's.
        got = mq.kernel_fourier(mq.multiquadric(-45.0, 1.0), 1e-6)
        assert got == pytest.approx(0.26644945331088997, rel=1e-13)

    # Orders whose K overflows up to r of 4.4e-7, 9.0e-4, 0.064, 0.25 and
    # 2.1, each near that edge and most a decade below it.
    @pytest.mark.parametrize(
        "alpha, xi", [(-40.0, 3.8e-7), (-40.0, 3.8e-8), (-65.0, 6e-4), (-65.0, 6e-5),
                      (-100.0, 0.062), (-100.0, 0.0062), (-120.3, 0.24), (-171.0, 1.98),
                      (-171.0, 0.198)]
    )
    def test_series_where_bessel_factor_overflows(self, alpha, xi):
        mpmath = pytest.importorskip("mpmath")
        k = mq.multiquadric(alpha, 1.0)
        with np.errstate(over="ignore"):
            assert np.isinf(mq.bessel_k(alpha + 0.5, xi))
        with mpmath.workdps(40):
            a, x = mpmath.mpf(alpha), mpmath.mpf(xi)
            want = mpmath.log(
                mpmath.sqrt(2 * mpmath.pi) * 2 ** (1 + a) / mpmath.gamma(-a)
                * (1 / x) ** (a + 0.5) * mpmath.besselk(a + 0.5, x)
            )
        # The log is some hundreds, so its rounding is about 1e-13.
        assert mq.log_kernel_fourier(k, xi) == pytest.approx(float(want), rel=1e-15, abs=1e-13)

    def test_tiny_argument_singular_order_keeps_its_error(self):
        with pytest.raises(KernelOverflowError):
            mq.kernel_fourier(mq.multiquadric(-0.25, 1.0), 1e-320)

    @pytest.mark.parametrize("alpha, c", [(-200.0, 1.0), (-3.0, 1e-120)])
    def test_overflowing_constants_are_typed(self, alpha, c):
        k = mq.multiquadric(alpha, c)
        with pytest.raises(KernelOverflowError, match="alpha=.*c="):
            mq.kernel_fourier_at_zero(k)
        if alpha == -200.0:  # Gamma(200) in the transform's prefactor
            with pytest.raises(KernelOverflowError):
                mq.kernel_fourier(k, 1.0)

    @pytest.mark.parametrize("alpha", [-157.6, -160.0, -171.5])
    def test_underflowing_constant_has_a_log(self, alpha):
        # sqrt(2 pi) 2^(1 + alpha) / Gamma(-alpha) underflows to 0 here,
        # and its math.log was a bare ValueError.  The terms of the log
        # cancel from about 650 to 2, so the error is absolute.
        mpmath = pytest.importorskip("mpmath")
        k = mq.multiquadric(alpha, 1.0)
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            want = mpmath.log(
                mpmath.sqrt(2 * mpmath.pi) * 2 ** (1 + a) / mpmath.gamma(-a)
                * (1 / mpmath.pi) ** (a + 0.5) * mpmath.besselk(a + 0.5, mpmath.pi)
            )
        assert mq.log_kernel_fourier(k, math.pi) == pytest.approx(float(want), abs=1e-12)
        assert math.isfinite(mq.log_kernel_fourier(k, 0.0))

    @pytest.mark.parametrize("c", [1e-120, 1e-200])
    def test_overflowing_transform_is_typed(self, c):
        # At alpha = -3 the transform grows like c^-5: its log at c = 1e-120
        # is 1381.7, and at c = 1e-200 K_2.5(c) itself overflows.  Both
        # were inf with a RuntimeWarning.
        k = mq.multiquadric(-3.0, c)
        assert mq.log_kernel_fourier(k, 1.0) > 709.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelOverflowError, match="larger c"):
                mq.kernel_fourier(k, 1.0)

    @pytest.mark.parametrize(
        "alpha, c", [(-0.6, 0.3), (-1.5, 1.0), (-2.5, 7.0), (-150.0, 2.0), (-3.0, 1e-40)]
    )
    def test_at_zero_is_the_gamma_limit(self, alpha, c):
        # sqrt(pi) Gamma(-alpha - 1/2) / Gamma(-alpha) c^(2 alpha + 1)
        k = mq.multiquadric(alpha, c)
        want = (0.5 * math.log(math.pi) + math.lgamma(-alpha - 0.5) - math.lgamma(-alpha)
                + (2.0 * alpha + 1.0) * math.log(c))
        assert mq.log_kernel_fourier(k, 0.0) == pytest.approx(want, rel=1e-14, abs=1e-13)
        assert mq.kernel_fourier_at_zero(k) == mq.kernel_fourier(k, 0.0)
        assert mq.kernel_fourier_at_zero(k) == pytest.approx(math.exp(want), rel=1e-13)

    @pytest.mark.parametrize(
        "k, xi",
        [
            (mq.poisson(300.0), 10.0),
            (mq.multiquadric(-1.5, 300.0), 10.0),
            (mq.multiquadric(-2.5, 2000.0), 3.0),
            (mq.multiquadric(-3.3, 5.0), 200.0),
            (mq.gaussian(1e-3), 10.0),
            # c xi past about 1.07e9, where scipy's kve returns nan.
            (mq.multiquadric(-0.75, 1e10), 3.0),
            (mq.multiquadric(-3.3, 1e8), 20.0),
        ],
    )
    def test_log_transform_where_transform_underflows(self, k, xi):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            if k.family == "gaussian":
                lam = mpmath.mpf(k.lam)
                want = mpmath.log(mpmath.sqrt(mpmath.pi / lam)) - mpmath.mpf(xi) ** 2 / (4 * lam)
            else:
                a, c = mpmath.mpf(k.alpha), mpmath.mpf(k.c)
                want = mpmath.log(
                    mpmath.sqrt(2 * mpmath.pi) * 2 ** (1 + a) / mpmath.gamma(-a)
                    * (c / xi) ** (a + 0.5) * mpmath.besselk(a + 0.5, c * xi)
                )
        assert mq.kernel_fourier(k, xi) == 0.0
        assert mq.log_kernel_fourier(k, xi) == pytest.approx(float(want), rel=1e-14)

    def test_transform_nonzero_at_large_argument(self):
        # c|xi| = 700: with kv the alpha = -0.75 transform was exactly 0.
        mpmath = pytest.importorskip("mpmath")
        a, c = -0.75, 700.0
        with mpmath.workdps(40):
            want = float(
                mpmath.sqrt(2 * mpmath.pi) * mpmath.mpf(2) ** (1 + a) / mpmath.gamma(-a)
                * mpmath.mpf(c) ** (a + 0.5) * mpmath.besselk(a + 0.5, c)
            )
        got = mq.kernel_fourier(mq.multiquadric(a, c), 1.0)
        assert got > 0.0
        assert got == pytest.approx(want, rel=1e-13)

    def test_divergent_at_zero(self):
        with pytest.raises(DivergenceError):
            mq.kernel_fourier_at_zero(mq.multiquadric(-0.4, 1.0))

    def test_singularity_and_unsupported(self):
        with pytest.raises(SingularityError):
            mq.kernel_fourier(mq.multiquadric(-0.4, 1.0), 0.0)
        with pytest.raises(UnsupportedKernelError):
            mq.kernel_fourier(mq.multiquadric(0.5, 1.0), 1.0)

    def test_gaussian_plancherel(self):
        # int |f|^2 dx = (1/2pi) int |fhat|^2 dxi for the gaussian pair.
        lam = 0.8
        k = mq.gaussian(lam)
        xs = np.linspace(-12, 12, 20001)
        lhs = np.trapezoid(mq.kernel_spatial(k, xs) ** 2, xs)
        xi = np.linspace(-30, 30, 20001)
        rhs = np.trapezoid(mq.kernel_fourier(k, xi) ** 2, xi) / (2 * math.pi)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_fourier_transform_numerically(self):
        # Direct quadrature of int phi(x) e^{-i x xi} dx for the poisson
        # kernel, as an independent convention check.
        c, xi = 1.0, 2.0
        xs = np.linspace(-200, 200, 400001)
        vals = (xs * xs + c * c) ** -1.0 * np.cos(xi * xs)
        assert np.trapezoid(vals, xs) == pytest.approx(
            mq.kernel_fourier(mq.poisson(c), xi), rel=2e-4
        )

    @given(c=st.floats(0.3, 3.0), xi=st.floats(0.05, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_transform_positive_and_even(self, c, xi):
        k = mq.multiquadric(-0.8, c)
        v = mq.kernel_fourier(k, xi)
        assert v > 0
        assert v == pytest.approx(mq.kernel_fourier(k, -xi), rel=1e-13)
