"""Kernel and Bessel-function tests.

The modified Bessel oracle is the defining integral
K_nu(r) = int_0^inf exp(-r cosh t) cosh(nu t) dt, evaluated with mpmath
quadrature, plus a handful of frozen reference values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqcardinal as mq
from mqcardinal.errors import DivergenceError, DomainError, SingularityError, UnsupportedKernelError

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
        # Past the recurrence's range a half-integer order is kv's value,
        # not an accumulation of one rounding step per order.
        from scipy import special

        r = np.linspace(50.0, 700.0, 131)
        np.testing.assert_array_equal(mq.bessel_k(200.5, r), special.kv(200.5, r))
        # An order this large would take 1e12 recurrence steps.
        np.testing.assert_array_equal(mq.bessel_k(1e12 + 0.5, r), special.kv(1e12 + 0.5, r))

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
    def test_symmetry_and_upper_bound(self, nu, r):
        k = mq.bessel_k(nu, r)
        assert k == pytest.approx(mq.bessel_k(-nu, r), rel=1e-12)
        assert k <= mq.bessel_k_upper_bound(nu, r) * (1 + 1e-12)
        assert k > 0

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
