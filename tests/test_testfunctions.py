"""Reference-target tests: supports, norms, and seminorms versus quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import BSpline

import mqcardinal as mq
from mqcardinal import testfunctions
from mqcardinal.errors import DomainError
from mqcardinal.testfunctions import zero


class TestFejer:
    def test_peak_and_band(self):
        g = mq.fejer_bandlimited(math.pi / 2)
        assert g.band == math.pi / 2
        assert g(0.0) == pytest.approx(0.25)

    def test_l2_norm_vs_quadrature(self):
        sigma = math.pi / 2
        g = mq.fejer_bandlimited(sigma)
        # |x|^-4 integrand decay: a wide window captures the norm well.
        xs = np.linspace(-4000.0, 4000.0, 2_000_001)
        num = math.sqrt(simpson(g(xs) ** 2, x=xs))
        assert num == pytest.approx(g.l2_norm, rel=1e-3)

    def test_spectrum_is_triangular(self):
        # fhat(xi) = 1 - |xi|/sigma recovered by direct quadrature.
        sigma = math.pi / 2
        g = mq.fejer_bandlimited(sigma)
        xs = np.linspace(-3000.0, 3000.0, 1_500_001)
        vals = g(xs)
        for xi in (0.0, 0.5, 1.0):
            fhat = simpson(vals * np.cos(xi * xs), x=xs)
            assert fhat == pytest.approx(1.0 - xi / sigma, abs=2e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            mq.fejer_bandlimited(0.0)
        with pytest.raises(DomainError):
            mq.fejer_bandlimited(4.0)


class TestDilatedSinc:
    def test_values(self):
        g = mq.dilated_sinc(math.pi)
        assert g(0.0) == pytest.approx(1.0)
        np.testing.assert_allclose(g(np.arange(1, 5, dtype=float)), 0.0, atol=1e-15)

    def test_l2_norm_vs_quadrature(self):
        g = mq.dilated_sinc(math.pi / 2)
        xs = np.linspace(-8000.0, 8000.0, 4_000_001)
        num = math.sqrt(simpson(g(xs) ** 2, x=xs))
        assert num == pytest.approx(g.l2_norm, rel=1e-3)


class TestBSpline:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_support(self, p):
        g = mq.bspline(p)
        xs = np.linspace(-3.0, 3.0, 601)
        outside = np.abs(xs) > 1.0
        np.testing.assert_array_equal(g(xs)[outside], 0.0)
        inside = np.abs(xs) < 0.999
        assert np.all(g(xs)[inside] > 0.0)

    def test_cubic_center_value(self):
        assert mq.bspline(3)(0.0) == pytest.approx(2.0 / 3.0)

    def test_unit_mass(self):
        for p in (1, 3):
            g = mq.bspline(p)
            xs = np.linspace(-1.0, 1.0, 200_001)
            # The cardinal B-spline has unit mass; the dilation scales it
            # by 1/s with s = (p+1)/2.
            assert simpson(g(xs), x=xs) == pytest.approx(2.0 / (p + 1), rel=1e-8)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_seminorm_vs_numerical_derivative(self, p):
        # p-th finite difference quadrature oracle for |f^(p)|_{L2}.
        g = mq.bspline(p)
        h = 2e-4 if p < 3 else 1e-3
        xs = np.arange(-1.2, 1.2, h)
        d = g(xs)
        for _ in range(p):
            d = np.diff(d) / h
        num = math.sqrt(np.sum(d * d) * h)
        assert num == pytest.approx(g.seminorm, rel=5e-3)

    def test_degree_domain(self):
        with pytest.raises(DomainError):
            mq.bspline(0)

    def test_largest_degree_with_finite_seminorm(self):
        # s^(p - 1/2) sqrt(sum binom(p, i)^2) is 1.13e307 at p = 143, inf
        # for 144 <= p <= 161, and a bare OverflowError from 162 on.
        g = mq.bspline(143)
        assert math.isfinite(g.seminorm) and g.seminorm > 1e306

    @pytest.mark.parametrize("p", [144, 161, 162, 200])
    def test_seminorm_overflow_is_domain_error(self, monkeypatch, p):
        # Raised before the O(p^3) piece expansion, which takes 5 s at p = 200.
        def expand(_):
            raise AssertionError("piece expansion ran")

        monkeypatch.setattr(testfunctions, "_bspline_pieces", expand)
        with pytest.raises(DomainError, match="at most 143"):
            mq.bspline(p)

    @pytest.mark.parametrize("p", range(1, 31))
    def test_matches_scipy_basis_element(self, p):
        # De Boor's recurrence as scipy evaluates it, on the same affine map.
        s = (p + 1) / 2.0
        ref = BSpline.basis_element(np.arange(p + 2, dtype=float), extrapolate=False)
        knots = -1.0 + np.arange(p + 2) / s
        xs = np.concatenate([np.linspace(-1.0, 1.0, 4097), knots, [-1.0, 1.0],
                             np.nextafter([-1.0, 1.0], 0.0),
                             np.random.default_rng(p).uniform(-1.0, 1.0, 2000)])
        want = np.nan_to_num(ref(s * (xs + 1.0)), nan=0.0)
        got = mq.bspline(p)(xs)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=4.4e-16)
        outside = np.array([-1.5, -1.0 - 1e-15, 1.0 + 1e-15, 2.0, -1e300, 1e300])
        np.testing.assert_array_equal(mq.bspline(p)(outside), 0.0)
        assert abs(mq.bspline(p)(0.3) - float(ref(s * 1.3))) <= 4.4e-16

    @pytest.mark.filterwarnings("error")
    def test_non_finite_inputs_are_zero(self):
        g = mq.bspline(3)
        np.testing.assert_array_equal(g(np.array([np.nan, np.inf, -np.inf, 0.0]))[:3], 0.0)
        assert g(np.nan) == 0.0
        assert g(np.inf) == 0.0


class TestBump:
    def test_support_and_peak(self):
        g = mq.bump()
        assert g(0.0) == pytest.approx(math.exp(-1.0))
        np.testing.assert_array_equal(g(np.array([-1.0, 1.0, 2.0])), 0.0)

    def test_smooth_at_boundary(self):
        g = mq.bump()
        # All values approaching the support edge decay to zero faster
        # than any power: f(1 - t) / t^8 -> 0.
        for t in (1e-2, 5e-3):
            assert g(1.0 - t) / t**8 < 1.0


class TestZero:
    def test_zero(self):
        g = zero()
        np.testing.assert_array_equal(g(np.linspace(-2, 2, 9)), 0.0)
        assert g.l2_norm == 0.0
