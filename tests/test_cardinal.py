"""Truncated periodization and cardinal-table tests.

Oracles: the closed geometric sum for the Poisson symbol at lattice
frequencies, and a brute-force long periodization (hundreds of terms) for
generic parameters.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import mqcardinal as mq
from mqcardinal.cardinal import (
    TWO_PI,
    _fold_symbol,
    _half_spectrum,
    _ifft_band,
    _log_fold_symbol,
    _read_table,
    _symbol_rows,
    _symbol_terms,
    periodized_symbol_lower_bound,
    reduce_frequency,
)
from mqcardinal import cardinal
from mqcardinal.errors import (
    BandwidthError,
    DomainError,
    KernelOverflowError,
    NumericalError,
    OutOfRangeError,
    SingularityError,
    UnsupportedKernelError,
)


def long_symbol(k, xi, terms=300):
    """Brute-force periodization with a fixed large number of terms."""
    total = 0.0
    for j in range(-terms, terms + 1):
        arg = xi + TWO_PI * j
        if arg == 0.0:
            total += mq.kernel_fourier_at_zero(k)
        else:
            total += mq.kernel_fourier(k, arg)
    return total


class TestComputeTau:
    def test_published_term_counts(self):
        assert mq.compute_tau(mq.poisson(1.0), 1e-16).term_count == 17
        assert mq.compute_tau(mq.poisson(1.0), 1e-32).term_count == 27
        assert mq.compute_tau(mq.gaussian(1.0), 1e-16).term_count == 25
        assert mq.compute_tau(mq.gaussian(1.0), 1e-16).tau == 12

    @pytest.mark.parametrize(
        "lam, eps, n, m, tau",
        [(62.3, 3.35e-14, 18, 31, 14), (100.0, 1e-12, 32, 48, 17), (300.0, 1e-12, 32, 80, 29)],
    )
    def test_narrow_gaussian_tau_meets_eps(self, lam, eps, n, m, tau):
        # The old rule gave tau = 10 or 11 for every lambda, and delta
        # residuals of 2.9e3, 3.1e6 and 7.1e9 eps.
        k = mq.gaussian(lam)
        assert mq.compute_tau(k, eps).tau == tau
        t = mq.build_cardinal_table(k, eps, n, m)
        delta = np.zeros(2 * n + 1)
        delta[n] = 1.0
        assert np.max(np.abs(t.values[::m] - delta)) <= 0.1 * eps

    @pytest.mark.parametrize("lam", [0.01, 1.0, 10.0, 30.0])
    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-16])
    def test_gaussian_tau_keeps_old_rule_where_it_sufficed(self, lam, eps):
        old = math.ceil(2.0 / math.pi**2 * abs(math.log(eps / 4.0)) + 4.0)
        assert mq.compute_tau(mq.gaussian(lam), eps).tau == old

    def test_epsilon_domain(self):
        for bad in (0.0, 1.0, 2.0, -1e-3):
            with pytest.raises(DomainError):
                mq.compute_tau(mq.poisson(1.0), bad)

    @pytest.mark.parametrize(
        "alpha, c", [(-200.0, 1.0), (-3.0, 1e-120), (-0.75, 1e-5), (-1.5, 1e-150)]
    )
    def test_overflowing_constants_are_typed(self, alpha, c):
        # Gamma(200) overflows, 1e-120 ** -5 overflows, exp(1 / (32 pi 1e-5))
        # overflows, and the alpha < -1 tail envelope's exp(1 / (2 c r))
        # overflows: each is a numerical failure with a hint, not a bare
        # OverflowError or RuntimeWarning.
        k = mq.multiquadric(alpha, c)
        with pytest.raises(KernelOverflowError, match="larger c") as exc:
            mq.compute_tau(k, 1e-10)
        assert isinstance(exc.value, NumericalError)

    def test_unsupported_alpha(self):
        with pytest.raises(UnsupportedKernelError):
            mq.compute_tau(mq.multiquadric(0.5, 1.0), 1e-8)

    @given(
        log_eps=st.floats(-20, -4),
        c=st.floats(0.4, 3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_tau_monotone_in_epsilon(self, log_eps, c):
        k = mq.poisson(c)
        t1 = mq.compute_tau(k, 10.0**log_eps).tau
        t2 = mq.compute_tau(k, 10.0 ** (log_eps - 2)).tau
        assert t2 >= t1 >= 1

    def test_intermediate_alpha_guarantee(self):
        # The generic-envelope branch must still meet the epsilon contract.
        for alpha in (-0.75, -0.6):
            k = mq.multiquadric(alpha, 1.0)
            plan = mq.compute_tau(k, 1e-10)
            for xi in np.linspace(-math.pi + 1e-6, math.pi, 11):
                s_tau = mq.periodized_symbol(plan, xi)
                s_ref = long_symbol(k, float(xi))
                assert abs(s_tau - s_ref) / s_ref <= 1e-10

    @staticmethod
    def direct_tau(alpha, c, epsilon):
        """The -1 < alpha < 0 rule in its direct form, which raises for large c."""
        lam = 2.0 ** (1.0 + alpha) / math.gamma(-alpha) * c**alpha * TWO_PI
        nu = alpha + 0.5
        gamma = lam * math.pi ** (-alpha - 1.0) * math.exp(nu * nu / (2.0 * c * math.pi))
        d_lower = (
            0.5 * 2.0 ** (1.0 + alpha) / math.gamma(-alpha) * c**alpha
            * TWO_PI ** (-alpha - 1.0) * math.exp(-TWO_PI * c)
        )
        return max(1, math.ceil(
            1.0
            + (
                math.log(1.0 / epsilon)
                + math.log(2.0 * gamma * math.cosh(c * math.pi))
                - math.log(d_lower * (1.0 - math.exp(-TWO_PI * c)))
            )
            / (TWO_PI * c)
        ))

    def test_intermediate_alpha_log_space_keeps_tau(self):
        cs = (0.05, 0.1, 0.3, 0.7, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 70.0, 100.0, 110.0)
        for alpha in (-0.99, -0.9, -0.8, -0.75, -0.6, -0.51):
            for c in cs:
                for eps in (1e-4, 1e-8, 1e-11, 1e-14, 1e-16):
                    got = mq.compute_tau(mq.multiquadric(alpha, c), eps).tau
                    assert got == self.direct_tau(alpha, c, eps), (alpha, c, eps)

    def test_intermediate_alpha_wide_kernel_table(self):
        # At c = 150 the direct rule takes the log of an underflowed d_lower.
        t = mq.build_cardinal_table(mq.multiquadric(-0.75, 150.0), 1e-11, 32, 16)
        delta = np.zeros(65)
        delta[32] = 1.0
        assert np.max(np.abs(t.values[::16] - delta)) <= 1e-11

    def test_intermediate_alpha_very_wide_kernel_is_typed(self):
        # cosh(1000 pi) overflows in the direct rule, and phihat and the
        # symbol underflow; the table still builds.
        k = mq.multiquadric(-0.75, 1000.0)
        assert mq.compute_tau(k, 1e-11).tau >= 1
        t = mq.build_cardinal_table(k, 1e-11, 32, 16)
        delta = np.zeros(65)
        delta[32] = 1.0
        assert np.max(np.abs(t.values[::16] - delta)) <= 1e-11


class TestPeriodizedSymbol:
    def test_poisson_geometric_oracle(self):
        # At xi = 0 the truncated Poisson symbol is the exact geometric sum
        # (pi/c)(1 + 2 sum_{k<=tau} e^{-2 pi c k}).
        for c in (0.5, 1.0, 2.0):
            plan = mq.compute_tau(mq.poisson(c), 1e-16)
            oracle = (math.pi / c) * (
                1.0 + 2.0 * sum(math.exp(-TWO_PI * c * j) for j in range(1, plan.tau + 1))
            )
            assert mq.periodized_symbol(plan, 0.0) == pytest.approx(oracle, rel=1e-15)

    def test_periodicity(self):
        plan = mq.compute_tau(mq.poisson(1.0), 1e-12)
        for xi in (0.3, 1.1, -2.0):
            a = mq.periodized_symbol(plan, xi)
            b = mq.periodized_symbol(plan, xi + TWO_PI * 5)
            assert a == pytest.approx(b, rel=1e-14)

    def test_lower_bound_holds(self):
        for k in (mq.poisson(0.5), mq.poisson(1.0), mq.multiquadric(-0.8, 1.0)):
            plan = mq.compute_tau(k, 1e-12)
            bound = periodized_symbol_lower_bound(plan)
            for xi in np.linspace(-math.pi + 1e-9, math.pi, 64):
                assert mq.periodized_symbol(plan, float(xi)) >= bound

    def test_lower_bound_unsupported(self):
        plan = mq.compute_tau(mq.multiquadric(-1.5, 1.0), 1e-12)
        with pytest.raises(UnsupportedKernelError):
            periodized_symbol_lower_bound(plan)

    def test_gaussian_symbol_vs_long_sum(self):
        k = mq.gaussian(1.0)
        plan = mq.compute_tau(k, 1e-16)
        for xi in np.linspace(-math.pi, math.pi, 9):
            assert mq.periodized_symbol(plan, float(xi)) == pytest.approx(
                long_symbol(k, float(xi), terms=50), rel=1e-15
            )


class TestSymbolFold:
    """The table build's symbol, folded from the spectrum rows."""

    @staticmethod
    def residues(q):
        return np.array([reduce_frequency(TWO_PI * s / q) for s in range(q)])

    @pytest.mark.parametrize(
        "k, eps",
        [
            (mq.poisson(1.0), 1e-12),
            (mq.poisson(0.3), 1e-16),  # tau = 22 reaches past row M//2
            (mq.gaussian(0.5), 1e-16),
            (mq.multiquadric(-0.75, 1.0), 1e-12),
            (mq.multiquadric(-1.5, 0.7), 1e-12),
            (mq.multiquadric(-2.5, 2.0), 1e-10),
        ],
    )
    @pytest.mark.parametrize("m", [5, 16])
    def test_fold_matches_symbol_terms(self, k, eps, m):
        plan = mq.compute_tau(k, eps)
        q = 64
        f = lambda xi: mq.kernel_fourier(k, xi)
        spec = _half_spectrum(m, q, f, m // 2)
        got = _fold_symbol(_symbol_rows(spec, plan.tau, f, plan.tau + 1))
        want = _symbol_terms(plan.kernel, plan.tau, self.residues(q))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_rows_past_half_are_evaluated(self):
        f = lambda xi: 1.0 + xi
        spec = _half_spectrum(6, 8, f, 3)
        rows = _symbol_rows(spec, 4, f, 5)
        assert rows.shape == (5, 8)
        r, s = np.mgrid[0:5, 0:8]
        np.testing.assert_allclose(rows, 1.0 + TWO_PI * (r + s / 8.0), rtol=1e-15)

    @pytest.mark.parametrize("lam", [2.0, 0.05, 1.0 / 256.0])
    @pytest.mark.parametrize("m", [5, 16])
    def test_gaussian_log_fold_matches_logsumexp(self, lam, m):
        plan = mq.compute_tau(mq.gaussian(lam), 1e-16)
        q = 128
        f = lambda xi: -xi * xi / (4.0 * lam)
        spec = _half_spectrum(m, q, f, m // 2)
        got = _log_fold_symbol(_symbol_rows(spec, plan.tau, f, plan.tau + 1))
        shifts = TWO_PI * np.arange(-plan.tau, plan.tau + 1)
        expo = f(self.residues(q)[:, None] + shifts[None, :])
        want = special.logsumexp(expo, axis=1)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-13)


def symbol_terms_loop(k, tau, xi_star):
    """Reference for _symbol_terms: one transform call per shift j = -tau .. tau."""
    total = np.zeros_like(xi_star)
    for j in range(-tau, tau + 1):
        args = xi_star + TWO_PI * j
        vals = np.empty_like(args)
        nz = args != 0.0
        if np.any(~nz):
            if k.family != "gaussian" and k.alpha >= -0.5:
                raise SingularityError("xi = 0")
            vals[~nz] = mq.kernel_fourier_at_zero(k)
        vals[nz] = mq.kernel_fourier(k, args[nz])
        total += vals
    return total


class TestSymbolTerms:
    """The shift-grid symbol sum is bit-identical to the per-shift loop."""

    @pytest.mark.parametrize(
        "k",
        [mq.poisson(0.4), mq.gaussian(0.5), mq.multiquadric(-0.75, 1.0),
         mq.multiquadric(-1.5, 0.7), mq.multiquadric(-2.5, 2.0), mq.multiquadric(-4.0, 0.1)],
    )
    @pytest.mark.parametrize("tau", [1, 7, 50])
    def test_matches_loop_oracle(self, k, tau):
        xi = np.concatenate([[0.0, math.pi, -1e-9], np.linspace(-math.pi, math.pi, 41)[1:]])
        if k.family != "gaussian" and k.alpha >= -0.5:
            xi = xi[1:]  # xi = 0 is the non-integrable singularity
        np.testing.assert_array_equal(_symbol_terms(k, tau, xi), symbol_terms_loop(k, tau, xi))

    def test_singularity_at_zero(self):
        with pytest.raises(SingularityError):
            _symbol_terms(mq.multiquadric(-0.25, 1.0), 3, np.array([0.5, 0.0]))

    def test_tau_sweep_matches_loop_oracle(self, monkeypatch):
        # compute_tau for alpha < -1 takes its d_lower from the symbol sum.
        cases = [(a, c, eps) for a in np.linspace(-1.05, -6.0, 6)
                 for c in (0.05, 0.5, 3.0, 20.0) for eps in (1e-6, 1e-14)]
        fast = [mq.compute_tau(mq.multiquadric(a, c), eps) for a, c, eps in cases]
        monkeypatch.setattr(cardinal, "_symbol_terms", symbol_terms_loop)
        slow = [mq.compute_tau(mq.multiquadric(a, c), eps) for a, c, eps in cases]
        for p, q in zip(fast, slow):
            assert repr((p.tau, p.d_lower, p.gamma)) == repr((q.tau, q.d_lower, q.gamma))

    def test_tau_sweep_matches_uncut_symbol_min(self, monkeypatch):
        # The symbol minimum sums only the shifts above 2^-60 of S; tau and
        # d_lower are those of the full 50-shift sum.
        cases = [(a, c, eps) for a in np.linspace(-1.05, -6.0, 6)
                 for c in (0.05, 0.5, 3.0, 20.0) for eps in (1e-6, 1e-14)]
        cut = [mq.compute_tau(mq.multiquadric(a, c), eps) for a, c, eps in cases]

        def uncut(k, tau0=50, grid=512):
            xs = (-math.pi + TWO_PI * (np.arange(grid) + 1.0) / grid)[grid // 2 - 1 :]
            return float(_symbol_terms(k, tau0, xs).min())

        monkeypatch.setattr(cardinal, "_empirical_symbol_min", uncut)
        full = [mq.compute_tau(mq.multiquadric(a, c), eps) for a, c, eps in cases]
        for p, q in zip(cut, full):
            assert (p.tau, p.d_lower) == (q.tau, q.d_lower)


class TestReduceFrequency:
    @given(xi=st.floats(-1e6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_representative_in_range(self, xi):
        r = reduce_frequency(xi)
        assert -math.pi < r <= math.pi + 1e-12
        # xi - r is an integer multiple of 2 pi
        m = (xi - r) / TWO_PI
        assert abs(m - round(m)) < 1e-6


class TestCardinalHat:
    @pytest.mark.parametrize(
        "k", [mq.poisson(300.0), mq.multiquadric(-1.5, 300.0), mq.gaussian(1e-3)]
    )
    def test_where_phihat_underflows(self, k):
        # phihat(3) and S(3) both underflow to 0: this was a ZeroDivisionError.
        plan = mq.compute_tau(k, 1e-12)
        assert mq.cardinal_hat(plan, 3.0) == pytest.approx(1.0, abs=1e-12)
        # Far out the ratio rounds to 0 rather than overflowing.
        assert mq.cardinal_hat(plan, 1000.0) == 0.0

    @pytest.mark.parametrize(
        "k",
        [mq.poisson(1.0), mq.multiquadric(-1.5, 0.7), mq.multiquadric(-0.4, 1.0), mq.gaussian(0.3)],
    )
    def test_arrays_match_scalar_calls(self, k):
        plan = mq.compute_tau(k, 1e-12)
        xi = np.concatenate([np.linspace(-20.0, 20.0, 61), [0.0, TWO_PI, -TWO_PI]])
        want = [mq.cardinal_hat(plan, float(x)) for x in xi]
        np.testing.assert_array_equal(mq.cardinal_hat(plan, xi), want)
        np.testing.assert_array_equal(mq.cardinal_hat(plan, xi.reshape(8, 8)).ravel(), want)
        if k.alpha >= -0.5:
            # The removable limit at the lattice points.
            assert mq.cardinal_hat(plan, 0.0) == 1.0 and mq.cardinal_hat(plan, TWO_PI) == 0.0
            xi = xi[reduce_frequency(xi) != 0.0]
        np.testing.assert_array_equal(
            mq.periodized_symbol(plan, xi), [mq.periodized_symbol(plan, float(x)) for x in xi]
        )

    def test_partition_of_unity(self):
        plan = mq.compute_tau(mq.poisson(1.0), 1e-16)
        for xi in np.linspace(-math.pi + 1e-6, math.pi, 33):
            total = sum(
                mq.cardinal_hat(plan, float(xi) + TWO_PI * j)
                for j in range(-plan.tau, plan.tau + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_at_lattice(self):
        # Lhat(0) = phihat(0)/S_tau(0): close to 1 but not equal, since the
        # symbol collects the (small) neighboring transform tails.
        plan = mq.compute_tau(mq.poisson(1.0), 1e-16)
        s0 = mq.periodized_symbol(plan, 0.0)
        assert mq.cardinal_hat(plan, 0.0) == pytest.approx(math.pi / s0, rel=1e-14)
        assert mq.cardinal_hat(plan, 0.0) == pytest.approx(1.0, abs=5e-3)
        s0 = mq.periodized_symbol(plan, TWO_PI)
        want = mq.kernel_fourier(mq.poisson(1.0), TWO_PI) / s0
        assert mq.cardinal_hat(plan, TWO_PI) == pytest.approx(want, rel=1e-13)
        assert mq.cardinal_hat(plan, TWO_PI) < 2e-3


class TestCardinalTable:
    def test_delta_property(self):
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-16, 32, 16)
        m = t.oversample_M
        for j in range(-32, 33):
            want = 1.0 if j == 0 else 0.0
            assert abs(t.value_at_grid(j * m) - want) <= 1e-6

    def test_symmetry(self):
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-8, 8, 8)
        np.testing.assert_array_equal(t.values, t.values[::-1])

    def test_oversampling_refinement_consistent(self):
        # Values on the shared coarse grid must agree across M.
        t8 = mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 8, 16)
        t16 = mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 8, 32)
        for i in range(-8 * 16, 8 * 16 + 1):
            assert t8.value_at_grid(i) == pytest.approx(t16.value_at_grid(2 * i), abs=1e-12)

    def test_interpolation_matches_fine_grid(self):
        # Cubic off-grid evaluation at M=16 carries an O(M^-4) error set
        # by the cardinal function's curvature near the origin.
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 8, 16)
        fine = mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 8, 64)
        xs = np.arange(-8 * 64, 8 * 64 + 1) / 64.0
        approx = mq.eval_cardinal(t, xs)
        exact = fine.values
        assert np.max(np.abs(approx - exact)) < 5e-5

    def test_eval_exact_at_grid(self):
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-8, 8, 8)
        xs = np.arange(-8 * 8, 8 * 8 + 1) / 8.0
        np.testing.assert_array_equal(mq.eval_cardinal(t, xs), t.values)

    def test_out_of_range(self):
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-8, 8, 8)
        with pytest.raises(OutOfRangeError):
            mq.eval_cardinal(t, 8.5)

    def test_non_finite_is_out_of_range(self):
        # abs(nan) > N is False, so NaN must be caught on its own, before the
        # integer cast that would warn.
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-8, 8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (np.nan, np.array([0.0, np.nan]), np.inf, np.array([-np.inf, 0.5])):
                with pytest.raises(OutOfRangeError):
                    mq.eval_cardinal(t, x)

    def test_bandwidth_error_suggests_m(self):
        with pytest.raises(BandwidthError) as exc:
            mq.build_cardinal_table(mq.poisson(1.0), 1e-16, 8, 8)
        assert exc.value.suggested_m is not None
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-16, 8, exc.value.suggested_m)
        assert t.value_at_grid(0) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_table(self):
        t = mq.build_cardinal_table(mq.gaussian(1.0), 1e-16, 8, 16)
        assert t.value_at_grid(0) == pytest.approx(1.0, abs=1e-10)
        assert abs(t.value_at_grid(3 * 16)) < 1e-8

    def test_flat_gaussian_table_is_finite(self):
        # Tiny lambda underflows the symbol pointwise; the log-space ratio
        # must still produce a usable (sinc-like) table.
        t = mq.build_cardinal_table(mq.gaussian(1.0 / 256.0), 1e-12, 8, 16)
        assert np.all(np.isfinite(t.values))
        assert t.value_at_grid(0) == pytest.approx(1.0, abs=1e-8)
        assert abs(t.value_at_grid(16)) < 1e-8

    def test_roundtrip_serialization(self, tmp_path):
        t = mq.build_cardinal_table(mq.multiquadric(-1.5, 1.0), 1e-8, 8, 8)
        path = tmp_path / "table.txt"
        mq.save_table(t, path)
        back = mq.load_table(path)
        assert back.kernel == t.kernel
        assert back.half_width_N == t.half_width_N
        assert back.oversample_M == t.oversample_M
        assert back.epsilon == t.epsilon
        np.testing.assert_array_equal(back.values, t.values)

    def test_values_read_only(self):
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-8, 8, 8)
        with pytest.raises(ValueError):
            t.values[0] = 2.0


def four_weight_lagrange(values, base, s, order):
    """The hand-written cubic and linear rules, one clipped gather per point."""

    def v(i):
        return np.take(values, base + i, mode="clip")

    if order == 2:
        return (1.0 - s) * v(0) + s * v(1)
    w0 = -(s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0
    w1 = s * (s - 2.0) * (s - 3.0) / 2.0
    w2 = -s * (s - 1.0) * (s - 3.0) / 2.0
    w3 = s * (s - 1.0) * (s - 2.0) / 6.0
    return v(0) * w0 + v(1) * w1 + v(2) * w2 + v(3) * w3


class TestStencil:
    """The one-gather Lagrange stencil against the four-weight formulas."""

    @pytest.fixture(scope="class", params=[4, 2])
    def table(self, request):
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-8, 16, 8)
        return mq.CardinalTable(t.kernel, 16, 8, t.values, t.epsilon, request.param)

    def test_eval_uniform(self, table):
        rng = np.random.default_rng(table.interp_order)
        u = mq.cardinal_series(rng.standard_normal(9), 4, table)
        t, order = u.table, table.interp_order
        conv = cardinal.series_samples(t, u.coeffs)
        reach = (t.half_width_N + u.half_count) / u.N
        edge = reach + np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]) / (u.N * t.oversample_M)
        far = [2.0 * reach, -2.0 * reach, np.nan, np.inf, -np.inf]
        x = np.concatenate((rng.uniform(-reach, reach, 200), edge, -edge, far))
        pos = (u.N * x + (t.half_width_N + u.half_count)) * t.oversample_M + cardinal._SERIES_PAD
        pos = np.where(np.isfinite(pos), np.clip(pos, -order, conv.size + order), -order)
        base = np.floor(pos).astype(int) - (order // 2 - 1)
        want = four_weight_lagrange(conv, base, pos - base, order)
        got = mq.eval_uniform(u, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(conv)))
        # Probes past every term and non-finite probes read exact zeros.
        assert np.all(got[-5:] == 0.0)
        # On the sample grid the weights are exactly 0 and 1.  N = 4 and
        # M = 8, so these probes map to whole sample positions exactly.
        i = np.arange(2, conv.size - 2)
        x_grid = ((i - cardinal._SERIES_PAD) / t.oversample_M - t.half_width_N - u.half_count) / u.N
        np.testing.assert_array_equal(mq.eval_uniform(u, x_grid), conv[i])

    def test_eval_cardinal(self, table):
        t, order = table, table.interp_order
        n, m = t.half_width_N, t.oversample_M
        rng = np.random.default_rng(order)
        x = np.concatenate((rng.uniform(-n, n, 200), [-n, n, -n + 0.3 / m, n - 0.3 / m]))
        x = np.concatenate((x, n - np.array([1.0, 1.5, 2.0, 2.5]) / m))
        u = np.clip(x * m + n * m, 0.0, 2.0 * n * m)
        base = np.clip(np.floor(u).astype(int) - (order // 2 - 1), 0, t.values.size - order)
        want = four_weight_lagrange(t.values, base, u - base, order)
        got = mq.eval_cardinal(t, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(t.values)))
        # The clipped edge stencils return the end values exactly.
        assert got[200] == t.values[0] and got[201] == t.values[-1]
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(OutOfRangeError):
                mq.eval_cardinal(t, bad)


class TestWideKernels:
    """Kernels so wide that phihat and the symbol underflow on the table grid."""

    @pytest.mark.parametrize(
        "k",
        [mq.poisson(240.0), mq.poisson(300.0), mq.poisson(1000.0), mq.multiquadric(-1.5, 300.0),
         mq.multiquadric(-2.5, 300.0), mq.multiquadric(-0.75, 700.0)],
    )
    def test_table_builds_and_is_near_sinc(self, k):
        # Each raised "periodized symbol underflowed".  The delta residual
        # alone can read 0 for a table close to a sinc, so the off-grid
        # values are checked too: Lhat is nearly the box on (-pi, pi).
        t = mq.build_cardinal_table(k, 1e-11, 32, 16)
        delta = np.zeros(65)
        delta[32] = 1.0
        assert np.max(np.abs(t.values[::16] - delta)) <= 1e-11
        assert np.max(np.abs(t.values - np.sinc(np.arange(-512, 513) / 16))) <= 1e-3

    @given(
        family=st.sampled_from(["poisson", "gaussian", -0.6, -0.75, -1.25, -1.5, -2.5, -3.3]),
        log_c=st.floats(-1.0, math.log10(2000.0)),
        log_lam=st.floats(-4.0, 3.0),
        log_eps=st.floats(-14.0, -6.0),
        n=st.integers(4, 64),
        m=st.integers(4, 32),
    )
    @settings(max_examples=100, deadline=None)
    def test_operating_range_sweep(self, family, log_c, log_lam, log_eps, n, m):
        # A table that meets its budget, or a BandwidthError naming a larger M.
        c, eps = 10.0**log_c, 10.0**log_eps
        if family == "gaussian":
            k = mq.gaussian(10.0**log_lam)
        else:
            k = mq.poisson(c) if family == "poisson" else mq.multiquadric(family, c)
        try:
            t = mq.build_cardinal_table(k, eps, n, m)
        except BandwidthError as exc:
            assert exc.suggested_m > m
            return
        delta = np.zeros(2 * n + 1)
        delta[n] = 1.0
        assert np.max(np.abs(t.values[::m] - delta)) <= eps


def even_flat(head, m):
    """The even length-p sequence whose slots 0 .. p/2 are head's flat form."""
    p = m * head.shape[1]
    half = np.zeros(p // 2 + 1)
    filled = head.ravel()[: p // 2 + 1]
    half[: filled.size] = filled
    return np.concatenate((half, half[1 : (p + 1) // 2][::-1]))


class TestTableTransform:
    """The table build's spectrum layout and its pruned four-step inverse FFT."""

    @pytest.mark.parametrize("m, q", [(4, 16), (5, 32), (6, 16), (7, 64), (24, 2048), (64, 4096)])
    def test_ifft_even_matches_numpy(self, m, q):
        # Every row count from 1 to M//2 + 1.  At M//2 + 1 the mirror of row
        # M//2 - 1 (even M) or M//2 (odd M) lands in a filled row, and slot
        # p/2 is its own mirror: a random value there counted twice fails.
        p = m * q
        rng = np.random.default_rng(p)
        for rows in range(1, m // 2 + 2):
            head = rng.standard_normal((rows, q))
            head.ravel()[p // 2 + 1 :] = 0.0
            flat = even_flat(head, m)
            want = (m * np.fft.ifft(flat)).reshape(q, m).T[: m // 2 + 1]
            got = _ifft_band(head, m)
            # Entry [t, j] holds output j M + t, for rows t <= M/2.
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("m", [5, 6])
    def test_even_spectrum_layout(self, m):
        q = 16
        p = m * q
        spec = _half_spectrum(m, q, lambda xi: 1.0 + xi, m // 2 + 1)
        assert spec.shape == (m // 2 + 1, q) and spec.dtype == float
        flat = spec.reshape(-1)
        i = np.arange(p // 2 + 1)
        np.testing.assert_array_equal(flat[i], 1.0 + i * (TWO_PI / q))
        assert np.all(flat[p // 2 + 1 :] == 0.0)
        want = (m * np.fft.ifft(even_flat(spec, m))).reshape(q, m).T[: m // 2 + 1]
        got = _ifft_band(spec, m)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_build_peak_memory(self):
        # A complex (M, Q) spectrum alone is 3 MiB here, so the build must
        # not form one.
        k = mq.poisson(3.0)
        mq.build_cardinal_table(k, 1e-12, 512, 48)
        tracemalloc.start()
        try:
            mq.build_cardinal_table(k, 1e-12, 512, 48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestSpectrumBand:
    """The build evaluates only the spectrum rows and symbol shifts above rounding."""

    KERNELS = {
        "poisson": mq.poisson,
        "gaussian": lambda c: mq.gaussian(1.0 / (c * c)),
        "mq-0.75": lambda c: mq.multiquadric(-0.75, c),
        "mq-1.5": lambda c: mq.multiquadric(-1.5, c),
        "mq-2.5": lambda c: mq.multiquadric(-2.5, c),
    }

    @given(
        family=st.sampled_from(sorted(KERNELS)),
        log_c=st.floats(-1.0, 2.0),
        log_eps=st.floats(-16.0, -6.0),
        n=st.integers(4, 128),
        m=st.integers(4, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_cut_table_matches_uncut(self, family, log_c, log_eps, n, m):
        k, eps = self.KERNELS[family](10.0**log_c), 10.0**log_eps
        try:
            cut = mq.build_cardinal_table(k, eps, n, m)
        except BandwidthError:
            return
        with mock.patch.object(cardinal, "_LOG_CUT", -math.inf):
            full = mq.build_cardinal_table(k, eps, n, m)
        # At most 2^-60 from the cut, plus rounding: the inverse FFT rounds
        # the two spectra differently.  In about 2500 random builds that moved 4
        # tables past 1e-18, the worst by 1.4e-17, 1/16 of the last place
        # of the table's largest value.
        tol = 2.0**-60 + np.spacing(np.max(np.abs(full.values)))
        assert np.max(np.abs(cut.values - full.values)) <= tol

    @pytest.mark.parametrize(
        "k, m",
        [(mq.poisson(3.0), 48), (mq.gaussian(0.5), 48), (mq.multiquadric(-0.75, 2.0), 24),
         (mq.multiquadric(-2.5, 2.0), 24), (mq.multiquadric(-1.5, 1.0), 24)],
    )
    def test_dropped_rows_are_below_bound(self, monkeypatch, k, m):
        # The band the build cuts at: the first row r >= 1 with
        # phihat(2 pi r) < 2^-60 / M of phihat(pi), and Lhat, from the
        # full symbol, on every slot of the rows it leaves 0.
        seen = {}
        spectrum, symbol_rows = cardinal._half_spectrum, cardinal._symbol_rows

        def spy_spectrum(m_, q, f, rows):
            seen.update(q=q, rows=rows)
            return spectrum(m_, q, f, rows)

        def spy_symbol_rows(spec, tau, f, band):
            seen.update(band=band)
            return symbol_rows(spec, tau, f, band)

        monkeypatch.setattr(cardinal, "_half_spectrum", spy_spectrum)
        monkeypatch.setattr(cardinal, "_symbol_rows", spy_symbol_rows)
        mq.build_cardinal_table(k, 1e-12, 32, m)
        band, rows, q = seen["band"], seen["rows"], seen["q"]
        share = mq.log_kernel_fourier(k, TWO_PI * np.arange(1, band + 1)) - mq.log_kernel_fourier(
            k, math.pi
        )
        assert share[-1] < math.log(2.0**-60 / m) <= share[:-1].min(initial=math.inf)
        assert rows == min(band, m // 2 + 1) < m // 2 + 1
        plan = mq.compute_tau(k, 1e-12)
        xi = TWO_PI * (np.arange(rows, m // 2 + 1)[:, None] + np.arange(q) / q)
        assert np.max(mq.cardinal_hat(plan, xi)) <= 2.0**-60 / m

    @pytest.mark.parametrize(
        "k, n, m, most",
        [(mq.poisson(3.0), 64, 48, 6176), (mq.gaussian(0.5), 64, 48, 4142),
         (mq.multiquadric(-0.75, 2.0), 64, 24, 10264), (mq.multiquadric(-2.5, 2.0), 64, 24, 12624)],
    )
    def test_transform_evaluation_count(self, monkeypatch, k, n, m, most):
        # Evaluating every row took 49160, 49174, 24588 and 50541 values.
        count = [0]

        def counting(kern, xi):
            count[0] += np.size(xi)
            return mq.log_kernel_fourier(kern, xi)

        monkeypatch.setattr(cardinal, "log_kernel_fourier", counting)
        mq.build_cardinal_table(k, 1e-12, n, m)
        assert 0 < count[0] <= 1.05 * most

    @staticmethod
    def fancy_read(vals, n, m):
        """The index form of the read-out: L(i / M) from entry [t, j] of
        output i mod p = j M + t, or its mirror entry for t > M/2."""
        q = vals.shape[1]
        idx = np.arange(-n * m, n * m + 1) % (m * q)
        t, j = idx % m, idx // m
        far = t > m // 2
        raw = vals[np.where(far, m - t, t), np.where(far, q - 1 - j, j)]
        return 0.5 * (raw + raw[::-1])

    @pytest.mark.parametrize("n, m, q", [(4, 4, 32), (7, 5, 64), (7, 6, 64), (64, 24, 2048), (33, 25, 512)])
    def test_read_out_matches_index_form(self, n, m, q):
        vals = np.random.default_rng(n * m).standard_normal((m // 2 + 1, q))
        got = _read_table(vals, n, m)
        want = self.fancy_read(vals, n, m)
        assert got.tobytes() == want.tobytes()
