"""Truncated periodization and cardinal-table tests.

Oracles: the closed geometric sum for the Poisson symbol at lattice
frequencies, and a brute-force long periodization (hundreds of terms) for
generic parameters.
"""

import contextlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

import mqcardinal as mq
from mqcardinal.cardinal import (
    TWO_PI,
    _ifft_band,
    _pair_slots,
    _read_table,
    _symbol_terms,
    periodized_symbol_lower_bound,
    reduce_frequency,
)
from mqcardinal import cardinal
from mqcardinal.errors import (
    BandwidthError,
    DomainError,
    KernelOverflowError,
    MqcError,
    NumericalConsistencyError,
    NumericalError,
    OutOfRangeError,
    SingularityError,
    UnsupportedKernelError,
)
from oracle import cardinal_oracle


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

    @pytest.mark.parametrize("alpha, c", [(-200.0, 1.0), (-3.0, 1e-120), (-0.75, 1e-5)])
    def test_overflowing_constants_are_typed(self, alpha, c):
        # Gamma(200) overflows, 1e-120 ** -3 overflows and exp(1 / (32 pi
        # 1e-5)) overflows: each is a numerical failure with a hint, not a
        # bare OverflowError or RuntimeWarning.
        k = mq.multiquadric(alpha, c)
        with pytest.raises(KernelOverflowError, match="larger c") as exc:
            mq.compute_tau(k, 1e-10)
        assert isinstance(exc.value, NumericalError)

    def test_unsupported_alpha(self):
        with pytest.raises(UnsupportedKernelError):
            mq.compute_tau(mq.multiquadric(0.5, 1.0), 1e-8)

    def test_too_wide_poisson_is_typed(self):
        # pi / c / eps overflowed into a bare OverflowError.
        with pytest.raises(UnsupportedKernelError, match="larger c"):
            mq.compute_tau(mq.poisson(1e-300), 1e-10)

    @pytest.mark.parametrize(
        "k, hint",
        # phihat(pi) ~ e^691 is finite, and the shares stay near 1 past the
        # cap; the gaussian's exp(-j (j - 1) pi^2 / lambda) need 1.5e6 shifts.
        [(mq.multiquadric(-1.5, 1e-150), "larger c"), (mq.gaussian(1e12), "smaller lambda")],
    )
    def test_past_shift_cap_is_typed(self, k, hint):
        with pytest.raises(UnsupportedKernelError, match=hint):
            mq.compute_tau(k, 1e-10)

    @pytest.mark.parametrize("k", [mq.poisson(1e-6), mq.multiquadric(-0.5, 1e-18)],
                             ids=["poisson-c1e-6", "alpha-0.5-c1e-18"])
    def test_narrow_kernel_past_shift_cap_is_called_narrow(self, k):
        # A tiny c makes the kernel narrow; the message called it too wide.
        with pytest.raises(UnsupportedKernelError, match="too narrow.*larger c"):
            mq.compute_tau(k, 1e-2)

    def test_underflowing_tail_prefactor(self):
        # c^alpha underflowed to 0, and its log was a bare ValueError.
        assert mq.compute_tau(mq.multiquadric(-3.0, 1e200), 1e-10).tau == 1

    def test_overflowing_transform_at_pi_is_typed(self):
        # K_2(c pi) overflows; the band search subtracted inf from inf.
        with pytest.raises(KernelOverflowError, match="larger c"):
            mq.compute_tau(mq.multiquadric(-2.5, 1e-200), 1e-10)

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

    @given(
        family=st.sampled_from(["poisson", "gaussian", -0.3, -0.6, -0.9, -1.25, -1.5, -2.5, -4.0]),
        log_width=st.floats(-1.0, 1.5),
        log_eps=st.floats(-16.0, -4.0),
    )
    @settings(max_examples=60, deadline=None)
    @example(family="poisson", log_width=math.log10(0.5), log_eps=-12.0)
    @example(family="poisson", log_width=0.0, log_eps=-12.0)
    @example(family=-0.8, log_width=0.0, log_eps=-12.0)
    # 1 / eps overflowed, so tau read as past the shift cap.
    @example(family=-0.75, log_width=0.0, log_eps=math.log10(5e-324))
    def test_certificate_meets_eps(self, family, log_width, log_eps):
        # The shifts tau keeps against 8001, each summed exactly, on a grid
        # of xi* in [0, pi] (S is even) with 0 where phihat is finite there.
        # For -1 <= alpha < 0 the symbol stays above the paper's D e^(-4 pi c).
        w, eps = 10.0**log_width, 10.0**log_eps
        if family == "gaussian":
            k = mq.gaussian(w)
        else:
            k = mq.poisson(w) if family == "poisson" else mq.multiquadric(family, w)
        plan = mq.compute_tau(k, eps)
        xi = np.linspace(0.0, math.pi, 17)
        if family != "gaussian" and k.alpha >= -0.5:
            xi[0] = 1e-3
        terms = mq.kernel_fourier(k, xi + TWO_PI * np.arange(-4000, 4001)[:, None])
        want = np.array([math.fsum(col) for col in terms.T])
        kept = terms[4000 - plan.tau : 4001 + plan.tau]
        cut = np.array([math.fsum(col) for col in kept.T])
        ulp = np.finfo(float).eps
        assert np.all(np.abs(cut - want) <= max(eps, 4 * ulp) * want)
        # periodized_symbol adds the same terms in the order j = -tau .. tau,
        # with at most 2 tau roundings.
        got = mq.periodized_symbol(plan, xi)
        assert np.all(np.abs(got - cut) <= 2 * plan.tau * ulp * cut)
        if family != "gaussian" and k.alpha >= -1.0:
            assert np.all(got >= periodized_symbol_lower_bound(plan))

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
    """The table build's symbol: the Q-periodization of its spectrum slots."""

    @staticmethod
    def slots(q, band):
        """Flat slots 2 pi i / Q, i < band Q: the frequencies below 2 pi band."""
        return np.arange(band * q) * (TWO_PI / q)

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
        # The slots below 2 pi band hold the shifts of _symbol_terms to
        # band - 1, and -band at the residues s >= 1.
        band = mq.compute_tau(k, eps).tau + 1
        q = 4 * m
        got = _pair_slots(mq.kernel_fourier(k, self.slots(q, band)).reshape(band, q))[2]
        xi = TWO_PI * np.arange(q // 2 + 1) / q
        last = np.where(xi != 0.0, mq.kernel_fourier(k, TWO_PI * band - xi), 0.0)
        want = _symbol_terms(k, band - 1, xi) + last
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_rows_past_half_are_evaluated(self, monkeypatch):
        # A spectrum that reaches past pi M: the build takes log phihat on
        # every slot below the band, rows past M//2 too, from one call of
        # the multiquadric's slot helper, whose anchors reach the last row.
        k, eps, m = mq.multiquadric(-2.5, 0.22), 5e-11, 48
        band = cardinal._spectrum_band(k, eps, m)
        assert band > m // 2 + 1
        calls, seen = [], []
        slots, transform = cardinal._mq_log_slots, cardinal.log_kernel_fourier

        def spy_slots(kern, n, q):
            calls.append((n, q))
            return slots(kern, n, q)

        def spy(kern, xi):
            seen.append(np.max(xi))
            return transform(kern, xi)

        monkeypatch.setattr(cardinal, "_mq_log_slots", spy_slots)
        monkeypatch.setattr(cardinal, "log_kernel_fourier", spy)
        mq.build_cardinal_table(k, eps, 32, m)
        q = 2048
        assert calls == [(band * q, q)]
        assert max(seen) >= self.slots(q, band)[-1]

    @pytest.mark.parametrize("lam", [2.0, 0.05, 1.0 / 256.0])
    @pytest.mark.parametrize("m", [5, 16])
    def test_gaussian_log_fold_matches_logsumexp(self, lam, m):
        # log S as the build forms it: each residue's terms divided by its
        # largest, row 0 of column min(s, Q - s), before the sum.
        band = mq.compute_tau(mq.gaussian(lam), 1e-16).tau + 1
        q = 8 * m
        f = lambda xi: -xi * xi / (4.0 * lam)
        rows = f(self.slots(q, band)).reshape(band, q)
        top = rows[0, np.minimum(np.arange(q), q - np.arange(q))]
        got = rows[0, : q // 2 + 1] + np.log(_pair_slots(np.exp(rows - top))[2])
        xi = TWO_PI * np.arange(q // 2 + 1)[:, None] / q + TWO_PI * np.arange(-band, band + 1)
        expo = np.where(np.abs(xi) < TWO_PI * band, f(xi), -np.inf)  # shifts below 2 pi band
        want = special.logsumexp(expo, axis=1)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-13)


class TestSlotFill:
    """The build's multiquadric log transform: exact slots, anchors and a
    fixed Lagrange fill between them."""

    @staticmethod
    def weighted_ulps(k, q, rows):
        """|fill - log phihat| on every slot below ``rows`` rows, weighted
        by exp(log phihat - its residue's row-0 value), as the build weighs
        each symbol term, in ulps of max(1, |log phihat|)."""
        got = cardinal._mq_log_slots(k, rows * q, q)
        want = mq.log_kernel_fourier(k, TestSymbolFold.slots(q, rows))
        fold = np.minimum(np.arange(q), q - np.arange(q))
        weight = np.exp(want.reshape(rows, q) - want[fold]).ravel()
        return np.abs(got - want) * weight / (np.finfo(float).eps * np.maximum(1.0, np.abs(want)))

    @given(
        nu=st.one_of(
            st.integers(1, 4).map(float),
            st.integers(0, 3).map(lambda j: j + 0.5),
            st.floats(0.01, cardinal._FILL_MAX_ORDER),
        ),
        log_c=st.floats(math.log10(0.05), 3.0),
        q=st.sampled_from([2048, 4096, 8192]),
        rows=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    @example(nu=0.25, log_c=math.log10(2.0), q=2048, rows=4)  # table-build mq-0.75
    @example(nu=1.0, log_c=math.log10(2.0), q=2048, rows=4)  # mq-1.5
    @example(nu=2.0, log_c=math.log10(2.0), q=2048, rows=4)  # mq-2.5
    def test_fill_matches_transform(self, nu, log_c, q, rows):
        # Integer and half-integer orders, where the transform's Bessel
        # factor is a recurrence good to ~7e-16, measured at most 13 ulps in
        # 800 random draws: the rounding of the anchors and of the fill.
        # Fractional orders are compared with scipy's kve, whose own error
        # dominates: 2.1e-13 against mpmath at nu = 0.88, c = 1.67, where
        # the fill is off by 4.7e-14; the largest gap was 493 ulps in 1500
        # random draws and 676 in a search.  The Lagrange remainder past 480
        # exact slots is about 0.015 ulp: 1.5e4 past 120, divided by 2^10
        # per doubling (see _mq_log_slots).  A 4-point fill, or only the 32
        # exact slots the first rule reads, fails this test.
        k = mq.multiquadric(-nu - 0.5, 10.0**log_c)
        ulps = 32 if float(2 * nu).is_integer() else 2048
        assert np.max(self.weighted_ulps(k, q, rows)) <= ulps

    def test_past_max_order_every_slot_is_evaluated(self):
        k = mq.multiquadric(-cardinal._FILL_MAX_ORDER - 0.75, 3.0)
        q = 2048
        got = cardinal._mq_log_slots(k, 2 * q, q)
        assert got.tobytes() == mq.log_kernel_fourier(k, TestSymbolFold.slots(q, 2)).tobytes()

    def test_against_mpmath_past_the_sweep(self):
        # nu = -3.9 is past the random table sweep's alpha >= -4 but under
        # _FILL_MAX_ORDER; the filled slots are as near the exact values as
        # the transform's own.
        mpmath = pytest.importorskip("mpmath")
        k, q = mq.multiquadric(-4.4, 0.5), 2048
        idx = np.arange(481, 2 * q, 61)
        idx = idx[idx % cardinal._FILL_STEP != 0]
        got = cardinal._mq_log_slots(k, 2 * q, q)[idx]
        direct = mq.log_kernel_fourier(k, TestSymbolFold.slots(q, 2)[idx])
        with mpmath.workdps(30):
            a, c, nu = mpmath.mpf(k.alpha), mpmath.mpf(k.c), mpmath.mpf(k.alpha) + 0.5
            want = np.array([
                float(mpmath.log(
                    mpmath.sqrt(2 * mpmath.pi) * 2 ** (1 + a) / mpmath.gamma(-a)
                    * (c / x) ** nu * mpmath.besselk(nu, c * x)
                ))
                for x in (mpmath.mpf(float(xi)) for xi in TestSymbolFold.slots(q, 2)[idx])
            ])
        scale = np.finfo(float).eps * np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 2.0 * np.max(np.abs(direct - want) / scale) + 8.0

    def test_overflowing_bessel_factor_takes_the_series(self):
        # K_99.5(c |xi|) overflows on the nine smallest slots: the build
        # subtracted inf from inf (a RuntimeWarning) and raised
        # NumericalConsistencyError, and then KernelOverflowError.  K's
        # small-argument series gives those slots, and the table agrees with
        # the quadrature oracle off the integers (2.4e-15 measured).
        k = mq.multiquadric(-100.0, 2.0)
        t = mq.build_cardinal_table(k, 1e-11, 32, 64)
        idx = np.arange(1, 8 * 64, 13)
        got = t.values[32 * 64 + idx]
        assert np.max(np.abs(got - cardinal_oracle(k, idx / 64.0))) <= 1e-14


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

    def test_long_symbol_peak_memory(self):
        # tau = 39876: the whole (2 tau + 1, 64) shift grid was 156 MiB at peak.
        plan = mq.compute_tau(mq.poisson(1.5e-4), 1e-12)
        assert plan.tau == 39876
        xi = np.linspace(-math.pi, math.pi, 64)
        tracemalloc.start()
        try:
            mq.periodized_symbol(plan, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_singularity_at_zero(self):
        with pytest.raises(SingularityError):
            _symbol_terms(mq.multiquadric(-0.25, 1.0), 3, np.array([0.5, 0.0]))


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


# Ways to break a saved Poisson table: (line, header field or None, new
# text, or None to drop the line).
TABLE_CORRUPTIONS = {
    "family": (0, 2, "poissonx"), "alpha": (0, 3, "-1.0x"), "width": (0, 4, "one"),
    "eps": (0, 5, "1e-8e"), "N": (0, 6, "8.5"), "M": (0, 7, "M"), "order": (0, 8, "4,"),
    "version": (0, 1, "v2"), "value": (5, None, "0.5.1"), "missing-value": (-1, None, None),
}


def corrupt_table(path, corruption):
    line, field, text = TABLE_CORRUPTIONS[corruption]
    lines = path.read_text().splitlines()
    if text is None:
        del lines[line]
    elif field is None:
        lines[line] = text
    else:
        fields = lines[line].split()
        fields[field] = text
        lines[line] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


class TestCardinalTable:
    def test_delta_property(self):
        t = mq.build_cardinal_table(mq.poisson(1.0), 1e-16, 32, 16)
        m = t.oversample_M
        for j in range(-32, 33):
            want = 1.0 if j == 0 else 0.0
            assert abs(t.value_at_grid(j * m) - want) <= 1e-6

    @pytest.mark.parametrize("alpha", [-0.5, -0.25, -1e-300])
    def test_alpha_from_minus_half_is_unsupported(self, monkeypatch, alpha):
        # The build sampled the transform at xi = 0 and raised SingularityError.
        def transform(kern, xi):
            raise AssertionError("transform called")

        monkeypatch.setattr(cardinal, "log_kernel_fourier", transform)
        monkeypatch.setattr(cardinal, "_mq_log_slots", transform)
        with pytest.raises(UnsupportedKernelError, match="requires alpha < -1/2"):
            mq.build_cardinal_table(mq.multiquadric(alpha, 1.0), 1e-10, 8, 16)

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

    @pytest.mark.parametrize("corruption", TABLE_CORRUPTIONS)
    def test_malformed_file_is_domain_error(self, tmp_path, corruption):
        # An unknown family loaded as a multiquadric, and a field that did
        # not parse raised a bare ValueError.
        path = tmp_path / "table.txt"
        mq.save_table(mq.build_cardinal_table(mq.poisson(1.0), 1e-8, 8, 8), path)
        corrupt_table(path, corruption)
        with pytest.raises(DomainError, match="malformed cardinal-table file") as exc:
            mq.load_table(path)
        assert str(path) in str(exc.value)

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
         mq.multiquadric(-2.5, 300.0), mq.multiquadric(-0.75, 700.0), mq.poisson(1e50),
         mq.multiquadric(-1.5, 1e10), mq.multiquadric(-0.75, 1e8), mq.multiquadric(-0.75, 1e50)],
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


class TestWidthRange:
    """Every width a kernel takes: a result or a typed error, never a bare one."""

    @given(
        family=st.one_of(
            st.sampled_from(["gaussian", "poisson", -0.75, -1.5, -2.5, -3.0]),
            st.floats(-171.6, 0.0, exclude_min=True, exclude_max=True),
        ),
        log_width=st.floats(math.log10(5e-324), 308.25),
        log_eps=st.floats(math.log10(5e-324), -2.0),
    )
    @settings(max_examples=150, deadline=None)
    # A subnormal eps: 1e-2 eps in the band search, 0.5 eps in the tail
    # rule and eps / 4 in the gaussian rule underflowed to 0, whose log
    # raised a bare ValueError.
    @example(family="poisson", log_width=math.log10(3.0), log_eps=math.log10(4e-323))
    @example(family="poisson", log_width=0.0, log_eps=math.log10(5e-324))
    @example(family="gaussian", log_width=0.0, log_eps=math.log10(5e-324))
    # exp(-2 pi c) rounded to 1, and the log of 1 minus it raised.
    @example(family=-0.5, log_width=-18.0, log_eps=-2.0)
    # pi / lambda overflowed, and the gaussian's log transform was nan.
    @example(family="gaussian", log_width=-310.0, log_eps=-10.0)
    @example(family="gaussian", log_width=math.log10(5e-324), log_eps=-10.0)
    # c |xi| overflowed with a warning; c / |xi| overflowed, so the build
    # subtracted -inf from -inf; c pi overflowed in the Bessel factor's
    # asymptote, so phihat(pi) read as the gaussian's too-wide case.
    @example(family="poisson", log_width=math.log10(3e301), log_eps=-12.0)
    @example(family=-0.75, log_width=306.0, log_eps=-12.0)
    @example(family=-1.5, log_width=307.0, log_eps=-12.0)
    @example(family=-0.75, log_width=math.log10(5e307), log_eps=-12.0)
    # A band of 828157 rows: 1.7e9 slots, a bare MemoryError.
    @example(family=-1.5, log_width=-5.048698483185319, log_eps=-2.0)
    def test_result_or_typed_error(self, family, log_width, log_eps):
        # Warnings are errors (pyproject.toml), so an overflow warning fails.
        w, eps = 10.0**log_width, 10.0**log_eps
        if family == "gaussian":
            k = mq.gaussian(w)
        else:
            k = mq.poisson(w) if family == "poisson" else mq.multiquadric(family, w)
        with contextlib.suppress(MqcError):
            mq.compute_tau(k, eps)
        with contextlib.suppress(MqcError):
            mq.build_cardinal_table(k, eps, 8, 16)


class TestTooWide:
    """Multiquadric-family kernels past c = 1e300: a table, or a typed error
    that says to use a smaller c."""

    @pytest.mark.parametrize("k", [mq.poisson(3e301), mq.multiquadric(-0.75, 1e306),
                                   mq.multiquadric(-1.5, 1e307), mq.multiquadric(-2.5, 1e306),
                                   mq.multiquadric(-0.75, cardinal._MAX_WIDTH),
                                   mq.multiquadric(-2.0, cardinal._MAX_WIDTH),
                                   mq.multiquadric(-5.0, cardinal._MAX_WIDTH)])
    def test_table_near_the_sinc(self, k):
        # The symbol is phihat itself on (-pi, pi), so Lhat is the indicator
        # of it and L the sinc, up to the period's wrap.
        mq.compute_tau(k, 1e-12)
        t = mq.build_cardinal_table(k, 1e-12, 32, 16)
        delta = np.zeros(65)
        delta[32] = 1.0
        assert np.max(np.abs(t.values[::16] - delta)) <= 1e-15
        x = np.arange(-32 * 16, 32 * 16 + 1) / 16
        assert np.max(np.abs(t.values - np.sinc(x))) < 1e-2

    @pytest.mark.parametrize("k", [mq.multiquadric(-0.75, 5e307), mq.poisson(1.7e308),
                                   mq.multiquadric(-1.5, np.nextafter(cardinal._MAX_WIDTH, np.inf))])
    def test_past_the_widest_c(self, k):
        for call in (lambda: mq.compute_tau(k, 1e-12),
                     lambda: mq.build_cardinal_table(k, 1e-12, 32, 16)):
            with pytest.raises(UnsupportedKernelError, match="use a smaller c"):
                call()


class TestDeltaResidual:
    """Tables over the benchmark's table-build ranges, with c down to 0.1."""

    WIDE = (24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60, 64)
    NARROW = (16, 18, 20, 24, 25, 27, 30, 32)

    @given(
        family=st.sampled_from(["poisson", "gaussian", -0.75, -1.5, -2.5]),
        c=st.floats(0.1, 4.0),
        log_eps=st.floats(-12.0, -10.0),
        log_n=st.floats(math.log2(32), math.log2(1024)),
        pick=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_residual_at_rounding(self, family, c, log_eps, log_n, pick):
        # The symbol holds every shift above 2^-60 of phihat(pi), and the
        # spectrum past pi M is summed back into the table's band, so
        # L(j) = delta_0j to rounding, whatever eps.  The tau-truncated
        # symbol left up to 3.35e-12 (alpha = -1.5).
        wide = family in ("poisson", "gaussian")
        ms = self.WIDE if wide else self.NARROW
        n, m = int(2.0 ** (log_n if wide else min(log_n, 8.0))), ms[pick % len(ms)]
        if family == "gaussian":
            k = mq.gaussian(c / 4.0)
        else:
            k = mq.poisson(c) if family == "poisson" else mq.multiquadric(family, c)
        try:
            t = mq.build_cardinal_table(k, 10.0**log_eps, n, m)
        except BandwidthError:
            return
        delta = np.zeros(2 * n + 1)
        delta[n] = 1.0
        assert np.max(np.abs(t.values[::m] - delta)) <= 1e-13


def fold(flat, p):
    """The symbol of :func:`_pair_slots` for flat slots of any length,
    padded with zeros to whole rows of p."""
    head = np.zeros(-(-flat.size // p) * p)
    head[: flat.size] = flat
    return _pair_slots(head.reshape(-1, p))[2]


def scatter(flat, p):
    """The even sequence on the integers whose slots 0, 1, ... are ``flat``,
    each slot i of either sign added onto i mod p."""
    full = np.zeros(p)
    np.add.at(full, np.arange(flat.size) % p, flat)
    np.add.at(full, -np.arange(1, flat.size) % p, flat[1:])
    return full


class TestTableTransform:
    """The table build's spectrum layout and its pruned four-step inverse FFT."""

    @staticmethod
    def check_ifft(head, m):
        q = head.shape[1]
        p = m * q
        want = (m * np.fft.ifft(scatter(head.ravel(), p))).reshape(q, m).T[: m // 2 + 1]
        got = _ifft_band(*_pair_slots(head)[:2], q, m, q // 2 - 2)
        # Entry [t, j] holds output j M + t, for rows t <= M/2; L is real.
        assert got.dtype == float and got.shape == (m // 2 + 1, q)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("m, q", [(4, 16), (5, 32), (6, 16), (7, 64), (24, 2048), (64, 4096)])
    def test_ifft_even_matches_numpy(self, m, q):
        # Every row count from 1 to M + 2.  Past M//2 rows the mirrors land
        # in filled rows, and slot p/2 takes both slot p/2 and slot -p/2;
        # past M rows the column step sums rows r and r - M onto one row.
        rng = np.random.default_rng(m * q)
        for rows in range(1, m + 3):
            self.check_ifft(rng.standard_normal((rows, q)), m)

    @given(
        m=st.integers(4, 70),
        log_q=st.integers(2, 12),
        rows=st.integers(1, 72),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=4, log_q=4, rows=6, seed=0)
    @example(m=5, log_q=5, rows=7, seed=0)
    @example(m=6, log_q=4, rows=8, seed=0)
    @example(m=7, log_q=6, rows=9, seed=0)
    @example(m=24, log_q=11, rows=26, seed=0)
    @example(m=64, log_q=12, rows=66, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_ifft_even_property(self, m, log_q, rows, seed):
        # Odd and even M, Q from 4 to 4096 and 1 to M + 2 rows; the
        # examples are the cases above at M + 2 rows.
        assume(rows <= m + 2)
        self.check_ifft(np.random.default_rng(seed).standard_normal((rows, 1 << log_q)), m)

    @pytest.mark.parametrize("m", [5, 6])
    def test_even_spectrum_layout(self, m):
        # Flat slots over about 2.5 periods p, each at frequencies +xi and
        # -xi, summed into the slots they land on mod p.
        q = 16
        p = m * q
        flat = np.random.default_rng(p).standard_normal(5 * p // 2)
        full = scatter(flat, p)
        spec = fold(flat, p)
        assert spec.shape == (p // 2 + 1,) and spec.dtype == float
        np.testing.assert_allclose(spec, full[: p // 2 + 1], rtol=1e-13, atol=1e-13)
        short = flat[: p // 2 - 3]
        assert np.array_equal(fold(short, p), np.append(short, np.zeros(4)))
        head = np.zeros(-(-flat.size // q) * q)
        head[: flat.size] = flat
        want = (m * np.fft.ifft(full)).reshape(q, m).T[: m // 2 + 1]
        got = _ifft_band(*_pair_slots(head.reshape(-1, q))[:2], q, m, q // 2 - 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @given(
        half=st.integers(1, 40),
        size=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_periodize_matches_scatter(self, half, size, seed):
        # Slot i of f, for i of both signs, scattered onto i mod period.
        period = 2 * half
        flat = np.random.default_rng(seed).standard_normal(size)
        got = fold(flat, period)
        assert got.shape == (half + 1,)
        np.testing.assert_allclose(got, scatter(flat, period)[: half + 1], rtol=0, atol=1e-13 * np.abs(flat).sum())

    @pytest.mark.parametrize("residue", [0, 5, 1024])
    def test_nan_spectrum_is_consistency_error(self, monkeypatch, residue):
        # A NaN in one symbol residue (Q = 2048 here) reaches every row of
        # that residue in the pairs the inverse FFT reads.
        pair = cardinal._pair_slots

        def nan_pair(head):
            plus, minus, symbol = pair(head)
            symbol[residue] = math.nan
            return plus, minus, symbol

        monkeypatch.setattr(cardinal, "_pair_slots", nan_pair)
        with pytest.raises(NumericalConsistencyError):
            mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 32, 16)
        monkeypatch.undo()
        # A NaN in one pair value, in row 1 of the residue's minus, with a
        # finite symbol: the transform checks the pairs, not its output.
        ifft = cardinal._ifft_band

        def nan_ifft(plus, minus, q, m, n):
            minus[1, residue] = math.nan
            return ifft(plus, minus, q, m, n)

        monkeypatch.setattr(cardinal, "_ifft_band", nan_ifft)
        with pytest.raises(NumericalConsistencyError, match="not finite"):
            mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 32, 16)

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

    @staticmethod
    def traced_build():
        """(traced peak bytes, table) of a second poisson c = 1, M = 4096 build."""
        k = mq.poisson(1.0)
        mq.build_cardinal_table(k, 1e-10, 32, 4096)
        tracemalloc.start()
        try:
            t = mq.build_cardinal_table(k, 1e-10, 32, 4096)
            return tracemalloc.get_traced_memory()[1], t
        finally:
            tracemalloc.stop()

    def test_build_memory_is_bounded_by_the_table(self):
        # Every transform row at once was 65.5 MiB of traced peak here, for
        # a 2.0 MiB table.  In blocks of rows it is 3.11 MiB: the table, the
        # kept columns and a block.
        peak, t = self.traced_build()
        assert peak < 2.5 * t.values.nbytes + cardinal._IFFT_BLOCK_BYTES

    def test_read_out_holds_no_second_table(self):
        # The table was a concatenation of its half-grid: 4.11 MiB of peak,
        # with the grid and the table both held.  Read out in place, 3.11.
        peak, t = self.traced_build()
        assert peak < 1.6 * t.values.nbytes + cardinal._IFFT_BLOCK_BYTES

    @pytest.mark.parametrize("n, m", [(1000, 64), (32, 61)])
    def test_blocks_leave_the_table_unchanged(self, monkeypatch, n, m):
        # Blocks of two or three rows, each with its own factors, and one
        # block of every row give the same bits.
        k = mq.poisson(1.5)
        want = mq.build_cardinal_table(k, 1e-11, n, m).values
        for size in (1, 1 << 30):
            monkeypatch.setattr(cardinal, "_IFFT_BLOCK_BYTES", size)
            assert np.array_equal(mq.build_cardinal_table(k, 1e-11, n, m).values, want)

    def test_spectrum_past_the_slot_cap_is_bandwidth_error(self):
        # The band search finds 828157 rows; their 1.7e9 slots raised a bare
        # MemoryError before anything was evaluated.
        k = mq.multiquadric(-1.5, 10.0**-5.048698483185319)
        with pytest.raises(BandwidthError, match="828157 rows of 2048 slots"):
            mq.build_cardinal_table(k, 1e-2, 8, 16)

    def test_oversampling_past_band_reach_is_domain_error(self):
        # The band search reads at most 2^20 rows; at M = 2^22 its probe was
        # empty and the build said the transform "decays too slowly".
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="M <= 2097153"):
                mq.build_cardinal_table(mq.poisson(1.0), 1e-10, 4, 2**22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


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
        # The reference evaluates every spectrum row and folds the symbol
        # shifts up to twice the band.
        band = cardinal._spectrum_band
        wide = lambda k_, eps_, m_: max(2 * band(k_, eps_, m_), m_ // 2 + 1)
        with mock.patch.object(cardinal, "_spectrum_band", wide):
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
        seen = []
        pair = cardinal._pair_slots

        def spy_pair(head):
            seen.append(head.shape)
            return pair(head)

        monkeypatch.setattr(cardinal, "_pair_slots", spy_pair)
        mq.build_cardinal_table(k, 1e-12, 32, m)
        # The first call pairs the spectrum and sums the symbol: band rows
        # of Q slots.
        band, q = seen[0]
        share = mq.log_kernel_fourier(k, TWO_PI * np.arange(1, band + 1)) - mq.log_kernel_fourier(
            k, math.pi
        )
        assert share[-1] < math.log(2.0**-60 / m) <= share[:-1].min(initial=math.inf)
        assert band < m // 2 + 1
        plan = mq.compute_tau(k, 1e-12)
        xi = TWO_PI * (np.arange(band, m // 2 + 1)[:, None] + np.arange(q) / q)
        assert np.max(mq.cardinal_hat(plan, xi)) <= 2.0**-60 / m

    @staticmethod
    def count_transform_values(monkeypatch, k, n, m):
        """How many values of log phihat the table build evaluates."""
        count = [0]

        def counting(kern, xi):
            count[0] += np.size(xi)
            return mq.log_kernel_fourier(kern, xi)

        monkeypatch.setattr(cardinal, "log_kernel_fourier", counting)
        mq.build_cardinal_table(k, 1e-12, n, m)
        return count[0]

    @pytest.mark.parametrize(
        "k, n, m, most",
        [(mq.poisson(3.0), 64, 48, 6176), (mq.gaussian(0.5), 64, 48, 4142),
         (mq.multiquadric(-0.75, 2.0), 64, 24, 10264), (mq.multiquadric(-2.5, 2.0), 64, 24, 12624)],
    )
    def test_transform_evaluation_count(self, monkeypatch, k, n, m, most):
        # Evaluating every row took 49160, 49174, 24588 and 50541 values.
        # The multiquadric bounds are those of every slot below the band.
        assert 0 < self.count_transform_values(monkeypatch, k, n, m) <= 1.05 * most

    @pytest.mark.parametrize("k", [mq.multiquadric(-0.75, 2.0), mq.multiquadric(-2.5, 2.0)])
    def test_filled_transform_evaluation_count(self, monkeypatch, k):
        # The slot helper's exact prefix and anchors, every 8th slot to 1920
        # and every 32nd past it, and the one band-search call: 959 values,
        # against 10264 and 12624 on every slot below the band.  Anchors
        # every 8th slot throughout and a two-call band search took 1739.
        assert 0 < self.count_transform_values(monkeypatch, k, 64, 24) <= 1.05 * 959

    @pytest.mark.parametrize(
        "k, eps, m, calls",
        [(mq.poisson(3.0), 1e-12, 48, 1), (mq.multiquadric(-2.5, 0.22), 5e-11, 48, 2)],
    )
    def test_band_search_calls(self, monkeypatch, k, eps, m, calls):
        # One transform call reads rows 0 .. M//2, the edge and the probes;
        # a second one only reads the rows past M//2 of a band that passes
        # it (the kernel of test_rows_past_half_are_evaluated).
        seen = []
        shares = cardinal._log_shares

        def spy(kern, xi):
            seen.append(xi.size)
            return shares(kern, xi)

        monkeypatch.setattr(cardinal, "_log_shares", spy)
        mq.build_cardinal_table(k, eps, 32, m)
        assert len(seen) == calls
        assert (cardinal._spectrum_band(k, eps, m) > m // 2) == (calls == 2)

    @pytest.mark.parametrize(
        "k, eps, n, m, rows",
        # A narrow multiquadric and the narrow gaussian of the operating-range
        # sweep; reading every row up to the band took 74 and 27.5 MiB.
        [(mq.multiquadric(-1.5, 10.0**-5.048698483185319), 1e-2, 8, 16, 828157),
         (mq.gaussian(2.9e10), 6.2e-3, 14, 45, 365221)],
    )
    def test_band_past_the_slot_budget_is_bisected(self, k, eps, n, m, rows):
        tracemalloc.start()
        try:
            with pytest.raises(BandwidthError, match=f"{rows} rows of 2048 slots"):
                mq.build_cardinal_table(k, eps, n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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
