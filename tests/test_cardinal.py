"""Truncated periodization and cardinal-table tests.

Oracles: the closed geometric sum for the Poisson symbol at lattice
frequencies, and a brute-force long periodization (hundreds of terms) for
generic parameters.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import mqcardinal as mq
from mqcardinal.cardinal import (
    TWO_PI,
    _even_spectrum,
    _fold_symbol,
    _ifft_even,
    _log_fold_symbol,
    _symbol_rows,
    _symbol_terms,
    periodized_symbol_lower_bound,
    reduce_frequency,
)
from mqcardinal.errors import (
    BandwidthError,
    DomainError,
    NumericalError,
    OutOfRangeError,
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

    def test_epsilon_domain(self):
        for bad in (0.0, 1.0, 2.0, -1e-3):
            with pytest.raises(DomainError):
                mq.compute_tau(mq.poisson(1.0), bad)

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
        # cosh(1000 pi) overflows; the result is a table or a typed error.
        k = mq.multiquadric(-0.75, 1000.0)
        assert mq.compute_tau(k, 1e-11).tau >= 1
        try:
            t = mq.build_cardinal_table(k, 1e-11, 32, 16)
        except NumericalError:
            return
        assert np.all(np.isfinite(t.values))


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
        spec = _even_spectrum(m, q, f, mq.kernel_fourier_at_zero(k)).real
        got = _fold_symbol(_symbol_rows(spec, plan.tau, f))
        want = _symbol_terms(plan.kernel, plan.tau, self.residues(q))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_rows_past_half_are_evaluated(self):
        f = lambda xi: 1.0 + xi
        spec = _even_spectrum(6, 8, f, at_zero=1.0).real
        rows = _symbol_rows(spec, 4, f)
        assert rows.shape == (5, 8)
        r, s = np.mgrid[0:5, 0:8]
        np.testing.assert_allclose(rows, 1.0 + TWO_PI * (r + s / 8.0), rtol=1e-15)

    @pytest.mark.parametrize("lam", [2.0, 0.05, 1.0 / 256.0])
    @pytest.mark.parametrize("m", [5, 16])
    def test_gaussian_log_fold_matches_logsumexp(self, lam, m):
        plan = mq.compute_tau(mq.gaussian(lam), 1e-16)
        q = 128
        f = lambda xi: -xi * xi / (4.0 * lam)
        spec = _even_spectrum(m, q, f, 0.0).real
        got = _log_fold_symbol(_symbol_rows(spec, plan.tau, f))
        shifts = TWO_PI * np.arange(-plan.tau, plan.tau + 1)
        expo = f(self.residues(q)[:, None] + shifts[None, :])
        want = special.logsumexp(expo, axis=1)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-13)


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


class TestTableTransform:
    """The table build's spectrum layout and its four-step inverse FFT."""

    @pytest.mark.parametrize("m, q", [(4, 16), (5, 32), (24, 2048), (64, 4096)])
    def test_ifft_even_matches_numpy(self, m, q):
        p = m * q
        rng = np.random.default_rng(p)
        half = rng.standard_normal(p // 2 + 1) + 1j * rng.standard_normal(p // 2 + 1)
        flat = np.concatenate((half, half[1 : (p + 1) // 2][::-1]))
        want = (m * np.fft.ifft(flat)).reshape(q, m).T[: m // 2 + 1]
        got = _ifft_even(flat.reshape(m, q).copy())
        # Entry [t, j] holds output j M + t, for rows t <= M/2.
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_ifft_even_writes_into_its_argument(self):
        a = np.ones((8, 64), dtype=complex)
        assert np.shares_memory(_ifft_even(a), a)

    @pytest.mark.parametrize("m", [5, 6])
    def test_even_spectrum_layout(self, m):
        q = 16
        spec = _even_spectrum(m, q, lambda xi: 1.0 + xi, at_zero=-1.0)
        flat = spec.reshape(-1)
        p = m * q
        assert spec.shape == (m, q)
        assert np.all(flat.imag == 0.0)
        assert flat.real[0] == -1.0
        i = np.arange(1, p // 2 + 1)
        np.testing.assert_array_equal(flat.real[i], 1.0 + i * (TWO_PI / q))
        np.testing.assert_array_equal(flat.real[p - i], flat.real[i])
        # The transform runs in place on the padded rows the spectrum uses.
        want = (m * np.fft.ifft(flat)).reshape(q, m).T[: m // 2 + 1]
        got = _ifft_even(spec)
        assert np.shares_memory(got, spec)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
