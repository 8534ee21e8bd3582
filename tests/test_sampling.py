"""Node-sequence, frame-bound, jitter, and noise tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqcardinal as mq
from mqcardinal.errors import (
    BudgetExceededError,
    ConfigError,
    DomainError,
    JitterTooLargeError,
    SeparationError,
)
from mqcardinal.sampling import (
    ALTERNATING,
    FINITE_SUPPORT,
    GAUSSIAN_RESCALED,
    SINGLE_SPIKE,
    UNIFORM_RANDOM,
    jitter_offsets,
)


class TestNodeSequence:
    def test_integers(self):
        ns = mq.NodeSequence.integers(4)
        np.testing.assert_array_equal(ns.nodes, np.arange(-4, 5))
        assert ns.separation == 1.0
        assert ns.half_count == 4

    def test_validation(self):
        with pytest.raises(DomainError):
            mq.NodeSequence(np.array([0.0, 1.0]))  # even length
        with pytest.raises(DomainError):
            mq.NodeSequence(np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_nodes(self, bad):
        # A NaN node passed the ordering check; estimate_frame_bounds then
        # leaked LinAlgError and kadec_margin returned nan.
        for nodes in ([0.0, bad, 1.0], [0.0, 1.0, bad], [bad, 0.0, 1.0], [bad]):
            with pytest.raises(DomainError, match="finite"):
                mq.NodeSequence(np.array(nodes))

    def test_file_round_trip(self, tmp_path):
        ns = mq.NodeSequence(np.array([-1.25, 0.0, 2.5]))
        path = tmp_path / "nodes.txt"
        ns.save(path)
        back = mq.NodeSequence.from_file(path)
        np.testing.assert_array_equal(back.nodes, ns.nodes)

    def test_file_errors_name_the_line(self, tmp_path):
        two = tmp_path / "two.txt"
        two.write_text("# nodes\n-1.0\n0.0 0.5\n1.0\n")
        with pytest.raises(ConfigError, match=r"two\.txt:3: expected 1 value"):
            mq.NodeSequence.from_file(two)
        word = tmp_path / "word.txt"
        word.write_text("-1.0\n0.0\nnone\n")
        with pytest.raises(ConfigError, match=r"word\.txt:3: "):
            mq.NodeSequence.from_file(word)


class TestKadecMargin:
    def test_integers_zero(self):
        assert mq.kadec_margin(mq.NodeSequence.integers(8)) == 0.0

    def test_alternating(self):
        n = 8
        idx = np.arange(-n, n + 1)
        nodes = idx + 0.2 * (-1.0) ** idx
        assert mq.kadec_margin(mq.NodeSequence(nodes)) == pytest.approx(0.2)

    def test_random_jitter_bounded(self):
        ns = mq.apply_jitter(mq.NodeSequence.integers(16), mq.JitterSpec(0.1, seed=3))
        assert mq.kadec_margin(ns) <= 0.1


class TestFrameBoundArithmetic:
    def test_budget_reference_value(self):
        assert mq.perturbation_budget(mq.FrameBounds(1.0, 1.0)) == pytest.approx(
            math.log(2.0) / math.pi, abs=1e-12
        )

    def test_budget_scale_free(self):
        assert mq.perturbation_budget(mq.FrameBounds(7.0, 7.0)) == pytest.approx(
            math.log(2.0) / math.pi, abs=1e-12
        )
        assert mq.perturbation_budget(mq.FrameBounds(1.0, 4.0)) == pytest.approx(
            math.log(1.5) / math.pi, abs=1e-12
        )

    def test_identity_at_zero(self):
        fb = mq.FrameBounds(0.8, 1.3)
        out = mq.perturbed_frame_bounds(fb, 0.0)
        assert out.A == fb.A and out.B == fb.B

    def test_substitution(self):
        root_c = math.exp(0.1 * math.pi) - 1.0
        out = mq.perturbed_frame_bounds(mq.FrameBounds(1.0, 1.0), 0.1)
        assert out.A == pytest.approx((1.0 - root_c) ** 2, rel=1e-14)
        assert out.B == pytest.approx((1.0 + root_c) ** 2, rel=1e-14)

    @given(L=st.floats(1e-4, 0.2))
    @settings(max_examples=50, deadline=None)
    def test_bounds_widen(self, L):
        fb = mq.FrameBounds(1.0, 1.0)
        if L >= mq.perturbation_budget(fb):
            return
        out = mq.perturbed_frame_bounds(fb, L)
        assert out.A < fb.A
        assert out.B > fb.B

    def test_budget_exceeded(self):
        fb = mq.FrameBounds(1.0, 1.0)
        budget = mq.perturbation_budget(fb)
        with pytest.raises(BudgetExceededError):
            mq.perturbed_frame_bounds(fb, budget)

    def test_degenerates_near_budget(self):
        fb = mq.FrameBounds(1.0, 1.0)
        out = mq.perturbed_frame_bounds(fb, 0.99 * mq.perturbation_budget(fb))
        assert out.A < 0.05 * fb.A

    def test_framebounds_validation(self):
        with pytest.raises(DomainError):
            mq.FrameBounds(2.0, 1.0)
        with pytest.raises(DomainError):
            mq.FrameBounds(0.0, 1.0)


class TestEstimateFrameBounds:
    def test_integer_lattice_near_parseval(self):
        fb = mq.estimate_frame_bounds(mq.NodeSequence.integers(64))
        assert abs(fb.A - 1.0) < 0.05
        assert abs(fb.B - 1.0) < 0.05
        assert fb.B >= fb.A

    def test_jitter_widens_estimate(self):
        devs = []
        for L in (0.05, 0.1, 0.2):
            ns = mq.apply_jitter(mq.NodeSequence.integers(32), mq.JitterSpec(L, pattern=ALTERNATING))
            fb = mq.estimate_frame_bounds(ns)
            devs.append(max(abs(fb.A - 1.0), abs(fb.B - 1.0)))
        assert devs[0] < devs[1] < devs[2]

    def test_near_duplicate_nodes(self):
        nodes = np.array([-1.0, 0.0, 1e-3, 1.0, 2.0])
        fb = mq.estimate_frame_bounds(mq.NodeSequence(nodes))
        assert fb.A < 0.1

    def test_separation_error(self):
        nodes = np.array([0.0, 1e-12, 1.0])
        with pytest.raises(SeparationError):
            mq.estimate_frame_bounds(mq.NodeSequence(nodes))

    def test_band_domain(self):
        with pytest.raises(DomainError):
            mq.estimate_frame_bounds(mq.NodeSequence.integers(4), band=4.0)


class TestApplyJitter:
    def test_zero_is_identity(self):
        ns = mq.NodeSequence.integers(8)
        out = mq.apply_jitter(ns, mq.JitterSpec(0.0, seed=1))
        np.testing.assert_array_equal(out.nodes, ns.nodes)

    def test_alternating_margin(self):
        ns = mq.apply_jitter(mq.NodeSequence.integers(8), mq.JitterSpec(0.2, pattern=ALTERNATING))
        assert mq.kadec_margin(ns) == pytest.approx(0.2)

    def test_finite_support_bit_identity(self):
        ns = mq.NodeSequence.integers(8)
        spec = mq.JitterSpec(0.1, pattern=FINITE_SUPPORT, support=(-1, 0, 1))
        out = mq.apply_jitter(ns, spec)
        moved = np.abs(out.nodes - ns.nodes) > 0
        assert moved.sum() == 3
        untouched = ~moved
        assert np.all(out.nodes[untouched] == ns.nodes[untouched])

    def test_determinism(self):
        ns = mq.NodeSequence.integers(16)
        a = mq.apply_jitter(ns, mq.JitterSpec(0.2, seed=7))
        b = mq.apply_jitter(ns, mq.JitterSpec(0.2, seed=7))
        np.testing.assert_array_equal(a.nodes, b.nodes)

    def test_too_large(self):
        with pytest.raises(JitterTooLargeError):
            mq.apply_jitter(mq.NodeSequence.integers(8), mq.JitterSpec(0.6, pattern=ALTERNATING))

    @given(L=st.floats(0.0, 0.24), seed=st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_kadec_hypothesis_preserved(self, L, seed):
        ns = mq.apply_jitter(mq.NodeSequence.integers(8), mq.JitterSpec(L, seed=seed))
        assert mq.kadec_margin(ns) < 0.25

    def test_offsets_bounded(self):
        eps = jitter_offsets(mq.JitterSpec(0.15, seed=2, pattern=UNIFORM_RANDOM), 33)
        assert np.max(np.abs(eps)) <= 0.15

    def test_bad_pattern(self):
        with pytest.raises(DomainError):
            mq.JitterSpec(0.1, pattern="sawtooth")


class TestApplyNoise:
    def test_zero_delta_identity(self):
        vals = np.linspace(0, 1, 9)
        out = mq.apply_noise(vals, mq.NoiseSpec(0.0, seed=1))
        np.testing.assert_array_equal(out, vals)

    @given(
        delta=st.floats(1e-8, 10.0),
        seed=st.integers(0, 2**32),
        dist=st.sampled_from([GAUSSIAN_RESCALED, SINGLE_SPIKE]),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_l2_norm(self, delta, seed, dist):
        vals = np.zeros(33)
        out = mq.apply_noise(vals, mq.NoiseSpec(delta, seed=seed, distribution=dist))
        assert np.linalg.norm(out - vals) == pytest.approx(delta, rel=1e-12)

    def test_determinism(self):
        vals = np.ones(17)
        spec = mq.NoiseSpec(1e-3, seed=42)
        np.testing.assert_array_equal(mq.apply_noise(vals, spec), mq.apply_noise(vals, spec))

    def test_single_spike_shape(self):
        out = mq.apply_noise(np.zeros(9), mq.NoiseSpec(0.5, seed=0, distribution=SINGLE_SPIKE))
        assert np.count_nonzero(out) == 1
        assert out.max() == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            mq.NoiseSpec(-1.0)
        with pytest.raises(DomainError):
            mq.NoiseSpec(1.0, distribution="uniform")
