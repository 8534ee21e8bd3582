"""Uniform (cardinal-series) and Gram-system interpolant tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqcardinal as mq
from mqcardinal.errors import (
    ConfigError,
    CoverageError,
    DomainError,
    GridMismatchError,
    IllConditionedError,
)


@pytest.fixture(scope="module")
def poisson_table():
    return mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 32, 16)


class TestSampleSet:
    def test_validation(self):
        with pytest.raises(DomainError):
            mq.SampleSet(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(DomainError):
            mq.SampleSet(np.array([1.0, 0.0]), np.zeros(2))
        with pytest.raises(DomainError):
            mq.SampleSet(np.array([]), np.array([]))
        with pytest.raises(DomainError):
            mq.SampleSet(np.zeros(3), np.zeros(4))

    def test_separation(self):
        s = mq.SampleSet(np.array([0.0, 0.25, 1.0]), np.zeros(3))
        assert s.separation == 0.25

    def test_from_file(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("# header comment\n0.5 2.0\n-0.5 1.0  # inline\n\n0.0 3.0\n")
        s = mq.SampleSet.from_file(path)
        np.testing.assert_array_equal(s.nodes, [-0.5, 0.0, 0.5])
        np.testing.assert_array_equal(s.values, [1.0, 3.0, 2.0])

    def test_from_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 1.0\n0.5\n")
        with pytest.raises(ConfigError, match="2"):
            mq.SampleSet.from_file(bad)
        nonnum = tmp_path / "nonnum.txt"
        nonnum.write_text("zero one\n")
        with pytest.raises(ConfigError):
            mq.SampleSet.from_file(nonnum)
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(ConfigError):
            mq.SampleSet.from_file(empty)


class TestFitUniform:
    def test_reproduces_samples_at_nodes(self, poisson_table):
        n = 16
        nodes = np.arange(-n, n + 1) / n
        values = np.sin(nodes)
        u = mq.fit_uniform(mq.SampleSet(nodes, values), mq.poisson(1.0), poisson_table)
        got = mq.eval_uniform(u, nodes)
        np.testing.assert_allclose(got, values, atol=1e-10)

    def test_grid_mismatch(self, poisson_table):
        k = mq.poisson(1.0)
        with pytest.raises(GridMismatchError):
            mq.fit_uniform(
                mq.SampleSet(np.array([-1.0, 0.1, 1.0]), np.zeros(3)), k, poisson_table
            )
        with pytest.raises(GridMismatchError):
            mq.fit_uniform(
                mq.SampleSet(np.array([-1.0, 0.0, 0.5, 1.0]), np.zeros(4)), k, poisson_table
            )

    def test_coverage_error(self, poisson_table):
        n = 20  # table half-width 32 < 2 * 20
        nodes = np.arange(-n, n + 1) / n
        with pytest.raises(CoverageError):
            mq.fit_uniform(mq.SampleSet(nodes, np.zeros(nodes.size)), mq.poisson(1.0), poisson_table)

    def test_wrong_kernel(self, poisson_table):
        nodes = np.arange(-4, 5) / 4
        with pytest.raises(DomainError):
            mq.fit_uniform(mq.SampleSet(nodes, np.zeros(9)), mq.poisson(2.0), poisson_table)


class TestScaledEval:
    def test_dual_path_identity(self, poisson_table):
        # Direct series evaluation against the dilation-identity route.
        n = 8
        nodes = np.arange(-n, n + 1) / n
        values = np.cos(2.0 * nodes) + 0.3 * nodes
        u = mq.fit_uniform(mq.SampleSet(nodes, values), mq.poisson(1.0), poisson_table)
        probes = np.linspace(-1.0, 1.0, 100)
        direct = mq.eval_uniform(u, probes)
        via_identity = mq.scaled_eval(u, probes)
        assert np.max(np.abs(direct - via_identity)) <= 1e-8

    def test_scalar_round_trip(self, poisson_table):
        n = 8
        nodes = np.arange(-n, n + 1) / n
        u = mq.fit_uniform(mq.SampleSet(nodes, nodes**2), mq.poisson(1.0), poisson_table)
        assert mq.scaled_eval(u, 0.3) == pytest.approx(mq.eval_uniform(u, 0.3), abs=1e-12)


def _dense_series(u, x):
    """Reference series: sum_j c_j L(N x - j) term by term through
    eval_cardinal, with the terms past the table's half-width dropped."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = u.N * x[:, None] - np.arange(-u.half_count, u.half_count + 1)[None, :]
    inside = np.abs(d) <= u.table.half_width_N
    terms = np.zeros_like(d)
    terms[inside] = mq.eval_cardinal(u.table, d[inside])
    return terms @ u.coeffs


@pytest.fixture(scope="module")
def edge_tables(poisson_table):
    linear = mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 32, 16, interp_order=2)
    gauss = mq.build_cardinal_table(mq.gaussian(1.0), 1e-12, 16, 8)
    return [poisson_table, linear, gauss]


class TestSeriesEdgeRule:
    @given(which=st.integers(0, 2), J=st.integers(0, 40), N=st.integers(1, 40),
           reach=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_series(self, edge_tables, which, J, N, reach, seed):
        t = edge_tables[which]
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(2 * J + 1)
        u = mq.cardinal_series(coeffs, N, t)
        x = rng.uniform(-reach, reach, 48)
        total = float(np.sum(np.abs(coeffs)))
        want = _dense_series(u, x)
        # Inside the table every term's stencil lies in range: the two agree
        # up to rounding.  Near its ends they differ by the table's end values.
        tol = 1e-13 * total
        if t.half_width_N < N * reach + J + 2.0 / t.oversample_M:
            tail = max(np.max(np.abs(t.values[:4])), np.max(np.abs(t.values[-4:])))
            tol += 2.0 * tail * total
        for evaluate in (mq.eval_uniform, mq.scaled_eval):
            got = evaluate(u, x)
            assert got.shape == x.shape
            assert np.max(np.abs(got - want)) <= tol
            scalar = evaluate(u, float(x[0]))
            assert isinstance(scalar, float)
            assert abs(scalar - want[0]) <= tol

        # Probes past every term, and non-finite probes, evaluate to 0.
        far = (J + t.half_width_N + 1.0) / N
        beyond = np.array([far, -far, 2.0 * far, np.nan, np.inf, -np.inf])
        for evaluate in (mq.eval_uniform, mq.scaled_eval):
            np.testing.assert_array_equal(evaluate(u, beyond), 0.0)
            assert evaluate(u, np.nan) == 0.0
        np.testing.assert_array_equal(_dense_series(u, beyond), 0.0)


class TestGram:
    def test_small_system_against_dense_solve(self):
        k = mq.poisson(1.0)
        nodes = np.array([-1.5, -0.3, 0.2, 0.9, 2.0])
        y = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        g = mq.fit_gram(mq.SampleSet(nodes, y), k)
        mat = mq.kernel_spatial(k, nodes[:, None] - nodes[None, :])
        np.testing.assert_allclose(g.a, np.linalg.solve(mat, y), rtol=1e-9)
        np.testing.assert_allclose(mq.eval_gram(g, nodes), y, atol=1e-9)

    def test_alpha_out_of_range(self):
        s = mq.SampleSet(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            mq.fit_gram(s, mq.multiquadric(-0.4, 1.0))

    def test_gaussian_allowed(self):
        s = mq.SampleSet(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        g = mq.fit_gram(s, mq.gaussian(1.0))
        np.testing.assert_allclose(mq.eval_gram(g, s.nodes), s.values, atol=1e-10)

    def test_ill_conditioned_raises(self):
        # A flat gaussian on a fine grid is singular to working precision.
        n = 24
        nodes = np.arange(-n, n + 1) / n
        s = mq.SampleSet(nodes, np.sin(nodes))
        with pytest.raises(IllConditionedError) as exc:
            mq.fit_gram(s, mq.gaussian(1.0))
        assert exc.value.cond_estimate > 1e12 or math.isnan(exc.value.cond_estimate)

    def test_exactly_singular_is_ill_conditioned(self):
        # exp(-1e-20 d^2) rounds to 1 for every node difference d here: a
        # matrix of ones, whose LU has exact zero pivots.
        s = mq.SampleSet(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(IllConditionedError) as exc:
            mq.fit_gram(s, mq.gaussian(1e-20))
        assert exc.value.cond_estimate == math.inf
        assert mq.gram_condition(s.nodes, mq.gaussian(1e-20)) == math.inf

    @given(shift=st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_translation_invariance(self, shift):
        # Gram coefficients depend only on node differences.
        k = mq.poisson(1.0)
        nodes = np.array([-1.0, 0.0, 0.7, 1.4])
        y = np.array([0.5, 1.0, -1.0, 2.0])
        a0 = mq.fit_gram(mq.SampleSet(nodes, y), k).a
        a1 = mq.fit_gram(mq.SampleSet(nodes + shift, y), k).a
        np.testing.assert_allclose(a0, a1, rtol=1e-8, atol=1e-10)


class TestGramCondition:
    def test_single_node(self):
        assert mq.gram_condition(np.array([0.0]), mq.poisson(1.0)) == 1.0

    def test_against_dense_oracle(self):
        k = mq.poisson(1.0)
        nodes = np.arange(-8, 9, dtype=float)
        mat = mq.kernel_spatial(k, nodes[:, None] - nodes[None, :])
        exact = np.linalg.cond(mat)
        est = mq.gram_condition(nodes, k)
        assert 0.3 * exact <= est <= 1.05 * exact

    def test_permutation_invariant(self):
        k = mq.gaussian(1.0)
        nodes = np.array([0.1, -0.4, 0.9, -1.2, 0.5])
        a = mq.gram_condition(nodes, k)
        b = mq.gram_condition(nodes[::-1].copy(), k)
        assert a == pytest.approx(b, rel=1e-6)

    def test_growth_with_refinement(self):
        k = mq.gaussian(1.0)
        conds = [mq.gram_condition(np.arange(-n, n + 1) / n, k) for n in (2, 4, 8)]
        assert conds[1] > 10 * conds[0]
        assert conds[2] > 10 * conds[1]

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DomainError):
            mq.gram_condition(np.array([0.0, 0.0, 1.0]), mq.poisson(1.0))
