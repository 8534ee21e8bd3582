"""Uniform (cardinal-series) and Gram-system interpolant tests."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.linalg import blas, lapack

import mqcardinal as mq
from mqcardinal import interpolation
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_nodes(self, bad):
        # NaN slips past the ordering check, since comparisons with it are False.
        for nodes in ([0.0, bad, 1.0], [0.0, 1.0, bad], [bad, 0.0, 1.0], [bad]):
            with pytest.raises(DomainError, match="finite"):
                mq.SampleSet(np.array(nodes), np.zeros(len(nodes)))

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


class TestPhaseSpectrum:
    """The table's cached spectrum of its M phases."""

    @pytest.fixture()
    def table(self):
        return mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 32, 16)

    def test_computed_once_and_read_only(self, table):
        assert "phase_spectrum" not in vars(table)  # a build computes none
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.0, 1.0, 64)
        mq.eval_uniform(mq.cardinal_series(rng.standard_normal(9), 4, table), x)
        spec = vars(table)["phase_spectrum"]
        assert spec.shape[1] == table.oversample_M
        assert not spec.flags.writeable
        with pytest.raises(ValueError):
            spec[0, 0] = 0.0
        # Every series with J <= N_t / 2 reads the same array.
        for j in (0, 7, table.half_width_N // 2):
            u = mq.cardinal_series(rng.standard_normal(2 * j + 1), max(j, 1), table)
            np.testing.assert_allclose(mq.eval_uniform(u, x), _dense_series(u, x),
                                       rtol=0, atol=1e-13 * np.sum(np.abs(u.coeffs)))
            mq.scaled_eval(u, x)
            assert table.phase_spectrum is spec

    def test_long_series_leaves_the_cache_alone(self, table):
        rng = np.random.default_rng(2)
        short = mq.cardinal_series(rng.standard_normal(5), 2, table)
        mq.eval_uniform(short, 0.1)
        spec = table.phase_spectrum
        before = spec.copy()
        # J = 20 > N_t / 2 = 16, with every stencil inside the table:
        # N |x| + J + 2 / M < N_t.
        j = 20
        u = mq.cardinal_series(rng.standard_normal(2 * j + 1), j, table)
        x = rng.uniform(-0.5, 0.5, 64)
        tol = 1e-13 * np.sum(np.abs(u.coeffs))
        for evaluate in (mq.eval_uniform, mq.scaled_eval):
            np.testing.assert_allclose(evaluate(u, x), _dense_series(u, x), rtol=0, atol=tol)
        assert table.phase_spectrum is spec
        np.testing.assert_array_equal(spec, before)

    def test_round_trip_and_equality(self, table, tmp_path):
        rng = np.random.default_rng(3)
        u = mq.cardinal_series(rng.standard_normal(17), 8, table)
        x = rng.uniform(-1.0, 1.0, 32)
        same = dataclasses.replace(table)
        assert table == same
        want = mq.eval_uniform(u, x)  # caches the spectrum on table only
        assert table == same and "phase_spectrum" not in vars(same)
        path = tmp_path / "table.txt"
        mq.save_table(table, path)
        back = mq.load_table(path)
        assert "phase_spectrum" not in vars(back)
        np.testing.assert_array_equal(back.values, table.values)
        assert back.kernel == table.kernel and back.epsilon == table.epsilon
        got = mq.eval_uniform(mq.cardinal_series(u.coeffs, u.N, back), x)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(back.phase_spectrum, table.phase_spectrum)


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

    def test_kernel_overflow_is_ill_conditioned(self):
        # (0 + 1e-240)^-3 overflows on the diagonal.  No RuntimeWarning may
        # escape (pytest turns it into an error), and no bare ValueError.
        s = mq.SampleSet(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(IllConditionedError, match="not finite") as exc:
            mq.fit_gram(s, mq.multiquadric(-3.0, 1e-120))
        assert exc.value.cond_estimate == math.inf
        assert mq.gram_condition(s.nodes, mq.multiquadric(-3.0, 1e-120)) == math.inf

    def test_fit_computes_no_condition_estimate(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("condition estimate computed during the fit")

        monkeypatch.setattr(interpolation, "_power_condition", fail)
        nodes = np.arange(-8, 9) / 8.0
        g = mq.fit_gram(mq.SampleSet(nodes, np.cos(nodes)), mq.poisson(1.0))
        np.testing.assert_allclose(mq.eval_gram(g, nodes), np.cos(nodes), atol=1e-9)

    @pytest.mark.parametrize(
        "k", [mq.poisson(1.0), mq.multiquadric(-1.5, 1.0), mq.gaussian(1.0)]
    )
    def test_cond_estimate_is_gram_condition(self, k):
        nodes = np.arange(-6, 7) / 4.0
        g = mq.fit_gram(mq.SampleSet(nodes, np.sin(nodes)), k)
        assert "cond_estimate" not in vars(g)  # nothing computed yet
        want = mq.gram_condition(nodes, k)
        assert g.cond_estimate == want and math.isfinite(want)
        assert vars(g)["cond_estimate"] == want  # cached on first read

    def test_cond_estimate_nan_above_cap(self):
        n = interpolation._COND_MAX_NODES + 1
        g = mq.GramInterpolant(np.arange(float(n)), np.zeros(n), mq.poisson(1.0))
        assert math.isnan(g.cond_estimate)

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


def dense_eval_gram(g, x):
    """Reference for eval_gram: the whole probe-by-node kernel matrix at once."""
    k = g.kernel
    d = np.atleast_1d(np.asarray(x, dtype=float))[:, None] - g.nodes[None, :]
    if k.family == "gaussian":
        mat = np.exp(-k.lam * d * d)
    else:
        mat = (d * d + k.c * k.c) ** k.alpha
    return mat @ g.a


class TestEvalGramBlocks:
    """Blocked evaluation against the dense product, on every block edge."""

    @pytest.mark.parametrize(
        "k", [mq.poisson(1.0), mq.multiquadric(-2.5, 1.0), mq.gaussian(0.5)]
    )
    @pytest.mark.parametrize("n", [1, 2, 600])
    def test_against_dense_oracle(self, k, n):
        rng = np.random.default_rng(n)
        nodes = np.arange(n) - n / 2.0 + rng.uniform(-0.2, 0.2, n)
        g = mq.fit_gram(mq.SampleSet(nodes, rng.normal(size=n)), k)
        rows = max(64, interpolation._EVAL_BLOCK_BYTES // (8 * n) // 64 * 64)
        assert rows % 64 == 0
        tol = 1e-16 * np.sum(np.abs(g.a))
        for p in (0, 1, 63, 64, 65, rows - 1, rows, rows + 1, 3 * rows + 5):
            x = rng.uniform(nodes[0] - 2.0, nodes[-1] + 2.0, p)
            got = mq.eval_gram(g, x)
            assert got.shape == (p,)
            assert np.max(np.abs(got - dense_eval_gram(g, x)), initial=0.0) <= tol
        scalar = mq.eval_gram(g, float(nodes[0]) + 0.1)
        assert isinstance(scalar, float)
        assert abs(scalar - dense_eval_gram(g, float(nodes[0]) + 0.1)[0]) <= tol


class TestFarProbes:
    """A square past double precision is the kernel's limit, with no warning."""

    @pytest.mark.parametrize(
        "k", [mq.poisson(1.0), mq.multiquadric(-1.5, 2.0), mq.gaussian(0.5)]
    )
    @pytest.mark.parametrize("x", [1e200, -1e300, np.inf, -np.inf])
    def test_limit_without_warning(self, k, x):
        nodes = np.array([-1.0, 0.25, 2.0])
        g = mq.fit_gram(mq.SampleSet(nodes, np.array([1.0, -2.0, 0.5])), k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mq.kernel_spatial(k, x) == 0.0
            assert mq.eval_gram(g, x) == 0.0
            np.testing.assert_array_equal(mq.kernel_spatial(k, np.array([x, -x])), 0.0)
            np.testing.assert_array_equal(mq.eval_gram(g, np.array([x, -x])), 0.0)


def plain_kernel(d, k):
    """The plain kernel expression; a far argument gives the limit, 0."""
    with np.errstate(over="ignore"):
        if k.family == "gaussian":
            return np.exp(-k.lam * d * d)
        return (d * d + k.c * k.c) ** k.alpha


def plain_gram(nodes, k):
    """The Gram matrix as one broadcast of the plain kernel expression."""
    return plain_kernel(nodes[:, None] - nodes[None, :], k)


def plain_fit(nodes, y, k):
    """fit_gram's Cholesky solve and refinement step on plain_gram, whose
    residual y - M a is the symmetric product on a separate copy of M."""
    mat = plain_gram(nodes, k)
    chol = lapack.dpotrf(mat.T, lower=1, clean=0, overwrite_a=0)[0]
    a = lapack.dpotrs(chol, y, lower=1)[0]
    return a + lapack.dpotrs(chol, blas.dsymv(-1.0, mat, a, beta=1.0, y=y), lower=1)[0]


def blocked_subtract_eval(g, x):
    """eval_gram's blocks, each formed by a broadcast np.subtract."""
    probes = np.asarray(x, dtype=float).ravel()
    rows = interpolation._block_rows(g.nodes.size)
    vals = [plain_kernel(np.subtract(probes[i : i + rows, None], g.nodes[None, :]), g.kernel) @ g.a
            for i in range(0, probes.size, rows)]
    return np.concatenate(vals).reshape(np.shape(x))


# Node sets of n = 1, 2, then a last 64-row block of rows - 1, rows and 1 row.
BLOCK_EDGE_SIZES = (1, 2, 10 * 64 - 1, 10 * 64, 10 * 64 + 1)
# Probes at +-0, at magnitudes up to 1e300, at +-inf and NaN.
EDGE_PROBES = np.array([0.0, -0.0, 5e-324, -1e-300, 0.3, -7.25, 1e15 + 0.5, -1e100, 1e200,
                        -1e200, 1e300, -1e300, np.inf, -np.inf, np.nan])


class TestGramCholesky:
    """The Cholesky fit against an LU solve, and the matrix it factors."""

    @given(
        kernel=st.sampled_from(["poisson", "mq-1.5", "gaussian"]),
        pattern=st.sampled_from(["uniform-random", "alternating"]),
        J=st.integers(0, 199),
        L=st.floats(0.0, 0.24),
        c=st.floats(0.5, 1.5),
        lam=st.floats(0.5, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_lu_reference(self, kernel, pattern, J, L, c, lam, seed):
        k = {"poisson": mq.poisson(c), "mq-1.5": mq.multiquadric(-1.5, c),
             "gaussian": mq.gaussian(lam)}[kernel]
        nodes = mq.apply_jitter(mq.NodeSequence.integers(J), mq.JitterSpec(L, seed, pattern)).nodes
        y = np.random.default_rng(seed).normal(size=nodes.size)
        a = mq.fit_gram(mq.SampleSet(nodes, y), k).a
        mat = plain_gram(nodes, k)
        lu = linalg.lu_factor(mat)
        want = linalg.lu_solve(lu, y)
        want = want + linalg.lu_solve(lu, y - mat @ want)  # the same refinement step
        bound = 8 * mq.gram_condition(nodes, k) * 2.0**-52 * np.max(np.abs(want))
        assert np.max(np.abs(a - want)) <= bound

    @pytest.mark.parametrize(
        "k", [mq.poisson(1.0), mq.multiquadric(-2.5, 0.7), mq.gaussian(0.5)]
    )
    def test_blocked_matrix_is_the_broadcast(self, k):
        # The rank-2 product of each block, the Cholesky factor and the
        # refined coefficients are bit for bit those of the subtract.
        for n in BLOCK_EDGE_SIZES:
            if n > 2:
                assert interpolation._block_rows(n) == 64
            rng = np.random.default_rng(n)
            nodes = np.arange(n) - n / 2.0 + rng.uniform(-0.2, 0.2, n)
            np.testing.assert_array_equal(interpolation._gram_matrix(nodes, k),
                                          plain_gram(nodes, k))
            y = rng.normal(size=n)
            np.testing.assert_array_equal(mq.fit_gram(mq.SampleSet(nodes, y), k).a,
                                          plain_fit(nodes, y, k))

    @pytest.mark.parametrize(
        "k", [mq.poisson(1.0), mq.multiquadric(-2.5, 0.7), mq.gaussian(0.5)]
    )
    def test_triangle_fill_is_the_broadcast(self, k):
        # One block up to 181 nodes; past that, blocks of rows mirrored into
        # the upper triangle, ending with a partial block or a whole one.
        for n in (181, 182, 255, 256, 257):
            rng = np.random.default_rng(n)
            nodes = np.arange(n) - n / 2.0 + rng.uniform(-0.2, 0.2, n)
            np.testing.assert_array_equal(interpolation._gram_matrix(nodes, k),
                                          plain_gram(nodes, k))

    @pytest.mark.parametrize(
        "k", [mq.poisson(1.0), mq.multiquadric(-2.5, 0.7), mq.gaussian(0.5)]
    )
    def test_eval_is_the_blocked_subtract(self, k):
        for n in BLOCK_EDGE_SIZES:
            rng = np.random.default_rng(n)
            nodes = np.arange(n) - n / 2.0 + rng.uniform(-0.2, 0.2, n)
            g = mq.fit_gram(mq.SampleSet(nodes, rng.normal(size=n)), k)
            rows = interpolation._block_rows(n)
            x = np.concatenate([nodes, EDGE_PROBES,
                                rng.uniform(nodes[0] - 2.0, nodes[-1] + 2.0, rows + 3)])
            rng.shuffle(x)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = mq.eval_gram(g, x)
                np.testing.assert_array_equal(got, blocked_subtract_eval(g, x))
                for p in (nodes[-1], -0.0, 1e300, -np.inf, np.nan):
                    scalar = mq.eval_gram(g, np.float64(p))  # a 0-d probe
                    assert isinstance(scalar, float)
                    np.testing.assert_array_equal(scalar, blocked_subtract_eval(g, p))

    def test_difference_factors_are_the_subtract(self):
        # Each entry is the one rounding of x_i - x_j, the subtract's value,
        # for probes far from the nodes and for nodes of every magnitude.
        rng = np.random.default_rng(7)
        mags = 10.0 ** rng.uniform(-300, 300, 200) * rng.choice([-1.0, 1.0], 200)
        nodes = np.unique(np.concatenate([mags, [0.0, 1.0, 1.0 + 2.0**-52]]))
        x = np.concatenate([EDGE_PROBES, nodes, -mags])
        left, right = interpolation._difference_factors(x, nodes)
        with np.errstate(invalid="ignore"):
            for rows in (1, 2, 64, x.size):
                for i in range(0, x.size, rows):
                    np.testing.assert_array_equal(left[i : i + rows] @ right,
                                                  np.subtract.outer(x[i : i + rows], nodes))

    def test_not_positive_definite_carries_lu_estimate(self):
        # The 49-node gaussian grid fails the factorization; the estimate is
        # still the LU power estimate, as gram_condition computes it.
        nodes = np.arange(-24, 25) / 24
        k = mq.gaussian(1.0)
        with pytest.raises(IllConditionedError, match="positive definite") as exc:
            mq.fit_gram(mq.SampleSet(nodes, np.sin(nodes)), k)
        assert exc.value.cond_estimate == mq.gram_condition(nodes, k)

    @pytest.mark.parametrize(
        "nodes, k",
        [(np.arange(-100, 101) / 100, mq.gaussian(1.0)),  # more than one row block
         # refused by the residual check with OpenBLAS 0.3.31; either refusal
         # carries the estimate
         (np.sort(np.random.default_rng(27).uniform(-1, 1, 11)), mq.gaussian(0.5))],
    )
    def test_refused_fit_carries_gram_condition(self, nodes, k):
        # The factor overwrites the matrix, so a refused fit builds it again
        # for the estimate: bit for bit gram_condition's.
        with pytest.raises(IllConditionedError) as exc:
            mq.fit_gram(mq.SampleSet(nodes, np.cos(nodes)), k)
        assert exc.value.cond_estimate == mq.gram_condition(nodes, k)

    @pytest.mark.parametrize(
        "k", [mq.poisson(1.0), mq.multiquadric(-2.5, 0.7), mq.gaussian(0.5)]
    )
    def test_fit_holds_one_matrix(self, k):
        # The factor and the refinement work in the matrix's own array; a
        # second n x n copy would double the peak.
        n = 1025
        nodes = np.arange(n) - n // 2 + np.random.default_rng(n).uniform(-0.2, 0.2, n)
        s = mq.SampleSet(nodes, np.sin(nodes))
        tracemalloc.start()
        try:
            mq.fit_gram(s, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n * n


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_nodes_rejected(self, bad):
        # A NaN node returned inf, and an infinite one raised a RuntimeWarning.
        with pytest.raises(DomainError, match="finite"):
            mq.gram_condition(np.array([0.0, bad, 1.0]), mq.poisson(1.0))

    @pytest.mark.parametrize(
        "k, nodes",
        [(mq.poisson(1.0), np.arange(-16, 17) + np.linspace(-0.2, 0.2, 33) ** 3),
         (mq.multiquadric(-2.5, 0.7), np.arange(-40, 41) / 8.0),
         (mq.gaussian(1.0), np.arange(-6, 7) / 4.0)],
    )
    def test_power_iteration_matches_lu_solve(self, k, nodes):
        # The iteration solves with dgetrs directly; lu_solve runs the same
        # routine, so the estimate keeps its bits.
        def lu_solve_estimate(mat, lu_and_piv, iters=50, rtol=1e-3):
            def extreme(apply_op):
                v = np.full(mat.shape[0], 1.0 / np.sqrt(mat.shape[0]))
                est = 0.0
                for _ in range(iters):
                    w = apply_op(v)
                    new = float(np.linalg.norm(w))
                    if new == 0.0 or not np.isfinite(new):
                        return new
                    v = w / new
                    if est > 0 and abs(new - est) <= rtol * est:
                        return new
                    est = new
                return est

            return extreme(lambda v: mat @ v) * extreme(lambda v: linalg.lu_solve(lu_and_piv, v))

        mat = interpolation._gram_matrix(nodes, k)
        lu = linalg.lu_factor(mat)
        assert interpolation._power_condition(mat, lu) == lu_solve_estimate(mat, lu)
