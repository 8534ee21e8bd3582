"""Interpolant construction and evaluation.

Two interpolant forms are provided: the cardinal series

    I f(x) = sum_j f(j/N) L(N x - j)

for data on a uniform grid, evaluated through a precomputed
:class:`~mqcardinal.cardinal.CardinalTable`, and the classical kernel
interpolant obtained by solving the symmetric Gram system
``M a = y`` with ``M_jk = phi(x_j - x_k)`` for scattered nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg

from .cardinal import _SERIES_PAD, CardinalTable, _lagrange, series_samples
from .errors import (
    ConfigError,
    CoverageError,
    DomainError,
    GridMismatchError,
    IllConditionedError,
)
from .kernels import GAUSSIAN, Kernel, _kernel_spatial_inplace
from .sampling import _check_nodes, _read_columns, _separation

_GRAM_MAX_NODES = 4096
_COND_MAX_NODES = 2048
_RESIDUAL_RTOL = 1e-8
# eval_gram works through the probes in blocks of this many bytes of kernel
# values, a multiple of 64 rows.  OpenBLAS's dgemv takes rows past a multiple
# of its unroll through a less accurate path, so blocks with leftover rows
# would lose digits against one whole-matrix product.
_EVAL_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SampleSet:
    """Strictly increasing nodes with matching sample values."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise DomainError("nodes and values must be 1-d arrays of equal length")
        if nodes.size == 0:
            raise DomainError("empty sample set")
        _check_nodes(nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def separation(self) -> float:
        return _separation(self.nodes)

    @classmethod
    def from_file(cls, path) -> "SampleSet":
        """Read a two-column text file (node, value), '#' starts a comment."""
        data = _read_columns(path, 2)
        if data.size == 0:
            raise ConfigError(f"{path}: no data lines")
        order = np.argsort(data[:, 0])
        return cls(data[order, 0], data[order, 1])


@dataclass(frozen=True)
class UniformInterpolant:
    """Cardinal series sum_j coeffs[j] L(N x - j), j = -J .. J."""

    N: int
    coeffs: np.ndarray
    table: CardinalTable

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size % 2 == 0:
            raise DomainError("coeffs must be a 1-d array of odd length")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def half_count(self) -> int:
        return (self.coeffs.size - 1) // 2


def cardinal_series(coeffs, scale: int, table: CardinalTable) -> UniformInterpolant:
    """Build a cardinal series directly from coefficients at j/scale nodes."""
    return UniformInterpolant(int(scale), np.asarray(coeffs, dtype=float), table)


def _grid_half_count(nodes: np.ndarray) -> int:
    """N >= 1 for nodes that are the uniform grid {j/N : |j| <= N}.

    Raises GridMismatchError for any other nodes.
    """
    if nodes.size % 2 == 0:
        raise GridMismatchError("uniform grid must have an odd number of nodes")
    n = (nodes.size - 1) // 2
    if n == 0 or not np.max(np.abs(nodes - np.arange(-n, n + 1) / n)) <= 1e-12:
        raise GridMismatchError("nodes are not the uniform grid {j/N : |j| <= N}")
    return n


def fit_uniform(samples: SampleSet, k: Kernel, table: CardinalTable) -> UniformInterpolant:
    """Interpolant of samples taken exactly at {j/N : |j| <= N}.

    The coefficients are the sample values themselves; no linear solve is
    involved.
    """
    if table.kernel != k:
        raise DomainError("table was built for a different kernel")
    n = _grid_half_count(samples.nodes)
    if table.half_width_N < 2 * n:
        raise CoverageError(
            f"table half-width {table.half_width_N} < 2 N = {2 * n}"
        )
    return UniformInterpolant(n, samples.values.copy(), table)


def eval_uniform(u: UniformInterpolant, x):
    """Evaluate the cardinal series sum_j coeffs[j] L(N x - j).

    Edge rule: L is taken as zero outside the table's range [-N_t, N_t]
    (``N_t = table.half_width_N``), and the table's cubic (or linear) rule
    is applied to that zero-extended table.  So a term whose ``N x - j``
    lies past ``N_t + 2/M`` (``M = table.oversample_M``) contributes
    nothing, and probes past every term, or not finite, evaluate to 0.

    The shifts j are exact steps of M samples on the table's 1/M grid, so
    by linearity the series is sampled on that grid first, by
    :func:`~mqcardinal.cardinal.series_samples`, and then each probe takes
    one Lagrange stencil of those samples (the gridding-plus-convolution
    idea of Greengard & Lee, "Accelerating the Nonuniform FFT", SIAM Rev.
    2004).  The samples are M short convolutions of the coefficients, one
    per phase of the table, against the table's cached phase spectrum of
    (L/2 + 1) M complex values, about 125 KB at N_t = 320, M = 16.  A call
    costs one FFT of the 2J + 1 coefficients, one batched inverse FFT and
    O(1) per probe, not O(number of terms) per probe.
    """
    t = u.table
    order = t.interp_order
    conv = series_samples(t, u.coeffs)
    # conv[i] is the series at N x = (i - _SERIES_PAD) / M - N_t - J.
    # Probes past either end, NaN (sent to the top) and +-inf take stencils
    # that read only the zero end samples.
    x_arr = np.asarray(x, dtype=float)
    pos = np.asarray((u.N * x_arr + (t.half_width_N + u.half_count)) * t.oversample_M + _SERIES_PAD)
    np.fmin(pos, conv.size + order, out=pos)
    np.fmax(pos, -order, out=pos)
    base = np.floor(pos).astype(int) - (order // 2 - 1)
    out = _lagrange(conv, base, pos - base, order)
    return float(out) if out.ndim == 0 else out


def scaled_eval(u: UniformInterpolant, x):
    """Evaluate through the dilation identity instead of the direct series.

    The interpolant at spacing h = 1/N equals (1/h) times the unit-spacing
    cardinal series of the dilated data h * f(h j), evaluated at x / h.
    This path must agree with :func:`eval_uniform`.
    """
    h = 1.0 / u.N
    dilated = cardinal_series(h * u.coeffs, 1, u.table)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = eval_uniform(dilated, x_arr / h) / h
    return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class GramInterpolant:
    """Kernel-translate interpolant sum_j a_j phi(x - x_j)."""

    nodes: np.ndarray
    a: np.ndarray
    kernel: Kernel

    @cached_property
    def cond_estimate(self) -> float:
        """:func:`gram_condition` of the nodes, computed on first read.

        NaN above ``_COND_MAX_NODES`` nodes.
        """
        if self.nodes.size > _COND_MAX_NODES:
            return float("nan")
        return gram_condition(self.nodes, self.kernel)


def _gram_matrix(nodes: np.ndarray, k: Kernel) -> np.ndarray:
    # A kernel value that overflows leaves inf in the matrix, which
    # _factor_gram reports as IllConditionedError.
    with np.errstate(over="ignore"):
        return _kernel_spatial_inplace(k, nodes[:, None] - nodes[None, :])


def _power_condition(mat: np.ndarray, lu_and_piv, iters: int = 50, rtol: float = 1e-3):
    """2-norm condition estimate by power iteration on M and on M^-1."""
    n = mat.shape[0]
    if n == 1:
        return 1.0

    def extreme(apply_op):
        v = np.full(n, 1.0 / np.sqrt(n))
        est = 0.0
        for _ in range(iters):
            w = apply_op(v)
            new = float(np.linalg.norm(w))
            if new == 0.0 or not np.isfinite(new):
                return new
            v = w / new
            if est > 0 and abs(new - est) <= rtol * est:
                est = new
                break
            est = new
        return est

    hi = extreme(lambda v: mat @ v)
    inv_hi = extreme(lambda v: linalg.lu_solve(lu_and_piv, v))
    if not np.isfinite(inv_hi) or inv_hi == 0.0:
        return float("inf")
    return hi * inv_hi


def _factor_gram(mat: np.ndarray):
    """LU factors of a Gram matrix, for ``lu_solve`` and ``_power_condition``.

    A matrix with a non-finite entry (a kernel value that overflowed), or an
    exactly singular one (a zero pivot), raises IllConditionedError with an
    infinite condition estimate.  The scan of the factors is the one
    finiteness check: non-finite entries make non-finite factors.
    ``lu_factor`` only warns on a zero pivot, and a solve would then leak NaNs.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", linalg.LinAlgWarning)
        lu = linalg.lu_factor(mat, check_finite=False)
    if not np.all(np.isfinite(lu[0])):
        raise IllConditionedError("gram matrix or its LU factors are not finite; "
                                  "the kernel may overflow at these nodes",
                                  cond_estimate=float("inf"))
    if np.any(np.diag(lu[0]) == 0.0):
        raise IllConditionedError("gram matrix is singular to working precision",
                                  cond_estimate=float("inf"))
    return lu


def gram_condition(nodes, k: Kernel) -> float:
    """Condition estimate of the Gram matrix at these nodes.

    Returns ``inf`` when the matrix is singular to working precision.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size > _COND_MAX_NODES:
        raise DomainError(f"gram_condition capped at {_COND_MAX_NODES} nodes")
    if np.unique(nodes).size != nodes.size:
        raise DomainError("nodes must be distinct")
    mat = _gram_matrix(np.sort(nodes), k)
    try:
        lu = _factor_gram(mat)
    except IllConditionedError:
        return float("inf")
    return float(_power_condition(mat, lu))


def fit_gram(s: SampleSet, k: Kernel) -> GramInterpolant:
    """Solve the Gram system M a = y by a symmetric factorization.

    One step of iterative refinement is applied; if the refined residual
    still exceeds 1e-8 * ||y||, the system is reported as ill-conditioned
    (no silent regularization), with the condition estimate from this
    factorization.  A successful fit computes no estimate; the interpolant's
    ``cond_estimate`` does on first read.
    """
    if k.family != GAUSSIAN and k.alpha >= -0.5:
        raise DomainError("gram interpolation requires alpha < -1/2")
    n = s.nodes.size
    if n > _GRAM_MAX_NODES:
        raise DomainError(f"fit_gram capped at {_GRAM_MAX_NODES} nodes")
    mat = _gram_matrix(s.nodes, k)
    y = s.values
    lu = _factor_gram(mat)
    a = linalg.lu_solve(lu, y)
    a = a + linalg.lu_solve(lu, y - mat @ a)  # one refinement step
    y_norm = float(np.linalg.norm(y))
    residual = float(np.linalg.norm(mat @ a - y))
    if not np.all(np.isfinite(a)) or (y_norm > 0 and residual > _RESIDUAL_RTOL * y_norm):
        raise IllConditionedError(
            f"gram residual {residual:.3g} exceeds {_RESIDUAL_RTOL:g} * ||y||",
            cond_estimate=(_power_condition(mat, lu) if n <= _COND_MAX_NODES
                           else float("nan")),
        )
    return GramInterpolant(s.nodes.copy(), a, k)


def eval_gram(g: GramInterpolant, x):
    """Evaluate sum_j a_j phi(x - x_j).

    The probes go in blocks of rows through one reused buffer of kernel
    values, so memory stays at one block for any probe count.
    """
    x_arr = np.asarray(x, dtype=float)
    probes = x_arr.ravel()
    nodes = g.nodes
    rows = max(64, _EVAL_BLOCK_BYTES // (8 * nodes.size) // 64 * 64)
    buf = np.empty((min(rows, probes.size), nodes.size))
    vals = np.empty(probes.size)
    for i in range(0, probes.size, rows):
        block = buf[: min(rows, probes.size - i)]
        np.subtract(probes[i : i + rows, None], nodes[None, :], out=block)
        np.matmul(_kernel_spatial_inplace(g.kernel, block), g.a, out=vals[i : i + rows])
    return float(vals[0]) if x_arr.ndim == 0 else vals.reshape(x_arr.shape)
