"""Interpolant construction and evaluation.

Two interpolant forms are provided: the cardinal series

    I f(x) = sum_j f(j/N) L(N x - j)

for data on a uniform grid, evaluated through a precomputed
:class:`~mqcardinal.cardinal.CardinalTable`, and the classical kernel
interpolant obtained by solving the symmetric Gram system
``M a = y`` with ``M_jk = phi(x_j - x_k)`` for scattered nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft, linalg

from .cardinal import CardinalTable, _lagrange
from .errors import (
    ConfigError,
    CoverageError,
    DomainError,
    GridMismatchError,
    IllConditionedError,
)
from .kernels import GAUSSIAN, Kernel, kernel_spatial

_GRAM_MAX_NODES = 4096
_COND_MAX_NODES = 2048
_RESIDUAL_RTOL = 1e-8


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
        if nodes.size > 1 and np.min(np.diff(nodes)) <= 0:
            raise DomainError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def separation(self) -> float:
        if self.nodes.size < 2:
            return float("inf")
        return float(np.min(np.diff(self.nodes)))

    @classmethod
    def from_file(cls, path) -> "SampleSet":
        """Read a two-column text file (node, value), '#' starts a comment."""
        nodes, values = [], []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                parts = body.split()
                if len(parts) != 2:
                    raise ConfigError(f"{path}:{lineno}: expected two columns")
                try:
                    nodes.append(float(parts[0]))
                    values.append(float(parts[1]))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not nodes:
            raise ConfigError(f"{path}: no data lines")
        order = np.argsort(nodes)
        return cls(np.array(nodes)[order], np.array(values)[order])


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


def fit_uniform(samples: SampleSet, k: Kernel, table: CardinalTable) -> UniformInterpolant:
    """Interpolant of samples taken exactly at {j/N : |j| <= N}.

    The coefficients are the sample values themselves; no linear solve is
    involved.
    """
    if table.kernel != k:
        raise DomainError("table was built for a different kernel")
    n_nodes = samples.nodes.size
    if n_nodes % 2 == 0:
        raise GridMismatchError("uniform grid must have an odd number of nodes")
    n = (n_nodes - 1) // 2
    expected = np.arange(-n, n + 1) / max(n, 1)
    if n == 0 or not np.allclose(samples.nodes, expected, rtol=0, atol=1e-12):
        raise GridMismatchError("nodes are not the uniform grid {j/N : |j| <= N}")
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
    by linearity the series is one convolution of the coefficients, placed
    every M samples, with the table values, followed by a single Lagrange
    pass per probe (the gridding-plus-convolution idea of Greengard & Lee,
    "Accelerating the Nonuniform FFT", SIAM Rev. 2004).  A call costs one
    FFT convolution plus O(1) per probe, not O(number of terms) per probe.
    """
    t = u.table
    m, order = t.oversample_M, t.interp_order
    stuffed = np.zeros(2 * u.half_count * m + 1)
    stuffed[::m] = u.coeffs
    padded = np.zeros(t.values.size + 4)
    padded[2:-2] = t.values
    size = stuffed.size + padded.size - 1
    n_fft = fft.next_fast_len(size, real=True)
    conv = fft.irfft(fft.rfft(stuffed, n_fft) * fft.rfft(padded, n_fft), n_fft)[:size]
    # The two zeros padded on each side make the two end samples of the
    # convolution exactly zero; clear the FFT's rounding there, so that every
    # stencil index outside the array reads an exact zero.
    conv[:2] = 0.0
    conv[-2:] = 0.0

    # conv[i] is the series at N x = i / M - N_t - J - 2 / M.
    x_arr = np.asarray(x, dtype=float)
    pos = (u.N * x_arr + (t.half_width_N + u.half_count)) * m + 2.0
    pos = np.where(np.isfinite(pos), np.clip(pos, -order, size + order), -order)
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
    cond_estimate: float = field(default=float("nan"))


def _gram_matrix(nodes: np.ndarray, k: Kernel) -> np.ndarray:
    return kernel_spatial(k, nodes[:, None] - nodes[None, :])


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
        lu = linalg.lu_factor(mat)
    except linalg.LinAlgError:
        return float("inf")
    if not np.all(np.isfinite(lu[0])) or np.any(np.diag(lu[0]) == 0.0):
        return float("inf")
    cond = _power_condition(mat, lu)
    return float(cond)


def fit_gram(s: SampleSet, k: Kernel) -> GramInterpolant:
    """Solve the Gram system M a = y by a symmetric factorization.

    One step of iterative refinement is applied; if the refined residual
    still exceeds 1e-8 * ||y||, the system is reported as ill-conditioned
    (no silent regularization).
    """
    if k.family != GAUSSIAN and k.alpha >= -0.5:
        raise DomainError("gram interpolation requires alpha < -1/2")
    n = s.nodes.size
    if n > _GRAM_MAX_NODES:
        raise DomainError(f"fit_gram capped at {_GRAM_MAX_NODES} nodes")
    mat = _gram_matrix(s.nodes, k)
    y = s.values
    try:
        lu = linalg.lu_factor(mat)
        a = linalg.lu_solve(lu, y)
        a = a + linalg.lu_solve(lu, y - mat @ a)  # one refinement step
    except linalg.LinAlgError as exc:
        raise IllConditionedError(f"gram factorization failed: {exc}") from exc
    cond = _power_condition(mat, lu) if n <= _COND_MAX_NODES else float("nan")
    y_norm = float(np.linalg.norm(y))
    residual = float(np.linalg.norm(mat @ a - y))
    if not np.all(np.isfinite(a)) or (y_norm > 0 and residual > _RESIDUAL_RTOL * y_norm):
        raise IllConditionedError(
            f"gram residual {residual:.3g} exceeds {_RESIDUAL_RTOL:g} * ||y||",
            cond_estimate=cond,
        )
    return GramInterpolant(s.nodes.copy(), a, k, cond)


def eval_gram(g: GramInterpolant, x):
    """Evaluate sum_j a_j phi(x - x_j)."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    vals = kernel_spatial(g.kernel, x_arr[:, None] - g.nodes[None, :]) @ g.a
    return float(vals[0]) if np.ndim(x) == 0 else vals
