"""Reference targets with known smoothness and exact norms.

Two bandlimited families (a Fejer-type kernel with triangular spectrum and
a raw sinc) and two compactly supported ones (centered B-splines scaled to
[-1, 1], and the standard bump).  Sobolev seminorms of the B-splines are
computed in closed form so convergence-rate constants are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TestFunction:
    """A reference target for the experiment harness.

    ``band`` is the spectral support half-width for bandlimited kinds
    (nan otherwise); ``order`` is the Sobolev smoothness index for compact
    kinds (inf for the bump); ``seminorm`` is |f^{(order)}|_{L2} where it
    exists in closed form, ``l2_norm`` the exact L2 norm where known.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    band: float = float("nan")
    order: float = float("nan")
    seminorm: float = float("nan")
    l2_norm: float = float("nan")

    def __call__(self, x):
        return self.f(np.asarray(x, dtype=float))


def fejer_bandlimited(sigma: float) -> TestFunction:
    """Bandlimited target with triangular spectrum on [-sigma, sigma].

    f(x) = (sigma / 2 pi) * (sin(sigma x / 2) / (sigma x / 2))^2, the
    inverse transform of fhat(xi) = 1 - |xi|/sigma.  Its |x|^-2 spatial
    decay makes windowed L2 errors representative of the full-line norm.
    """
    if not (0 < sigma <= math.pi):
        raise DomainError("band sigma must lie in (0, pi]")

    def f(x):
        return sigma / (2.0 * math.pi) * np.sinc(sigma * x / (2.0 * math.pi)) ** 2

    return TestFunction(
        f"fejer(sigma={sigma:g})", f, band=sigma, l2_norm=math.sqrt(sigma / (3.0 * math.pi))
    )


def dilated_sinc(sigma: float) -> TestFunction:
    """sin(sigma x)/(pi x): flat spectrum on [-sigma, sigma], slow decay."""
    if not (0 < sigma <= math.pi):
        raise DomainError("band sigma must lie in (0, pi]")

    def f(x):
        return sigma / math.pi * np.sinc(sigma * x / math.pi)

    return TestFunction(
        f"sinc(sigma={sigma:g})", f, band=sigma, l2_norm=math.sqrt(sigma / math.pi)
    )


@lru_cache(maxsize=None)
def _bspline_pieces(p: int) -> np.ndarray:
    """Piece polynomials of the degree-p cardinal B-spline on [0, p+1].

    Entry [j, k] is the coefficient of u^(p-j) of the piece on [k, k+1] in
    u = t - k, so column k is in Horner order.  The truncated-power form
    B(t) = sum_{i<=k} (-1)^i binom(p+1, i) (t - i)^p / p! on that piece is
    expanded exactly, over the common denominator p!, and each coefficient
    rounded once (int / int is correctly rounded).
    """
    fact = math.factorial(p)
    cols = np.empty((p + 1, p + 1))
    for k in range(p + 1):
        for j in range(p + 1):
            num = sum((-1) ** i * math.comb(p + 1, i) * (k - i) ** (p - j) for i in range(k + 1))
            cols[p - j, k] = math.comb(p, j) * num / fact
    cols.flags.writeable = False
    return cols


def bspline(p: int) -> TestFunction:
    """Degree-p B-spline recentered and scaled to support [-1, 1].

    The underlying cardinal B-spline lives on [0, p+1]; with the affine map
    t -> s (t + 1), s = (p+1)/2, the p-th derivative is piecewise constant
    with values +-binom(p, i) scaled by s^p, so the W_2^p seminorm is
    s^(p - 1/2) * sqrt(sum_i binom(p, i)^2) exactly.  Values are Horner
    sums of the piece polynomials; off (-1, 1), and at nan or +-inf, they
    are 0.
    """
    if p < 1:
        raise DomainError("B-spline degree must be >= 1")
    cols = _bspline_pieces(p)
    s = (p + 1) / 2.0

    def f(x):
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        t = s * (x[inside] + 1.0)
        k = np.minimum(t.astype(np.intp), p)
        u = t - k
        acc = cols[0][k]
        for c in cols[1:]:
            acc = acc * u + c[k]
        out[inside] = acc
        return out

    semi = s ** (p - 0.5) * math.sqrt(sum(math.comb(p, i) ** 2 for i in range(p + 1)))
    return TestFunction(f"bspline(p={p})", f, order=float(p), seminorm=semi)


def bump() -> TestFunction:
    """The standard smooth bump exp(-1/(1-x^2)) on (-1, 1), zero outside."""

    def f(x):
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
        return out

    return TestFunction("bump", f, order=float("inf"))


def zero() -> TestFunction:
    """The zero function (for degenerate-input checks)."""
    return TestFunction("zero", lambda x: np.zeros_like(x), order=float("inf"), seminorm=0.0, l2_norm=0.0)
