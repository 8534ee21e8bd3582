"""An independent value of the cardinal function L at any x, for tests.

L is even and real, so

    L(x) = (1 / pi) sum_{m >= 0} int_{m pi}^{(m + 1) pi} Lhat(xi) cos(x xi) dxi

with ``Lhat = cardinal_hat(compute_tau(k, 1e-16), xi)``.  That is the
tau-truncated symbol path, which shares no code with the FFT table build,
so it can check a table off the integers, where the table's wrap error
lives.  Lhat is smooth inside each interval, and its singular points, the
multiples of pi, are interval ends.  Double-exponential (tanh-sinh)
quadrature tolerates algebraic end singularities (Takahasi & Mori, Publ.
RIMS 9, 1974), and its nodes reach an end only where their weight is below
1e-35.  Each interval is cut into ceil(max |x| / 4) pieces, so cos(x xi)
turns at most 4 pi radians over a piece.  The intervals run until the
largest |Lhat| on two in a row is below ``_TAIL`` of Lhat(0) = 1.
"""

from __future__ import annotations

import math

import numpy as np

import mqcardinal as mq

_TAIL = 1e-19
_MAX_INTERVALS = 1 << 14


def tanh_sinh(step: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y in (0, 1) and weights of the tanh-sinh rule on [0, 1], as
    offsets from the nearer end: ``y`` for y < 1/2 and ``1 - y`` past it,
    so nodes next to either end keep their relative precision."""
    t = np.arange(-4.0, 4.0 + 0.5 * step, step)
    u = 0.5 * math.pi * np.sinh(t)
    y = 1.0 / (1.0 + np.exp(-2.0 * np.abs(u)))  # the far side, in [1/2, 1)
    near = 1.0 / (1.0 + np.exp(2.0 * np.abs(u)))  # 1 - y, without cancellation
    weights = step * math.pi * np.cosh(t) * y * near
    return np.where(u < 0.0, near, -near), weights


def _interval_nodes(lo: float, hi: float, pieces: int, step: float):
    """Nodes and weights of ``pieces`` tanh-sinh rules that cover [lo, hi]."""
    offsets, weights = tanh_sinh(step)
    ends = np.linspace(lo, hi, pieces + 1)
    xi, w = [], []
    for a, b in zip(ends[:-1], ends[1:]):
        # A negative offset is measured back from b.
        xi.append(np.where(offsets >= 0.0, a + (b - a) * offsets, b + (b - a) * offsets))
        w.append((b - a) * weights)
    return np.concatenate(xi), np.concatenate(w)


def cardinal_oracle(k: mq.Kernel, x, step: float = 1.0 / 64.0) -> np.ndarray:
    """L(x) for the kernel ``k`` at an array of x, by tanh-sinh quadrature
    of its Fourier integral with node step ``step``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    plan = mq.compute_tau(k, 1e-16)
    pieces = max(1, math.ceil(np.max(np.abs(x)) / 4.0))
    total = np.zeros_like(x)
    quiet = 0
    for m in range(_MAX_INTERVALS):
        xi, w = _interval_nodes(m * math.pi, (m + 1) * math.pi, pieces, step)
        lhat = np.asarray(mq.cardinal_hat(plan, xi))
        total += np.cos(np.outer(x, xi)) @ (w * lhat)
        quiet = quiet + 1 if np.max(np.abs(lhat)) < _TAIL else 0
        if quiet == 2:
            return total / math.pi
    raise RuntimeError(f"Lhat is above {_TAIL} past {_MAX_INTERVALS} intervals of pi")
