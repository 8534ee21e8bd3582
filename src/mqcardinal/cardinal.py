"""Truncated periodization and DFT-built cardinal function tables.

The cardinal function L associated with a kernel phi is defined in the
Fourier domain as ``Lhat(xi) = phihat(xi) / S(xi)`` where
``S(xi) = sum_k phihat(xi + 2 pi k)`` is the 2 pi-periodized symbol.  The
symbol functions truncate the periodization to ``2 tau + 1`` terms, with
tau chosen so the truncation carries relative error at most epsilon.  The
table build needs no tau.  It samples phihat at spacing 2 pi / Q up to the
band where the transform falls below rounding; one routine,
:func:`_pair_slots`, pairs those even samples with their mirrors, which
sum to the symbol S.  A pruned FFT inverts Lhat from the pairs; its column
step sums Lhat over the period 2 pi M, as sampling L at spacing 1/M does.
Lhat is real and even, so L is real: the transform forms only the columns
of its Hermitian rows up to Q/2 and inverts each row by a real FFT, over
blocks of rows, keeping only the columns the table reads.  L is then
evaluated off-grid by local polynomial interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels as kmod
from .errors import (
    BandwidthError,
    DomainError,
    NumericalConsistencyError,
    OutOfRangeError,
    UnsupportedKernelError,
)
from .kernels import (
    GAUSSIAN,
    Kernel,
    _exp_transform,
    _finite_constant,
    _overflow_error,
    log_kernel_fourier,
)

TWO_PI = 2.0 * math.pi

# Spatial period Q (in lattice units) of the FFT reconstruction: the power
# of 2 at or above max(_MIN_PERIOD, _PERIOD_FACTOR N).  The inverse FFT
# returns L summed over the shifts x + k Q.  That keeps L(j) = delta_0j at
# every integer, so the delta residual cannot see it, but off the integers
# the shifted tails add about Q^(2 alpha), and Q does not hold that to the
# table tolerance.  At Q = 2048 (N = 32, M = 64) it is 1.85e-9 for Poisson
# c = 1, 3e-8 for alpha = -0.75 and 3.4e-12 for alpha = -1.5 (c = 1), and
# at most 2e-14 for Poisson c = 3, alpha = -2.5 and the gaussian lambda = 1.
_MIN_PERIOD = 2048
_PERIOD_FACTOR = 8
# Zeros on each side of the table in the cardinal series convolution; see
# series_samples.
_SERIES_PAD = 2
# Log of the smallest normal double.  The table build sends log values
# below it to -inf before its one exp: numpy's exp is about 100 times
# slower on an input whose result is subnormal.
_LOG_TINY = math.log(np.finfo(float).tiny)
# Log of 2^-60.  Spectrum rows and symbol shifts whose transform values are
# below this share of phihat(pi) (split over the terms they add to) are not
# evaluated; see _log_shares.
_LOG_CUT = -60.0 * math.log(2.0)
# Lagrange weight i's product of (s - j), j != i, at its own node s = i, by order.
_AT_NODE = {2: np.array([-1.0, 1.0]), 4: np.array([-6.0, 2.0, -2.0, 6.0])}
# The table build evaluates a multiquadric's log transform on its first
# _EXACT_SLOTS slots, on every _FILL_STEP-th slot past them and on every
# _FAR_STEP-th slot past _FAR_SLOTS, and fills the slots between with a
# fixed _FILL_POINTS-point Lagrange rule, for Bessel orders |nu| up to
# _FILL_MAX_ORDER; see _mq_log_slots.
_EXACT_SLOTS = 480
_FILL_STEP = 8
_FAR_SLOTS = 4 * _EXACT_SLOTS
_FAR_STEP = 4 * _FILL_STEP
_FILL_POINTS = 10
_FILL_MAX_ORDER = 4.0


def _fill_weights(step: int, points: int) -> np.ndarray:
    """(points, step) Lagrange weights: column o takes the values at the
    nodes -(points/2 - 1) .. points/2, ``step`` slots apart, to the slot o
    past node 0.  Column 0 is exactly the unit vector of node 0."""
    nodes = np.arange(points) - (points // 2 - 1)
    s = np.arange(step) / step
    w = np.ones((points, step))
    for j in range(points):
        for i in range(points):
            if i != j:
                w[j] *= (s - nodes[i]) / (nodes[j] - nodes[i])
    return w


_FILL_WEIGHTS = _fill_weights(_FILL_STEP, _FILL_POINTS)
_FAR_WEIGHTS = _fill_weights(_FAR_STEP, _FILL_POINTS)
# Shifts compute_tau's tail rule sums at most (gaussian lambda up to about
# 1e11, poisson c down to about 1e-5), and rows the table build's band
# search reaches at most.
_MAX_SHIFTS = 1 << 20
# Slots (band rows of Q) a table build evaluates at most, 128 MiB per
# array of them.  A spectrum that needs more (poisson c below about 1e-3 at
# Q = 2048, a gaussian lambda above about 1.3e7) raised a bare MemoryError,
# or took gigabytes, for a kernel far narrower than the grid.
_MAX_SLOTS = 1 << 24
# Widest c a multiquadric-family table or tau is made for.  Up to it c |xi|
# stays finite for xi up to 4 pi.  That covers the first period the build
# reads, the anchors of its fill just past it (whose Lagrange sums reach
# 1.57 times their largest value), and compute_tau's c pi + 2 pi c.
_MAX_WIDTH = np.finfo(float).max / (4.0 * math.pi)
# Shift-grid values _symbol_terms forms at a time.
_SYMBOL_BLOCK = 1 << 16
# Bytes of complex transform rows _ifft_band forms at a time.
_IFFT_BLOCK_BYTES = 256 * 1024
_TOO_SLOW = "kernel transform decays too slowly to tabulate"


@dataclass(frozen=True)
class TruncationPlan:
    """Number of periodization terms guaranteeing relative error epsilon.

    ``gamma`` and ``d_lower`` are the constants of the rule behind tau:
    the transform tail's prefactor, and a lower bound of the symbol (its
    closed-form constant, or phihat(pi) for alpha < -1); both are recorded
    for reporting.
    """

    kernel: Kernel
    epsilon: float
    tau: int
    gamma: float
    d_lower: float

    @property
    def term_count(self) -> int:
        return 2 * self.tau + 1


def _mq_tail_prefactor(k: Kernel) -> float:
    # phihat(r) <= lam * r^(-alpha-1) * e^(-c r) * e^(nu^2 / (2 c r))
    return _finite_constant(
        k, lambda: 2.0 ** (1.0 + k.alpha) / math.gamma(-k.alpha) * k.c**k.alpha * TWO_PI
    )


def _symbol_terms(k: Kernel, tau: int, xi_star: np.ndarray, log_scale=0.0) -> np.ndarray:
    """Symbol truncated to shifts |j| <= tau, on an array of reduced
    frequencies, with every term divided by ``exp(log_scale)``.

    One transform call covers a block of shifts, about ``_SYMBOL_BLOCK``
    values, so memory does not grow with tau; the rows are added in the
    order j = -tau .. tau.
    """
    total = np.zeros_like(xi_star)
    step = max(1, _SYMBOL_BLOCK // max(xi_star.size, 1))
    for lo in range(-tau, tau + 1, step):
        args = np.add.outer(TWO_PI * np.arange(lo, min(lo + step, tau + 1)), xi_star)
        vals = _exp_transform(k, log_kernel_fourier(k, args) - log_scale)
        with np.errstate(over="ignore"):
            for row in vals:
                total += row
    if np.any(np.isinf(total)):
        raise _overflow_error(k, "the periodized symbol")
    return total


def _log_shares(k: Kernel, xi: np.ndarray) -> np.ndarray:
    """``log(phihat(xi) / phihat(pi))`` on an array of frequencies.

    phihat decreases in |xi| for every family, and every symbol value
    S(xi*), |xi*| <= pi, has the term phihat(xi*) >= phihat(pi).  So where
    the share at |xi| >= pi is below some exp(s), so is each transform value
    past it, against any symbol value.  A phihat(pi) whose log is +inf (a
    Bessel factor that overflows at a tiny c pi) raises KernelOverflowError,
    and one whose log is -inf (a gaussian with pi^2 / (4 lambda) past double
    precision) UnsupportedKernelError.
    """
    logs = log_kernel_fourier(k, np.concatenate(([math.pi], xi)))
    if logs[0] == math.inf:
        raise _overflow_error(k, "the transform")
    if logs[0] == -math.inf:
        raise UnsupportedKernelError(
            f"gaussian lambda={k.lam:g} is too wide: pi^2 / (4 lambda) overflows; "
            "use a larger lambda"
        )
    return logs[1:] - logs[0]


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")


def _check_width(k: Kernel) -> None:
    if k.family != GAUSSIAN and not k.c <= _MAX_WIDTH:
        raise UnsupportedKernelError(
            f"{k.family} alpha={k.alpha:g}, c={k.c:g} is too wide: c |xi| overflows on "
            f"the first periods; use a smaller c (at most {_MAX_WIDTH:.3g})"
        )


def _tail_tau(k: Kernel, epsilon: float) -> int:
    """The tail rule's tau (see :func:`compute_tau`), or _MAX_SHIFTS + 1 if
    none up to the cap is certified.

    The tail past tau holds shift tau + 1, so the shares are read from the
    first probe point n of 64, 128, ..., _MAX_SHIFTS whose share is under
    the target, doubling n until the shares up to n and the series
    ``phihat(2 pi n - pi) rho / (1 - rho)`` past it certify a tau.
    """
    # A sum of logs, as below: a subnormal epsilon's product underflows.
    log_target = math.log(0.5) + math.log(epsilon)
    probe = 64 << np.arange((_MAX_SHIFTS // 64).bit_length())
    below = np.flatnonzero(_log_shares(k, TWO_PI * probe - math.pi) <= log_target)
    if not below.size:
        return _MAX_SHIFTS + 1
    shares = np.empty(0)  # shares[i] is shift j = i + 2's
    for n in probe[below[0] :]:
        more = _log_shares(k, TWO_PI * np.arange(shares.size + 2, n + 1) - math.pi)
        shares = np.concatenate((shares, more))
        # The log of the series past n: -inf where its first term's log
        # underflows, +inf where rho rounds to 1.
        log_rest = -math.inf
        if shares[-1] > -math.inf:
            log_rho = shares[-1] - shares[-2]
            if k.family != GAUSSIAN:
                log_rho = max(log_rho, -TWO_PI * k.c)
            log_rest = math.inf
            if log_rho < 0.0:
                log_rest = shares[-1] + log_rho - math.log(-math.expm1(log_rho))
        # tails[i] is the log of the shifts j > i + 1 summed, the rest included.
        tails = np.logaddexp.accumulate(np.append(log_rest, shares[::-1]))[::-1]
        if tails[-1] <= log_target:
            return 1 + int(np.argmax(tails <= log_target))
    return _MAX_SHIFTS + 1


def compute_tau(k: Kernel, epsilon: float) -> TruncationPlan:
    """Choose the truncation parameter tau for the periodized symbol.

    One tail rule certifies tau for every family: the smallest tau >= 1
    with ``2 sum_{j > tau} phihat(2 pi j - pi) <= epsilon phihat(pi)``.
    phihat is even and decreases in |xi|, so for |xi*| <= pi each term
    phihat(2 pi j - pi), j > tau, bounds the two dropped shifts
    xi* +- 2 pi j, and S(xi*) >= phihat(pi) (see :func:`_log_shares`).
    Past the last shift summed the terms fall at least geometrically, by
    rho, the largest later ratio phihat(xi + 2 pi) / phihat(xi).  The
    gaussian's ratio falls (its log transform is concave), so rho is the
    last one summed.  The multiquadric's tends to e^(-2 pi c): it falls to
    it for alpha < -1, rises to it for -1 < alpha < 0 and is it for poisson
    (checked numerically for alpha from -4 to -0.25, c from 0.05 to 10), so
    rho = max(last ratio, e^(-2 pi c)).

    Where the paper has a closed form (poisson, -1 < alpha < 0 and the
    gaussian), tau is the larger of it and the certificate, which keeps the
    published term counts, and ``gamma`` and ``d_lower`` are its constants.
    For alpha < -1 tau is the certificate, ``gamma`` the tail prefactor and
    ``d_lower = phihat(pi)``.  A tau over _MAX_SHIFTS, or a c over
    _MAX_WIDTH, raises UnsupportedKernelError naming the way out.
    """
    _check_epsilon(epsilon)
    _check_width(k)

    if k.family == GAUSSIAN:
        gamma = math.sqrt(math.pi / k.lam)
        d_lower = gamma * math.exp(-math.pi**2 / (4.0 * k.lam))
        paper = 2.0 / math.pi**2 * abs(math.log(epsilon) - math.log(4.0)) + 4.0
    elif k.alpha >= 0:
        raise UnsupportedKernelError("cardinal pipeline requires alpha < 0")
    elif k.alpha == -1.0:
        gamma = math.pi / k.c
        d_lower = 1.0 / (2.0 * k.c * math.sqrt(2.0))
        # log(gamma / epsilon) as a difference: gamma / epsilon overflows
        # for a tiny c.
        paper = 1.0 + (math.log(gamma) - math.log(epsilon)) / (TWO_PI * k.c)
    elif k.alpha > -1.0:
        c = k.c
        lam = _mq_tail_prefactor(k)
        nu = k.alpha + 0.5
        gamma = _finite_constant(
            k, lambda: lam * math.pi ** (-k.alpha - 1.0) * math.exp(nu * nu / (2.0 * c * math.pi))
        )
        d_scale = _finite_constant(
            k,
            lambda: (
                0.5 * 2.0 ** (1.0 + k.alpha) / math.gamma(-k.alpha) * c**k.alpha
                * TWO_PI ** (-k.alpha - 1.0)
            ),
        )
        e2 = math.exp(-TWO_PI * c)
        d_lower = d_scale * e2
        # tau is formed in log space: d_lower underflows for c >~ 113, cosh(c pi)
        # overflows for c >~ 226 and 1 / epsilon for a subnormal epsilon, while
        # tau stays small; e2 rounds to 1 for c below 8.8e-18, so 1 - e2 is expm1's.
        log_cosh = c * math.pi + math.log1p(e2) - math.log(2.0)
        paper = 1.0 + (
            -math.log(epsilon)
            + math.log(2.0 * gamma)
            + log_cosh
            - (math.log(d_scale) - TWO_PI * c)
            - math.log(-math.expm1(-TWO_PI * c))
        ) / (TWO_PI * c)
    else:
        gamma = _mq_tail_prefactor(k)
        d_lower = kmod.kernel_fourier(k, math.pi)
        paper = 1.0

    tau = max(paper, _tail_tau(k, epsilon))
    if tau > _MAX_SHIFTS:
        what, way = (
            (f"gaussian lambda={k.lam:g} is too narrow", "smaller lambda") if k.family == GAUSSIAN
            else (f"{k.family} alpha={k.alpha:g}, c={k.c:g} is too narrow", "larger c")
        )
        raise UnsupportedKernelError(
            f"{what}: its symbol needs over {_MAX_SHIFTS} shifts; use a {way}"
        )
    return TruncationPlan(k, epsilon, math.ceil(tau), gamma, d_lower)


def _float_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def reduce_frequency(xi):
    """Map xi (scalar or array) to its 2 pi-periodic representative in (-pi, pi]."""
    xi = np.asarray(xi, dtype=float)
    r = xi - TWO_PI * np.floor(xi / TWO_PI + 0.5)
    return _float_or_array(np.where(r <= -math.pi, r + TWO_PI, r))


def periodized_symbol(plan: TruncationPlan, xi):
    """Truncated 2 pi-periodization S_tau(xi) of the kernel transform, at
    scalar or array xi."""
    xi_star = np.asarray(reduce_frequency(xi))
    return _float_or_array(_symbol_terms(plan.kernel, plan.tau, xi_star))


def periodized_symbol_lower_bound(plan: TruncationPlan) -> float:
    """Analytic lower bound D * exp(-4 pi c) for the full symbol.

    Only available where the constant D is known: alpha in [-1, 0) for the
    multiquadric family (Poisson included).
    """
    k = plan.kernel
    if k.family == GAUSSIAN or k.alpha < -1.0 or k.alpha >= 0.0:
        raise UnsupportedKernelError(
            "symbol lower-bound constant is only specified for -1 <= alpha < 0"
        )
    return plan.d_lower * math.exp(-4.0 * math.pi * k.c)


def cardinal_hat(plan: TruncationPlan, xi):
    """Fourier transform of the cardinal function, phihat(xi) / S_tau(xi),
    at scalar or array xi.

    Numerator and symbol are both scaled by the symbol's largest term,
    ``phihat(xi*)``: ``exp(log phihat(xi) - log phihat(xi*))`` over
    ``sum_j exp(log phihat(xi* + 2 pi j) - log phihat(xi*))``.  So the ratio
    stays finite where phihat and S both underflow, and far from the
    origin it rounds to 0 instead of overflowing.
    """
    k = plan.kernel
    xi = np.asarray(xi, dtype=float)
    xi_star = np.asarray(reduce_frequency(xi))
    # phihat blows up at the lattice points of a multiquadric with
    # alpha >= -1/2 (alpha is nan for the gaussian); there Lhat is the
    # removable limit, 1 at xi = 0 and 0 at the others.
    out = np.array(xi == 0.0, dtype=float)
    rest = (xi_star != 0.0) if -0.5 <= k.alpha < 0.0 else np.full(xi.shape, True)
    top = log_kernel_fourier(k, xi_star[rest])
    out[rest] = np.exp(log_kernel_fourier(k, xi[rest]) - top) / _symbol_terms(
        k, plan.tau, xi_star[rest], top
    )
    return _float_or_array(out)


@dataclass(frozen=True)
class CardinalTable:
    """Uniform samples of the cardinal function on [-N, N], step 1/M."""

    kernel: Kernel
    half_width_N: int
    oversample_M: int
    values: np.ndarray
    epsilon: float
    interp_order: int = 4

    def __post_init__(self):
        expected = 2 * self.half_width_N * self.oversample_M + 1
        if self.values.shape != (expected,):
            raise DomainError(
                f"table needs {expected} values, got {self.values.shape}"
            )
        if self.interp_order not in (2, 4):
            raise DomainError("interp_order must be 2 (linear) or 4 (cubic)")
        self.values.setflags(write=False)

    def value_at_grid(self, i: int) -> float:
        """Table value at x = i / M, signed index."""
        return float(self.values[i + self.half_width_N * self.oversample_M])

    @cached_property
    def phase_spectrum(self) -> np.ndarray:
        """Read-only spectrum of the table's M phases, computed on first use.

        Its length is the one every series with J <= N/2 shares (see
        :func:`series_samples`); an (L/2 + 1, M) complex array.
        """
        spec = _phase_spectrum(self, _phase_length(self, self.half_width_N // 2))
        spec.setflags(write=False)
        return spec


def _phase_rows(t: CardinalTable) -> int:
    """Rows R of the padded table laid out as an (R, M) array of phases."""
    m = t.oversample_M
    return -(-(t.values.size + 2 * _SERIES_PAD) // m)


def _phase_length(t: CardinalTable, half: int) -> int:
    """FFT length of the phase convolutions for a series with J = ``half``.

    A series with J <= N/2 gets the table's own length, so the table keeps
    one spectrum for all of them.
    """
    from scipy import fft

    return fft.next_fast_len(
        max(2 * half, 2 * (t.half_width_N // 2)) + _phase_rows(t), real=True
    )


def _phase_spectrum(t: CardinalTable, length: int) -> np.ndarray:
    from scipy import fft

    m = t.oversample_M
    phases = np.zeros(_phase_rows(t) * m)
    phases[_SERIES_PAD : _SERIES_PAD + t.values.size] = t.values
    return fft.rfft(phases.reshape(-1, m), length, axis=0)


def series_samples(t: CardinalTable, coeffs: np.ndarray) -> np.ndarray:
    """The series ``sum_j coeffs[j] L(y - j)``, j = -J .. J, on the 1/M grid.

    Sample i is the series at ``y = (i - 2) / M - N - J`` (N the table
    half-width), for ``y`` within ``N + J + 2 / M`` of 0, with L the table
    extended by zeros.  The table is padded with two zeros on each side, so
    the two end samples on each side are exactly zero; they are cleared of
    the FFT's rounding, so that a stencil index clipped to an end reads an
    exact zero.

    The shifts j are exact steps of M samples on the table grid.  So with
    the zero-padded table laid out as R rows of M phases, ``T_r[k] =
    padded[k M + r]``, sample ``q M + r`` is ``sum_j coeffs[j] T_r[q - j]``:
    M short convolutions of the coefficients, one per phase (the polyphase
    split of a zero-stuffed convolution).  Each runs as a product of
    length-L spectra; the table's is its cached ``phase_spectrum`` for
    J <= N/2, and one computed for this call otherwise.
    """
    from scipy import fft

    half = (coeffs.size - 1) // 2
    length = _phase_length(t, half)
    if half <= t.half_width_N // 2:
        spec = t.phase_spectrum
    else:
        spec = _phase_spectrum(t, length)
    size = (2 * half + 2 * t.half_width_N) * t.oversample_M + 2 * _SERIES_PAD + 1
    conv = fft.irfft(spec * fft.rfft(coeffs, length)[:, None], length, axis=0)
    conv = conv.ravel()[:size]
    conv[:_SERIES_PAD] = 0.0
    conv[-_SERIES_PAD:] = 0.0
    return conv


def _strided(a: np.ndarray, shape: tuple, steps: tuple) -> np.ndarray:
    """A read view of the contiguous array ``a`` with ``shape``, whose axes
    step ``steps`` elements; as ``as_strided``, with no checks and a tenth
    of its call overhead."""
    return np.ndarray(shape, a.dtype, a, 0, tuple(a.itemsize * s for s in steps))


def _pair_slots(head: np.ndarray) -> tuple:
    """``plus``, ``minus`` and ``symbol`` for f the even sequence whose
    slots 0, 1, ... are the flat (rows, Q) ``head`` (Q even) and 0 past it.

    Row r >= 1 of the (rows + 1, Q/2 + K) pairs is f(Q r + s) +- f(Q r - s)
    on columns s <= Q/2 and 0 past them (:func:`_ifft_band`'s twiddle
    split), row 0 is f(s) in both.  Summed from the farthest row in, so a
    decreasing f from its smallest terms, plus is ``sum_k f(s + k Q)``.
    """
    rows, q = head.shape
    half = q // 2
    plus = np.zeros((rows + 1, half + (1 << (q.bit_length() - 1) // 2)))
    minus = np.zeros_like(plus)
    # Column s >= 1 of row -r is head[r - 1, Q - s]; column 0 is head[r, 0].
    mirror = head[:, : half - 1 : -1]
    plus[0, : half + 1] = minus[0, : half + 1] = head[0, : half + 1]
    np.multiply(head[1:, 0], 2.0, out=plus[1:rows, 0])
    np.add(head[1:, 1 : half + 1], mirror[:-1], out=plus[1:rows, 1 : half + 1])
    np.subtract(head[1:, 1 : half + 1], mirror[:-1], out=minus[1:rows, 1 : half + 1])
    plus[rows, 1 : half + 1] += mirror[-1]
    minus[rows, 1 : half + 1] -= mirror[-1]
    return plus, minus, plus[::-1, : half + 1].sum(axis=0)


def _ifft_band(plus: np.ndarray, minus: np.ndarray, q: int, m: int, n: int) -> np.ndarray:
    """Columns 0 .. n+1 and Q-n-2 .. Q-1 of rows 0 .. M//2 of ``M * ifft(x)``,
    a real (M//2 + 1, 2n + 4) array, for x of length p = M Q the sum of f
    over the shifts k p, with f the even sequence on the integers whose
    pairs :func:`_pair_slots` forms as ``plus`` and ``minus`` (Q a power
    of 2).  With n = Q/2 - 2 it is every column.

    Entry ``[t, j]`` of the full (M//2 + 1, Q) array is output ``j M + t``.
    With input index ``Q r + s``, the transform splits into length-M
    transforms down the columns of x as an (M, Q) array, a twiddle
    ``exp(2 pi i s t / p)`` and length-Q transforms along the rows (the
    four-step FFT).  Output ``j M + t`` for t > M/2 equals output
    ``(Q - 1 - j) M + (M - t)``, so only rows t <= M/2 are formed.  The
    column step's exponent ``2 pi r t / M`` has period M in r, so it sums
    any row r of f onto row r mod M of x, rows of either sign and past M
    too: only the rows of the pairs are nonzero, and the step is a dense
    product with them (FFT pruning).  Row -r of f, whose exponent is
    -r t / M, pairs with row r, so the step is
    ``cos(2 pi r t / M) @ plus + i sin(2 pi r t / M) @ minus``.

    x is real and even, so each twiddled row z is Hermitian, z[Q - s] =
    conj z[s], and its transform is real: only columns s <= Q/2 are formed,
    and each row is inverted by one length-Q ``irfft``, which reads only the
    real parts of columns 0 and Q/2.  Those are real in exact arithmetic;
    an imaginary part there over 1e-10 raises NumericalConsistencyError, as
    does a pair value that is not finite.  Every value of finite pairs
    enters each output with a weight of modulus at most 1, so the output
    is finite too: the build's pairs of Lhat lie in [-1, 1].

    The column step, the twiddle and the row transforms run over blocks of
    output rows t, about ``_IFFT_BLOCK_BYTES`` of complex rows each, and
    only the 2n + 4 columns kept are copied out of each block.  So beside
    the pairs the transform holds its output and one block, never an
    (M//2 + 1, Q) array.  Blocks of 128 KiB to 1 MiB all left the traced
    peak of a build at M = 4096, N = 32, Q = 2048 within 0.11 MiB; over a
    replica of the benchmark's table-build loop 128 KiB and 512 KiB blocks
    took 1% and 8% longer than 256 KiB.
    """
    from scipy import fft

    if not (np.isfinite(plus).all() and np.isfinite(minus).all()):
        raise NumericalConsistencyError("table spectrum for the inverse FFT is not finite")
    rows, half = plus.shape[0], q // 2
    p, h, keep, k = m * q, m // 2, n + 2, plus.shape[1] - half
    # The twiddle factors as exp(2 pi i t s1 / p) * exp(2 pi i t K s2 / p)
    # for s = s1 + K s2, so no (M//2 + 1, Q/2 + 1) array of it is formed;
    # the pairs' columns padded to Q/2 + K make the split a view.
    r, s1, s2 = np.arange(rows), np.arange(k), k * np.arange(half // k + 1)
    # Blocks of step rows t end at the multiples of step below M//2 and the
    # last one at M//2 + 1, so none has one row: a one-row product rounds
    # differently from the same row of a larger one.  The per-row factors
    # (the column step's cosines and sines, both twiddle factors) are formed
    # for a group of blocks at a time, about _IFFT_BLOCK_BYTES of them too.
    step = max(2, _IFFT_BLOCK_BYTES // (16 * (half + k)))
    ends = list(range(step, h, step)) + [h + 1]
    blocks = list(zip([0] + ends[:-1], ends))
    group = max(1, _IFFT_BLOCK_BYTES // (16 * (rows + 1 + k + half // k) * step))
    buf = np.empty((min(step + 1, h + 1), half + k), dtype=complex)
    vals = np.empty((h + 1, 2 * keep))
    edge = np.empty((h + 1, 2))  # the imaginary parts of columns 0 and Q/2
    for g in range(0, len(blocks), group):
        chunk = blocks[g : g + group]
        first = chunk[0][0]
        t = np.arange(first, chunk[-1][1])[:, None]
        angle = (TWO_PI / m) * (t * r)
        cos, sin = np.cos(angle), np.sin(angle)
        tw1 = np.exp((2j * math.pi / p) * (t * s1))[:, None, :]
        tw2 = np.exp((2j * math.pi / p) * (t * s2))[:, :, None]
        for lo, hi in chunk:
            rel = slice(lo - first, hi - first)
            out = buf[: hi - lo]
            np.matmul(cos[rel], plus, out=out.real)
            np.matmul(sin[rel], minus, out=out.imag)
            view = out.reshape(hi - lo, half // k + 1, k)
            view *= tw1[rel]
            view *= tw2[rel]
            edge[lo:hi] = out.imag[:, : half + 1 : half]
            block = fft.irfft(out[:, : half + 1], q, axis=1, overwrite_x=True)
            vals[lo:hi, :keep] = block[:, :keep]
            vals[lo:hi, keep:] = block[:, q - keep :]
    residue = float(np.abs(edge).max())
    if not residue <= 1e-10:
        raise NumericalConsistencyError(
            f"imaginary residue {residue:.3g} exceeds 1e-10 in the inverse FFT"
        )
    return vals


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def _spectrum_band(k: Kernel, epsilon: float, m: int) -> int:
    """The band of a table's spectrum with M = ``m``, after the bandwidth check.

    The band is the first row r >= 1 where phihat(2 pi r) is below 2^-60 / M
    of phihat(pi), so of Lhat (see _log_shares).  From it on, no spectrum
    row or symbol shift is evaluated: the fewer than M Q slots left 0 move
    the table by under 2^-60.  One transform call reads rows 0 .. M//2, the
    edge pi M and the probe rows M, 2M, ... (at most _MAX_SHIFTS).  Only a
    band past M//2 takes a second, for the rows up to the first probe past
    it, but at most up to row _MAX_SLOTS // _MIN_PERIOD: Q is at least
    _MIN_PERIOD, so no build admits a band past it.  Such a band is found by
    bisection and returned without the check below, which the build's slot
    budget makes moot: a larger M does not narrow the band.  The values
    read give S(0), from phihat(0) and 2 phihat(2 pi r) below the band.
    The grid edge pi M must be below 1e-2 epsilon S(0), or BandwidthError
    suggests the first M = 2^j, pi 2^j <= 1e9, whose edge is.
    """
    _check_epsilon(epsilon)
    _check_width(k)
    cut = _LOG_CUT - math.log(m)
    h = m // 2
    probe = h << np.arange(1, (_MAX_SHIFTS // h).bit_length())
    # xi = 0 goes first, so a transform singular there raises SingularityError.
    shares = _log_shares(
        k, np.concatenate((TWO_PI * np.arange(h + 1), [math.pi * m], TWO_PI * probe))
    )
    rows, edge = shares[: h + 1], shares[h + 1]  # rows[r] is row r's
    if not rows[h] < cut:
        past = np.flatnonzero(shares[h + 2 :] < cut)
        if not past.size:
            raise BandwidthError(_TOO_SLOW)
        stop = int(probe[past[0]])
        dense = min(stop, _MAX_SLOTS // _MIN_PERIOD)
        if dense > h:
            rows = np.append(rows, _log_shares(k, TWO_PI * np.arange(h + 1, dense + 1)))
        if not rows[-1] < cut:
            # Past the rows any build admits: bisect between the last row
            # read and the probe, since the shares fall with |xi|.
            low = rows.size - 1
            while stop - low > 1:
                mid = (low + stop) // 2
                if _log_shares(k, np.array([TWO_PI * mid]))[0] < cut:
                    stop = mid
                else:
                    low = mid
            return stop
    band = 1 + int(np.argmax(rows[1:] < cut))
    log_s0 = rows[0] + math.log1p(2.0 * np.exp(rows[1:band] - rows[0]).sum())
    level = math.log(1e-2) + math.log(epsilon) + log_s0
    if edge >= level:
        below = np.flatnonzero(_log_shares(k, math.pi * 2.0 ** np.arange(29)) < level)
        if not below.size:
            raise BandwidthError(_TOO_SLOW)
        need = 1 << int(below[0])
        raise BandwidthError(
            f"spectral grid edge pi*M = {math.pi * m:.3g} is inside the active band; "
            f"increase M to at least {need}",
            suggested_m=need,
        )
    return band


def _mq_log_slots(k: Kernel, n: int, q: int) -> np.ndarray:
    """log phihat of a multiquadric on the slots 2 pi i / Q, i < n.

    The slots below _EXACT_SLOTS, every _FILL_STEP-th slot (anchor) from
    there to _FAR_SLOTS and every _FAR_STEP-th past it are evaluated.  Each
    run of slots from one anchor to the next is the _FILL_POINTS-point
    Lagrange rule through the anchors around it, one product of the anchor
    windows with the fixed weights of its step.  K_nu(z) has no zeros for
    Re z >= 0 (DLMF 10.42), so log phihat is analytic in the disk of radius
    i slots about slot i, and the Cauchy estimate bounds the rule's error by
    about max |log phihat| |w(s)| (step / i)^points, with w(s) = prod_j
    (s - j), j = -4 .. 5, at most 872.  Each halving of the exact slots
    multiplies that by 2^10: from 120 slots the fill was 1.5e4 ulp of
    max(1, |log phihat|) off the direct values, weighted by exp(log phihat
    - its residue's row-0 value), from 240 16.6 and from 480 11.2 ulp, the
    rounding of the anchors.  step / i is at most 8 / 480 on both stages:
    the far step is 4 times the near one and starts 4 times as far out.
    Past |nu| = _FILL_MAX_ORDER that rounding, which grows with the order,
    moved tables by more than 2 ulp (3.2e-16 at nu = 7.5, 7.7e-16 at
    nu = 32), so every slot is evaluated.

    A +inf value, a Bessel factor that overflows at a small c xi, raises
    KernelOverflowError here, before the fill could spread it as NaN.
    """
    points = _FILL_POINTS
    lead = points // 2 - 1  # anchors before the run a rule fills
    filled = abs(k.bessel_order) <= _FILL_MAX_ORDER
    exact = min(n, _EXACT_SLOTS) if filled else n
    # Each stage's anchors, from lead steps before its first run to the last
    # one its last run's rule reads.  The far stage's first anchors are near
    # ones, so each slot is evaluated once and idx is increasing.
    stages = []
    idx, last = [np.arange(exact)], exact - 1
    for start, stop, step, weights in (
        (_EXACT_SLOTS, min(n, _FAR_SLOTS), _FILL_STEP, _FILL_WEIGHTS),
        (_FAR_SLOTS, n, _FAR_STEP, _FAR_WEIGHTS),
    ):
        if filled and stop > start:
            nodes = start + step * np.arange(-lead, -(-(stop - start) // step) + points - lead - 1)
            stages.append((nodes, weights, stop - start))
            idx.append(nodes[nodes > last])
            last = nodes[-1]
    idx = np.concatenate(idx)
    logs = log_kernel_fourier(k, idx * (TWO_PI / q))
    if np.any(logs == math.inf):
        raise _overflow_error(k, "the transform")
    parts = [logs[:exact]]
    for nodes, weights, size in stages:
        anchors = logs[np.searchsorted(idx, nodes)]
        windows = _strided(anchors, (anchors.size - points + 1, points), (1, 1))
        parts.append((windows @ weights).ravel()[:size])
    return np.concatenate(parts) if stages else logs


def build_cardinal_table(
    k: Kernel, epsilon: float, N: int, M: int, interp_order: int = 4
) -> CardinalTable:
    """Sample the cardinal function L on [-N, N] at spacing 1/M via an FFT.

    The transform ``Lhat = phihat / S`` is sampled on a frequency grid
    commensurate with the 2 pi periodization (spacing ``2 pi / Q`` for an
    integer Q), which makes the inverse DFT reproduce the cardinal property
    ``L(j) = delta_{0 j}`` at integers up to rounding.  S sums every shift
    below the band (see :func:`_spectrum_band`).

    Beside the (band, Q) spectrum, capped at _MAX_SLOTS, and its pairs, a
    build holds the transform's kept columns, about half a table, the
    table, which :func:`_read_table` fills in place, and one block of
    :func:`_ifft_band`: for poisson c = 1, N = 32, eps = 1e-10 a traced
    peak of 3.11 MiB at M = 4096 and 12.4 MiB at M = 16384, for tables of
    2 and 8 MiB.

    A multiquadric with -1/2 <= alpha < 0 raises UnsupportedKernelError:
    its transform is singular at xi = 0, where every build samples it.
    """
    if N < 4 or M < 4:
        raise DomainError("table requires N >= 4 and M >= 4")
    if k.family == kmod.MULTIQUADRIC and -0.5 <= k.alpha < 0.0:
        raise UnsupportedKernelError(
            f"cardinal table requires alpha < -1/2: the transform of the multiquadric "
            f"alpha={k.alpha:g} is singular at xi = 0"
        )
    if M // 2 > _MAX_SHIFTS:
        raise DomainError(
            f"table requires M <= {2 * _MAX_SHIFTS + 1}: the band search reads at most "
            f"{_MAX_SHIFTS} spectrum rows"
        )
    band = _spectrum_band(k, epsilon, M)
    q = _next_pow2(max(_MIN_PERIOD, _PERIOD_FACTOR * N))
    if band * q > _MAX_SLOTS:
        raise BandwidthError(
            f"{_TOO_SLOW}: its spectrum needs {band} rows of {q} slots, over {_MAX_SLOTS}"
        )

    # log phihat on the flat slots xi = 2 pi i / Q, i < band Q, which hold
    # exactly the shifts below 2 pi band: as a (band, Q) array, column s
    # holds the shifts of symbol residue s, row r the xi in [2 pi r,
    # 2 pi (r + 1)).  Each residue's terms are divided by its largest, row 0
    # at column min(s, Q - s), in log space, and exponentiated once: these
    # shares lie in [0, 1].  Their pairs sum to S on residues 0 .. Q/2, at
    # least the residue's own top share 1, and one division of both pairs
    # by S gives the pairs of Lhat = share / S.  phihat and S are never
    # formed: for a wide kernel they underflow, or log S is so large that
    # a factor of 2 in S rounds away in it, while the shares and their
    # sums are order one.
    if k.family == kmod.MULTIQUADRIC:
        logs = _mq_log_slots(k, band * q, q)
    else:
        logs = log_kernel_fourier(k, np.arange(band * q) * (TWO_PI / q))
    rows, half = logs.reshape(band, q), q // 2
    top = rows[0, : half + 1].copy()
    rows[:, : half + 1] -= top
    rows[:, half + 1 :] -= top[half - 1 : 0 : -1]
    np.copyto(logs, -np.inf, where=logs < _LOG_TINY)
    np.exp(logs, out=logs)
    plus, minus, symbol = _pair_slots(rows)
    plus[:, : half + 1] /= symbol
    minus[:, : half + 1] /= symbol

    # Every family's transform depends on |xi| only, so the table's
    # spectrum is real and even and L is real: _ifft_band forms half of the
    # transform and checks what it drops.  Sampling L at spacing 1/M sums
    # the spectrum over the shifts 2 pi M k, which _ifft_band's column step
    # does for every row it reads.  It returns only the 2N + 4 columns
    # around j = 0 that _read_table reads.
    vals = _ifft_band(plus, minus, q, M, N)
    del logs, rows, plus, minus  # the read-out takes their memory
    return CardinalTable(k, N, M, _read_table(vals, N, M), epsilon, interp_order)


def _read_table(vals: np.ndarray, n: int, m: int) -> np.ndarray:
    """L(i / M), i = -N M .. N M, symmetrized, from the real (M//2 + 1, Q)
    transform of :func:`_ifft_band`, or any array of its first and last
    columns, at least N + 1 of each (Q below is the array's width).

    Output i = j M + t is entry [t, j] for t <= M/2, and entry
    [M - t, Q - 1 - j] for t > M/2.  Output p - i (p = M Q), which is
    L(-i / M), is the same entry except in the columns t = 0, where it is
    [0, Q - j], and t = M/2 for even M, where it is [M/2, Q - 1 - j]; only
    there does the average of L(i / M) and L(-i / M) differ from either.

    The grid is the right half of the output buffer, which is then mirrored
    into the left half: the build holds no second copy of the table.
    """
    q = vals.shape[1]
    h = m // 2
    nm = n * m
    buf = np.empty(2 * nm + m)
    grid = buf[nm:].reshape(n + 1, m)  # grid[j, t] = L((j M + t) / M)
    grid[:, : h + 1] = vals[: h + 1, : n + 1].T
    grid[:, h + 1 :] = vals[m - h - 1 : 0 : -1, q - n - 1 :][:, ::-1].T
    grid[1:, 0] = 0.5 * (vals[0, 1 : n + 1] + vals[0, q - 1 : q - n - 1 : -1])
    if m % 2 == 0:
        grid[:, h] = 0.5 * (vals[h, : n + 1] + vals[h, q - 1 : q - n - 2 : -1])
    buf[:nm] = buf[2 * nm : nm : -1]
    return buf[: 2 * nm + 1]


def _lagrange(values: np.ndarray, base: np.ndarray, s: np.ndarray, order: int) -> np.ndarray:
    """Lagrange rule through ``values[base + i]``, i < order, at offset ``s`` from base.

    ``order`` is 4 (cubic) or 2 (linear).  Stencil indices outside
    ``values`` read its nearest end value.  The stencil is one gather into
    an (order, ...) array.  Weight i is the product of ``s - j`` over the
    nodes j != i over its value at s = i, so it is exactly 1 at node i and
    0 at the others.
    """
    nodes = np.arange(order).reshape((order,) + (1,) * max(np.ndim(base), 1))
    stencil = np.take(values, base + nodes, mode="clip")
    d = s - nodes
    # w[i] = prod of d[j], j != i: prefix products, then suffix ones (in w[0]).
    w = np.empty_like(d)
    w[1] = d[0]
    for i in range(2, order):
        np.multiply(w[i - 1], d[i - 1], out=w[i])
    w[0] = d[-1]
    for i in range(order - 2, 0, -1):
        w[i] *= w[0]
        w[0] *= d[i]
    w /= _AT_NODE[order].reshape(nodes.shape)
    w *= stencil
    return w.sum(axis=0).reshape(np.shape(base))


def eval_cardinal(t: CardinalTable, x):
    """Evaluate the tabulated cardinal function at finite x, |x| <= N.

    Off-grid points use a centered 4-point cubic (or 2-point linear) rule;
    grid points are reproduced exactly.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    n, m = t.half_width_N, t.oversample_M
    if not np.all(np.abs(x_arr) <= n + 1e-12):
        raise OutOfRangeError(f"|x| exceeds table half-width {n}, or x is not finite")
    u = np.clip(x_arr * m + n * m, 0.0, 2.0 * n * m)
    order = t.interp_order
    base = np.clip(np.floor(u).astype(int) - (order // 2 - 1), 0, t.values.size - order)
    out = _lagrange(t.values, base, u - base, order)
    return float(out[0]) if scalar else out


def save_table(t: CardinalTable, path) -> None:
    """Write a table in the versioned text format (one value per line)."""
    k = t.kernel
    width = k.lam if k.family == GAUSSIAN else k.c
    alpha = k.alpha
    with open(path, "w") as fh:
        fh.write(
            f"cardinal-table v1 {k.family} {alpha!r} {width!r} "
            f"{t.epsilon!r} {t.half_width_N} {t.oversample_M} {t.interp_order}\n"
        )
        for v in t.values:
            fh.write(f"{v:.17g}\n")


def load_table(path) -> CardinalTable:
    """Read a table written by :func:`save_table`.

    A file that is not such a table, or has a field that does not parse,
    raises ``DomainError`` naming the file.
    """
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 9 or header[:2] != ["cardinal-table", "v1"]:
                raise ValueError("no cardinal-table v1 header")
            family = header[2]
            alpha, width, eps = map(float, header[3:6])
            n, m, order = map(int, header[6:])
            values = np.array([float(v) for v in fh.read().split()])
        kern = Kernel(family, alpha=alpha, **{"lam" if family == GAUSSIAN else "c": width})
        return CardinalTable(kern, n, m, values, eps, order)
    except ValueError as exc:
        raise DomainError(f"malformed cardinal-table file {path}: {exc}") from exc
