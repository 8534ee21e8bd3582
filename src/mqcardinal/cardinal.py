"""Truncated periodization and DFT-built cardinal function tables.

The cardinal function L associated with a kernel phi is defined in the
Fourier domain as ``Lhat(xi) = phihat(xi) / S(xi)`` where
``S(xi) = sum_k phihat(xi + 2 pi k)`` is the 2 pi-periodized symbol.  The
periodization is truncated to ``2 tau + 1`` terms, with tau chosen so the
truncation carries relative error at most epsilon; L itself is then sampled
on a uniform grid by an inverse FFT and evaluated off-grid by local
polynomial interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy import fft

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
    kernel_fourier,
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
# Spare complex values at the end of each row of the table build's (M, Q)
# spectrum array; see _half_spectrum.
_ROW_PAD = 8
# Zeros on each side of the table in the cardinal series convolution; see
# series_samples.
_SERIES_PAD = 2
# Log of the smallest normal double.  The table build sends log values
# below it to -inf before its one exp: numpy's exp is about 100 times
# slower on an input whose result is subnormal.
_LOG_TINY = math.log(np.finfo(float).tiny)
# Log of 2^-60.  Spectrum rows and symbol shifts whose transform values are
# below this share of phihat(pi) (split over the terms they add to) are not
# evaluated; see _first_negligible.
_LOG_CUT = -60.0 * math.log(2.0)
# Shifts the gaussian tau rule sums at most (lambda up to about 1e11).
_MAX_GAUSSIAN_SHIFTS = 1 << 20


@dataclass(frozen=True)
class TruncationPlan:
    """Number of periodization terms guaranteeing relative error epsilon.

    ``gamma`` is the exponential-decay prefactor of the transform tail and
    ``d_lower`` the constant of the symbol lower bound; both are recorded
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


def _phihat_envelope(k: Kernel, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    alpha, c = k.alpha, k.c
    nu = alpha + 0.5
    lam = _mq_tail_prefactor(k)
    return lam * r ** (-alpha - 1.0) * np.exp(-c * r + nu * nu / (2.0 * c * r))


def _symbol_terms(k: Kernel, tau: int, xi_star: np.ndarray, log_scale=0.0) -> np.ndarray:
    """Symbol truncated to shifts |j| <= tau, on an array of reduced
    frequencies, with every term divided by ``exp(log_scale)``.

    One transform call covers the whole (2 tau + 1, ...) shift grid; the
    rows are then added in the order j = -tau .. tau.
    """
    args = np.add.outer(TWO_PI * np.arange(-tau, tau + 1), xi_star)
    vals = _exp_transform(k, log_kernel_fourier(k, args) - log_scale)
    total = np.zeros_like(xi_star)
    for row in vals:
        total += row
    return total


def _empirical_symbol_min(k: Kernel, tau0: int = 50, grid: int = 512) -> float:
    # The symbol is even, so its minimum over (-pi, pi] is taken on [0, pi].
    # Of the shifts |j| <= tau0, those from the first j with
    # phihat(2 pi j - pi) below 2^-60 / (2 tau0 + 1) of phihat(pi) on add
    # less than 2^-60 of the sum together, and are left out.
    xs = (-math.pi + TWO_PI * (np.arange(grid) + 1.0) / grid)[grid // 2 - 1 :]
    shifts = TWO_PI * np.arange(1, tau0 + 1) - math.pi
    tau = _first_negligible(k, shifts, _LOG_CUT - math.log(2 * tau0 + 1))
    return float(_symbol_terms(k, tau, xs).min())


def _gaussian_tail_tau(lam: float, epsilon: float) -> int:
    """Smallest tau >= 1 whose dropped shifts of S(pi) sum to at most epsilon
    of its largest term.

    The shifts -j and j - 1 of S(pi) are each phihat((2j - 1) pi) =
    exp(-j (j - 1) pi^2 / lam) phihat(pi), so the shifts |j| > tau sum to
    at most twice that over j > tau.  The first term past the last one
    summed here is below exp(-40) epsilon, and within the shift cap all of
    them together are below exp(-31) epsilon.
    """
    a = math.pi**2 / lam
    last = math.ceil(math.sqrt((40.0 - math.log(epsilon / 2.0)) / a)) + 2
    if last > _MAX_GAUSSIAN_SHIFTS:
        raise UnsupportedKernelError(
            f"gaussian lambda={lam:g} is too narrow: its symbol needs over "
            f"{_MAX_GAUSSIAN_SHIFTS} shifts"
        )
    j = np.arange(2.0, last + 1.0)  # the j = 1 term, 1, never meets epsilon
    tail = np.cumsum(np.exp(-j * (j - 1.0) * a)[::-1])[::-1]  # tail[t] = sum_{j > t + 1}
    return 1 + int(np.argmax(2.0 * tail <= epsilon))


def _first_negligible(k: Kernel, xi: np.ndarray, log_share: float) -> int:
    """Index of the first frequency in the increasing array ``xi`` (all
    >= pi) where ``phihat(xi) < exp(log_share) * phihat(pi)``; ``xi.size``
    if there is none.

    phihat decreases in |xi| for every family, and every symbol value
    S(xi*), |xi*| <= pi, has the term phihat(xi*) >= phihat(pi).  So from
    that index on, each transform value is below ``exp(log_share)`` of any
    symbol value.
    """
    logs = log_kernel_fourier(k, np.concatenate(([math.pi], xi)))
    hit = np.flatnonzero(logs[1:] - logs[0] < log_share)
    return int(hit[0]) if hit.size else xi.size


def compute_tau(k: Kernel, epsilon: float) -> TruncationPlan:
    """Choose the truncation parameter tau for the periodized symbol.

    Family-specific sufficient conditions are used: a closed-form bound for
    the alpha = -1 (Poisson) transform, the generic exponential-envelope
    bound for -1 < alpha < 0, a certified numerical tail search for
    alpha < -1 (where no analytic lower-bound constant is available), and
    for the gaussian the larger of a linear-in-log(eps) rule and the
    lambda-dependent tail bound of :func:`_gaussian_tail_tau`.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")

    if k.family == GAUSSIAN:
        tau = max(
            math.ceil(2.0 / math.pi**2 * abs(math.log(epsilon / 4.0)) + 4.0),
            _gaussian_tail_tau(k.lam, epsilon),
        )
        gamma = math.sqrt(math.pi / k.lam)
        d_lower = gamma * math.exp(-math.pi**2 / (4.0 * k.lam))
        return TruncationPlan(k, epsilon, tau, gamma, d_lower)

    if k.alpha >= 0:
        raise UnsupportedKernelError("cardinal pipeline requires alpha < 0")

    c = k.c
    if k.alpha == -1.0:
        gamma = math.pi / c
        d_lower = 1.0 / (2.0 * c * math.sqrt(2.0))
        tau = math.ceil(1.0 + math.log(gamma / epsilon) / (TWO_PI * c))
        return TruncationPlan(k, epsilon, max(1, tau), gamma, d_lower)

    if k.alpha > -1.0:
        lam = _mq_tail_prefactor(k)
        nu = k.alpha + 0.5
        gamma = _finite_constant(
            k, lambda: lam * math.pi ** (-k.alpha - 1.0) * math.exp(nu * nu / (2.0 * c * math.pi))
        )
        beta = 0.5
        d_scale = _finite_constant(
            k,
            lambda: (
                beta * 2.0 ** (1.0 + k.alpha) / math.gamma(-k.alpha) * c**k.alpha
                * TWO_PI ** (-k.alpha - 1.0)
            ),
        )
        e2 = math.exp(-TWO_PI * c)
        d_lower = d_scale * e2
        # tau is formed in log space: d_lower underflows for c >~ 113 and
        # cosh(c pi) overflows for c >~ 226, while tau itself stays small.
        log_cosh = c * math.pi + math.log1p(e2) - math.log(2.0)
        tau = math.ceil(
            1.0
            + (
                math.log(1.0 / epsilon)
                + math.log(2.0 * gamma)
                + log_cosh
                - (math.log(d_scale) - TWO_PI * c)
                - math.log1p(-e2)
            )
            / (TWO_PI * c)
        )
        return TruncationPlan(k, epsilon, max(1, tau), gamma, d_lower)

    # alpha < -1: certified search against an empirical symbol minimum.
    d_lower = 0.5 * _empirical_symbol_min(k)
    ks = np.arange(1, 2001)
    terms = _phihat_envelope(k, TWO_PI * ks - math.pi) + _phihat_envelope(
        k, TWO_PI * ks + math.pi
    )
    suffix = np.cumsum(terms[::-1])[::-1]  # suffix[j] = tail beyond tau = j
    target = epsilon * d_lower
    ok = np.nonzero(suffix <= target)[0]
    if ok.size == 0:
        raise UnsupportedKernelError("no admissible tau within search range")
    tau = max(1, int(ok[0]))
    gamma = _mq_tail_prefactor(k)
    return TruncationPlan(k, epsilon, tau, gamma, d_lower)


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
    return fft.next_fast_len(
        max(2 * half, 2 * (t.half_width_N // 2)) + _phase_rows(t), real=True
    )


def _phase_spectrum(t: CardinalTable, length: int) -> np.ndarray:
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


def _half_spectrum(m: int, q: int, f, rows: int) -> np.ndarray:
    """First half of an even real spectrum in FFT order, a complex (M, Q) array.

    Flat slots i = 0 .. p/2 (p = M Q) in the first ``rows`` rows (at most
    M//2 + 1, which hold them all) hold ``f(2 pi i / Q)``; the others, and
    the imaginary part, are zero until :func:`_mirror_half` fills them.
    ``f`` is called on one row of Q frequencies at a time, so the array
    itself is the only large allocation.  The array is a view whose rows
    lie ``Q + _ROW_PAD`` values apart: with rows exactly Q values apart,
    a power-of-2 number of bytes, every value of a column falls into the
    same few cache sets, and the transforms down the columns run slower,
    by an amount that depends on where the array lands in memory.
    """
    out = np.zeros((m, q + _ROW_PAD), dtype=complex)[:, :q]
    half = m * q // 2
    for r in range(rows):
        c1 = min(q, half + 1 - r * q)
        out.real[r, :c1] = f((r * q + np.arange(c1)) * (TWO_PI / q))
    return out


def _mirror_half(spec: np.ndarray, rows: int) -> None:
    """Make the flat form of the real (M, Q) array even, in place: slot
    p - i takes the value of slot i, for the slots i = 1 .. p/2 (p = M Q)
    in the first ``rows`` rows."""
    m, q = spec.shape
    half = m * q // 2
    for r in range(rows):
        c1 = min(q, half + 1 - r * q)
        # Slot r Q + c mirrors to (M - 1 - r, Q - c) for c >= 1 and to
        # (M - r, 0) for c = 0 (slot 0 is its own mirror).
        spec[m - 1 - r, q - c1 + 1 :] = spec[r, c1 - 1 : 0 : -1]
        if r:
            spec[m - r, 0] = spec[r, 0]


def _mirror_residues(half: np.ndarray) -> np.ndarray:
    """Values on residues 0 .. Q-1 from those on 0 .. Q/2: residue s > Q/2
    takes the value of Q - s."""
    return np.concatenate((half, half[-2:0:-1]))


def _symbol_rows(spec: np.ndarray, tau: int, f, band: int) -> np.ndarray:
    """Rows 0 .. tau of the spectrum: ``f(2 pi (r + s / Q))`` in row r, column s.

    ``_half_spectrum`` holds them whole for r < M//2; any rows from M//2 up
    to tau are evaluated here.  With ``band`` <= tau, the rows stop at row
    ``band``, which is -inf (the log of 0): ``f`` is then a log transform,
    negligible from that row on.  Row ``band`` still has to be there, since
    the fold reads shift -band from row band - 1.
    """
    m, q = spec.shape
    last = min(tau, band - 1)
    whole = min(last + 1, m // 2)
    parts = [spec[:whole]]
    if whole <= last:
        slots = np.arange(whole, last + 1)[:, None] * q + np.arange(q)
        parts.append(f(slots * (TWO_PI / q)))
    if last < tau:
        parts.append(np.full((1, q), -np.inf))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _fold_symbol(rows: np.ndarray) -> np.ndarray:
    """Truncated symbol on the Q residues 2 pi s / Q from spectrum rows 0 .. tau.

    Row r holds phihat(2 pi (r + s / Q)) in column s.  For s <= Q/2 the
    shift j >= 0 is row j of column s, and the shift j < 0 is row |j| - 1
    of column Q - s, or row |j| of column 0 when s = 0.  Each sum runs
    from the smallest terms, row tau, up to row 0.
    """
    h = rows.shape[1] // 2
    half = rows[::-1, : h + 1].sum(axis=0)
    half[0] += rows[:0:-1, 0].sum()
    half[1:] += rows[-2::-1, : h - 1 : -1].sum(axis=0)
    return _mirror_residues(half)


def _log_fold_symbol(log_rows: np.ndarray) -> np.ndarray:
    """``log(_fold_symbol(exp(log_rows)))`` with no under- or overflow.

    The largest term of residue s is row 0 at column min(s, Q - s); each
    residue's terms are scaled by it before the sum, and it is added back
    after the log.
    """
    top = _mirror_residues(log_rows[0, : log_rows.shape[1] // 2 + 1])
    return top + np.log(_fold_symbol(np.exp(log_rows - top)))


def _ifft_even(a: np.ndarray) -> np.ndarray:
    """Rows 0 .. M//2 of ``M * ifft(a.ravel())`` for an even sequence, in place.

    ``a`` is a complex (M, Q) array, Q a power of 2, whose flat form is
    even: ``a.flat[i] == a.flat[p - i]`` (p = M Q).  Entry ``[t, j]`` of the
    result is output ``j M + t``.  Writing the input index as ``Q r + s``
    and the output index as ``j M + t``, the length-p transform splits into
    length-M transforms down the columns, a twiddle ``exp(2 pi i s t / p)``
    and length-Q transforms along the rows (the four-step FFT).  The output
    of an even sequence is even, and output ``j M + t`` for t > M/2 equals
    output ``(Q - 1 - j) M + (M - t)``, so only rows t <= M/2 go through the
    last two steps.  The short transforms keep the FFT's own scratch small:
    a table build allocates one large array, whose pages the next build
    reuses instead of faulting them in again.
    """
    m, q = a.shape
    p = m * q
    fft.ifft(a, axis=0, norm="forward", overwrite_x=True)
    rows = a[: m // 2 + 1]
    # The twiddle factors as exp(2 pi i t s1 / p) * exp(2 pi i t K s2 / p)
    # for s = s1 + K s2, so no (M, Q) array of it is formed.
    k = 1 << (q.bit_length() - 1) // 2
    t = np.arange(rows.shape[0])[:, None]
    view = rows.reshape(rows.shape[0], q // k, k)
    view *= np.exp((2j * math.pi / p) * (t * np.arange(k)))[:, None, :]
    view *= np.exp((2j * math.pi / p) * (t * (k * np.arange(q // k))))[:, :, None]
    return fft.ifft(rows, axis=1, overwrite_x=True)


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def _required_bandwidth(k: Kernel, plan: TruncationPlan, s_zero: float) -> float:
    threshold = plan.epsilon * 1e-2 * s_zero
    xi = math.pi
    while kernel_fourier(k, xi) >= threshold:
        xi *= 2.0
        if xi > 1e9:
            raise BandwidthError("kernel transform decays too slowly to tabulate")
    return xi


def build_cardinal_table(
    k: Kernel, epsilon: float, N: int, M: int, interp_order: int = 4
) -> CardinalTable:
    """Sample the cardinal function L on [-N, N] at spacing 1/M via an FFT.

    The transform ``Lhat = phihat / S_tau`` is sampled on a frequency grid
    commensurate with the 2 pi periodization (spacing ``2 pi / Q`` for an
    integer Q), which makes the inverse DFT reproduce the cardinal property
    ``L(j) = delta_{0 j}`` at integers up to the truncation tolerance.
    """
    if N < 4 or M < 4:
        raise DomainError("table requires N >= 4 and M >= 4")
    plan = compute_tau(k, epsilon)

    q = _next_pow2(max(_MIN_PERIOD, _PERIOD_FACTOR * N))
    s_zero = float(_symbol_terms(k, plan.tau, np.zeros(1))[0])

    # The grid must cover the band where Lhat is above tolerance.
    xi_edge = math.pi * M
    if kernel_fourier(k, xi_edge) >= plan.epsilon * 1e-2 * s_zero:
        need = _required_bandwidth(k, plan, s_zero)
        raise BandwidthError(
            f"spectral grid edge pi*M = {xi_edge:.3g} is inside the active band; "
            f"increase M to at least {math.ceil(need / math.pi)}",
            suggested_m=math.ceil(need / math.pi),
        )

    # Lhat on xi = 2 pi m / Q, m in FFT order (p = Q M), laid out as an
    # (M, Q) array: column s holds the slots of symbol residue s, row r the
    # xi in [2 pi r, 2 pi (r + 1)).  Every family's transform depends on
    # |xi| only, so Lhat is formed for m <= p/2, in the first M//2 + 1 rows,
    # and then mirrored.  The symbol is folded from the same values.
    # phihat/S is formed in log space: for wide kernels both numerator and
    # denominator underflow while their ratio is order one.
    #
    # Lhat <= phihat(2 pi r) / phihat(pi) on row r >= 1 (see
    # _first_negligible), so from the first row where that is below
    # 2^-60 / M, the band, neither the rows nor the symbol shifts they hold
    # are evaluated.  The slots left 0, fewer than M Q, each move a table
    # value by under 2^-60 / (M Q), so all of them by under 2^-60.
    f = partial(log_kernel_fourier, k)
    reach = max(M // 2, plan.tau)
    band = 1 + _first_negligible(
        k, TWO_PI * np.arange(1, reach + 1), _LOG_CUT - math.log(M)
    )
    rows = min(band, M // 2 + 1)
    lhat = _half_spectrum(M, q, f, rows)
    spec = lhat.real
    head = spec[:rows]
    if rows == M // 2 + 1:
        head[-1, M * q // 2 - (M // 2) * q + 1 :] = -np.inf  # slots past p/2
    head -= _log_fold_symbol(_symbol_rows(spec, plan.tau, f, band))
    head[head < _LOG_TINY] = -np.inf
    np.exp(head, out=head)
    _mirror_half(spec, rows)

    vals = _ifft_even(lhat)
    imag = vals.imag
    imag_max = max(float(imag.max()), -float(imag.min()))
    if not imag_max <= 1e-10:
        raise NumericalConsistencyError(
            f"imaginary residue {imag_max:.3g} exceeds 1e-10 after inverse FFT"
        )
    return CardinalTable(k, N, M, _read_table(vals.real, N, M), epsilon, interp_order)


def _read_table(vals: np.ndarray, n: int, m: int) -> np.ndarray:
    """L(i / M), i = -N M .. N M, symmetrized, from the (M//2 + 1, Q) output
    of :func:`_ifft_even`.

    Output i = j M + t is entry [t, j] for t <= M/2, and entry
    [M - t, Q - 1 - j] for t > M/2.  Output p - i (p = M Q), which is
    L(-i / M), is the same entry except in the columns t = 0, where it is
    [0, Q - j], and t = M/2 for even M, where it is [M/2, Q - 1 - j]; only
    there does the average of L(i / M) and L(-i / M) differ from either.
    """
    q = vals.shape[1]
    h = m // 2
    grid = np.empty((n + 1, m))  # grid[j, t] = L((j M + t) / M)
    grid[:, : h + 1] = vals[: h + 1, : n + 1].T
    grid[:, h + 1 :] = vals[m - h - 1 : 0 : -1, q - n - 1 :][:, ::-1].T
    grid[1:, 0] = 0.5 * (vals[0, 1 : n + 1] + vals[0, q - 1 : q - n - 1 : -1])
    if m % 2 == 0:
        grid[:, h] = 0.5 * (vals[h, : n + 1] + vals[h, q - 1 : q - n - 2 : -1])
    half = grid.ravel()[: n * m + 1]
    return np.concatenate((half[:0:-1], half))


def _lagrange(values: np.ndarray, base: np.ndarray, s: np.ndarray, order: int) -> np.ndarray:
    """Lagrange rule through ``values[base + i]``, i < order, at offset ``s`` from base.

    ``order`` is 4 (cubic) or 2 (linear).  Stencil indices outside
    ``values`` read its nearest end value.
    """

    def v(i):
        return np.take(values, base + i, mode="clip")

    if order == 2:
        return (1.0 - s) * v(0) + s * v(1)
    w0 = -(s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0
    w1 = s * (s - 2.0) * (s - 3.0) / 2.0
    w2 = -s * (s - 1.0) * (s - 3.0) / 2.0
    w3 = s * (s - 1.0) * (s - 2.0) / 6.0
    return v(0) * w0 + v(1) * w1 + v(2) * w2 + v(3) * w3


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
    """Read a table written by :func:`save_table`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 9 or header[:2] != ["cardinal-table", "v1"]:
            raise DomainError(f"not a cardinal-table v1 file: {path}")
        family = header[2]
        alpha, width, eps = float(header[3]), float(header[4]), float(header[5])
        n, m, order = int(header[6]), int(header[7]), int(header[8])
        values = np.array([float(line) for line in fh if line.strip()])
    if family == GAUSSIAN:
        kern = kmod.gaussian(width)
    elif family == kmod.POISSON:
        kern = kmod.poisson(width)
    else:
        kern = kmod.multiquadric(alpha, width)
    return CardinalTable(kern, n, m, values, eps, order)
