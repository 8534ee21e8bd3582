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

import numpy as np
from scipy import fft

from . import kernels as kmod
from .errors import (
    BandwidthError,
    DomainError,
    NumericalConsistencyError,
    OutOfRangeError,
    SingularityError,
    UnsupportedKernelError,
)
from .kernels import GAUSSIAN, Kernel, kernel_fourier, kernel_fourier_at_zero

TWO_PI = 2.0 * math.pi

# Internal spatial period (in lattice units) of the FFT reconstruction is at
# least this many times the table half-width, so wrap-around of the cardinal
# function's algebraic tail stays below the table tolerance.
_MIN_PERIOD = 2048
_PERIOD_FACTOR = 8
# Spare complex values at the end of each row of the table build's (M, Q)
# spectrum array; see _even_spectrum.
_ROW_PAD = 8


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


def _mq_tail_prefactor(alpha: float, c: float) -> float:
    # phihat(r) <= lam * r^(-alpha-1) * e^(-c r) * e^(nu^2 / (2 c r))
    return 2.0 ** (1.0 + alpha) / math.gamma(-alpha) * c**alpha * TWO_PI


def _phihat_envelope(alpha: float, c: float, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    nu = alpha + 0.5
    lam = _mq_tail_prefactor(alpha, c)
    return lam * r ** (-alpha - 1.0) * np.exp(-c * r + nu * nu / (2.0 * c * r))


def _symbol_terms(k: Kernel, tau: int, xi_star: np.ndarray) -> np.ndarray:
    """Symbol truncated to shifts |j| <= tau, on an array of reduced frequencies."""
    total = np.zeros_like(xi_star)
    for j in range(-tau, tau + 1):
        args = xi_star + TWO_PI * j
        vals = np.empty_like(args)
        nz = args != 0.0
        if np.any(~nz):
            if k.family != GAUSSIAN and k.alpha >= -0.5:
                raise SingularityError(
                    "periodized symbol hits the non-integrable xi = 0 singularity"
                )
            vals[~nz] = kernel_fourier_at_zero(k)
        vals[nz] = kernel_fourier(k, args[nz])
        total += vals
    return total


def _empirical_symbol_min(k: Kernel, tau0: int = 50, grid: int = 512) -> float:
    # The symbol is even, so its minimum over (-pi, pi] is taken on [0, pi].
    xs = (-math.pi + TWO_PI * (np.arange(grid) + 1.0) / grid)[grid // 2 - 1 :]
    return float(_symbol_terms(k, tau0, xs).min())


def compute_tau(k: Kernel, epsilon: float) -> TruncationPlan:
    """Choose the truncation parameter tau for the periodized symbol.

    Family-specific sufficient conditions are used: a closed-form bound for
    the alpha = -1 (Poisson) transform, the generic exponential-envelope
    bound for -1 < alpha < 0, a certified numerical tail search for
    alpha < -1 (where no analytic lower-bound constant is available), and
    the fixed linear-in-log(eps) rule for the gaussian.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")

    if k.family == GAUSSIAN:
        tau = math.ceil(2.0 / math.pi**2 * abs(math.log(epsilon / 4.0)) + 4.0)
        gamma = math.sqrt(math.pi / k.lam)
        d_lower = gamma * math.exp(-math.pi**2 / (4.0 * k.lam))
        return TruncationPlan(k, epsilon, max(1, tau), gamma, d_lower)

    if k.alpha >= 0:
        raise UnsupportedKernelError("cardinal pipeline requires alpha < 0")

    c = k.c
    if k.alpha == -1.0:
        gamma = math.pi / c
        d_lower = 1.0 / (2.0 * c * math.sqrt(2.0))
        tau = math.ceil(1.0 + math.log(gamma / epsilon) / (TWO_PI * c))
        return TruncationPlan(k, epsilon, max(1, tau), gamma, d_lower)

    if k.alpha > -1.0:
        lam = _mq_tail_prefactor(k.alpha, c)
        nu = k.alpha + 0.5
        gamma = lam * math.pi ** (-k.alpha - 1.0) * math.exp(nu * nu / (2.0 * c * math.pi))
        beta = 0.5
        d_scale = (
            beta * 2.0 ** (1.0 + k.alpha) / math.gamma(-k.alpha) * c**k.alpha
            * TWO_PI ** (-k.alpha - 1.0)
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
    terms = _phihat_envelope(k.alpha, c, TWO_PI * ks - math.pi) + _phihat_envelope(
        k.alpha, c, TWO_PI * ks + math.pi
    )
    suffix = np.cumsum(terms[::-1])[::-1]  # suffix[j] = tail beyond tau = j
    target = epsilon * d_lower
    ok = np.nonzero(suffix <= target)[0]
    if ok.size == 0:
        raise UnsupportedKernelError("no admissible tau within search range")
    tau = max(1, int(ok[0]))
    gamma = _mq_tail_prefactor(k.alpha, c)
    return TruncationPlan(k, epsilon, tau, gamma, d_lower)


def reduce_frequency(xi: float) -> float:
    """Map xi to its 2 pi-periodic representative in (-pi, pi]."""
    r = xi - TWO_PI * math.floor(xi / TWO_PI + 0.5)
    if r <= -math.pi:
        r += TWO_PI
    return r


def periodized_symbol(plan: TruncationPlan, xi: float) -> float:
    """Truncated 2 pi-periodization S_tau(xi) of the kernel transform."""
    xi_star = np.array([reduce_frequency(float(xi))])
    return float(_symbol_terms(plan.kernel, plan.tau, xi_star)[0])


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


def cardinal_hat(plan: TruncationPlan, xi: float) -> float:
    """Fourier transform of the cardinal function: phihat(xi) / S_tau(xi)."""
    k = plan.kernel
    xi = float(xi)
    xi_star = reduce_frequency(xi)
    if xi_star == 0.0 and k.family != GAUSSIAN and -0.5 <= k.alpha < 0.0:
        # Removable limit: phihat blows up at the lattice point itself.
        return 1.0 if xi == 0.0 else 0.0
    s = periodized_symbol(plan, xi)
    if xi == 0.0:
        num = kernel_fourier_at_zero(k)
    else:
        num = kernel_fourier(k, xi)
    return num / s


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


def _even_spectrum(m: int, q: int, f, at_zero: float) -> np.ndarray:
    """Even real spectrum in FFT order, as a complex (M, Q) array.

    Flat slots i and p - i (p = M Q) both hold ``f(2 pi i / Q)`` for
    i = 1 .. p/2, slot 0 holds ``at_zero``, and the imaginary part is zero.
    ``f`` is called on one row of Q frequencies at a time, so the array
    itself is the only large allocation.  The array is a view whose rows
    lie ``Q + _ROW_PAD`` values apart: with rows exactly Q values apart,
    a power-of-2 number of bytes, every value of a column falls into the
    same few cache sets, and the transforms down the columns run slower,
    by an amount that depends on where the array lands in memory.
    """
    out = np.zeros((m, q + _ROW_PAD), dtype=complex)[:, :q]
    spec = out.real
    spec[0, 0] = at_zero
    half = m * q // 2
    for r in range(half // q + 1):
        c0, c1 = (1 if r == 0 else 0), min(q, half + 1 - r * q)
        vals = f((r * q + np.arange(c0, c1)) * (TWO_PI / q))
        spec[r, c0:c1] = vals
        # Slot r Q + c mirrors to (M - 1 - r, Q - c) for c >= 1 and to
        # (M - r, 0) for c = 0.
        lo = max(c0, 1)
        spec[m - 1 - r, q - c1 + 1 : q - lo + 1] = vals[lo - c0 :][::-1]
        if c0 == 0:
            spec[m - r, 0] = vals[0]
    return out


def _mirror_residues(half: np.ndarray) -> np.ndarray:
    """Values on residues 0 .. Q-1 from those on 0 .. Q/2: residue s > Q/2
    takes the value of Q - s."""
    return np.concatenate((half, half[-2:0:-1]))


def _symbol_rows(spec: np.ndarray, tau: int, f) -> np.ndarray:
    """Rows 0 .. tau of the spectrum: ``f(2 pi (r + s / Q))`` in row r, column s.

    ``_even_spectrum`` holds them whole for r < M//2; any rows from M//2 up
    to tau are evaluated here.
    """
    m, q = spec.shape
    whole = min(tau + 1, m // 2)
    if whole == tau + 1:
        return spec[:whole]
    slots = np.arange(whole, tau + 1)[:, None] * q + np.arange(q)
    return np.concatenate((spec[:whole], f(slots * (TWO_PI / q))))


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
    # (M, Q) array: column s holds the slots of symbol residue s.  Every
    # family's transform depends on |xi| only, so it is evaluated for
    # m <= p/2 and mirrored.  The symbol is folded from the same values.
    if k.family == GAUSSIAN:
        # Log of phihat up to a constant, which cancels in phihat/S.
        f, at_zero = (lambda xi: -xi * xi / (4.0 * k.lam)), 0.0
    else:
        f, at_zero = (lambda xi: kernel_fourier(k, xi)), kernel_fourier_at_zero(k)
    lhat = _even_spectrum(M, q, f, at_zero)
    spec = lhat.real
    rows = _symbol_rows(spec, plan.tau, f)
    if k.family == GAUSSIAN:
        # Form phihat/S in log space: for flat gaussians both numerator and
        # denominator underflow while their ratio is order one.
        spec -= _log_fold_symbol(rows)
        np.exp(spec, out=spec)
    else:
        s_res = _fold_symbol(rows)
        if np.min(s_res) <= 0.0:
            raise NumericalConsistencyError(
                "periodized symbol underflowed to zero; kernel too flat for this grid"
            )
        spec /= s_res

    vals = _ifft_even(lhat)
    imag = vals.imag
    imag_max = max(float(imag.max()), -float(imag.min()))
    if imag_max > 1e-10:
        raise NumericalConsistencyError(
            f"imaginary residue {imag_max:.3g} exceeds 1e-10 after inverse FFT"
        )
    # L(n / M) for n = -N M .. N M: output n mod p is entry [t, j] of vals,
    # or its mirror entry when t > M/2.
    idx = np.arange(-N * M, N * M + 1) % (M * q)
    t, j = idx % M, idx // M
    far = t > M // 2
    raw = vals.real[np.where(far, M - t, t), np.where(far, q - 1 - j, j)]
    sym = 0.5 * (raw + raw[::-1])
    return CardinalTable(k, N, M, sym, epsilon, interp_order)


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
    """Evaluate the tabulated cardinal function at x, |x| <= N.

    Off-grid points use a centered 4-point cubic (or 2-point linear) rule;
    grid points are reproduced exactly.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    n, m = t.half_width_N, t.oversample_M
    if np.any(np.abs(x_arr) > n + 1e-12):
        raise OutOfRangeError(f"|x| exceeds table half-width {n}")
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
