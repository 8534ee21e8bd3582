"""Radial kernels and their Fourier transforms.

Supported kernels
-----------------
general multiquadric   phi(x) = (x^2 + c^2)^alpha,  alpha < 0 for the
                       Fourier pipeline
poisson                the alpha = -1 multiquadric; its transform has the
                       closed form (pi/c) * exp(-c|xi|)
gaussian               g(x) = exp(-lambda x^2)

The Fourier convention throughout is ``fhat(xi) = int f(x) exp(-i x xi) dx``,
so the generic multiquadric transform is

    sqrt(2 pi) * 2^(1+alpha)/Gamma(-alpha) * (c/|xi|)^(alpha+1/2)
        * K_{alpha+1/2}(c |xi|)

with K the modified Bessel function of the second kind.  Each family's
transform is written once, as its logarithm, in :func:`log_kernel_fourier`;
:func:`kernel_fourier` is its exp and :func:`kernel_fourier_at_zero` its
value at xi = 0.  The log does not underflow where the transform does, so
the cardinal layer divides by the periodized symbol in log space.  All
functions in this module are pure and accept scalars or numpy arrays for
the evaluation variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    DivergenceError,
    DomainError,
    KernelOverflowError,
    SingularityError,
    UnsupportedKernelError,
)

MULTIQUADRIC = "multiquadric"
POISSON = "poisson"
GAUSSIAN = "gaussian"

_FAMILIES = (MULTIQUADRIC, POISSON, GAUSSIAN)


@dataclass(frozen=True)
class Kernel:
    """A radial basis kernel with its parameters.

    ``alpha`` and ``c`` apply to the multiquadric/poisson families,
    ``lam`` to the gaussian.  Unused parameters are stored as ``nan``.
    """

    family: str
    alpha: float = float("nan")
    c: float = float("nan")
    lam: float = float("nan")

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if self.family == GAUSSIAN:
            if not (np.isfinite(self.lam) and self.lam > 0):
                raise DomainError("gaussian kernel requires lambda > 0")
        else:
            if not (np.isfinite(self.c) and self.c > 0):
                raise DomainError("multiquadric kernel requires c > 0")
            if not np.isfinite(self.alpha):
                raise DomainError("multiquadric kernel requires finite alpha")
            if self.family == POISSON and self.alpha != -1.0:
                raise DomainError("poisson kernel is the alpha = -1 multiquadric")

    @property
    def bessel_order(self) -> float:
        """Order alpha + 1/2 of the Bessel factor in the transform."""
        return self.alpha + 0.5


def multiquadric(alpha: float, c: float) -> Kernel:
    """General multiquadric (x^2 + c^2)^alpha."""
    return Kernel(MULTIQUADRIC, alpha=float(alpha), c=float(c))


def poisson(c: float) -> Kernel:
    """Poisson kernel: the alpha = -1 multiquadric with closed-form transform."""
    return Kernel(POISSON, alpha=-1.0, c=float(c))


def gaussian(lam: float) -> Kernel:
    """Gaussian kernel exp(-lambda x^2)."""
    return Kernel(GAUSSIAN, lam=float(lam))


def _check_r(r):
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("bessel_k requires finite r")
    if np.any(r <= 0):
        raise DomainError("bessel_k requires r > 0")
    return r


# Integer and half-integer orders up to this one run an upward recurrence,
# one step per order; higher ones go to kve, so an order like 1e20 cannot stall.
_MAX_RECURRENCE_ORDER = 64
# scipy's kve returns nan past r of about 1.07e9; from this r on, e^r K_nu(r)
# is its asymptotic series, whose fifth term there is below 1e-21 for every
# order below 172 (larger ones overflow Gamma(-alpha) first).
_KVE_LARGE = 1e8


def _k_upward(order: float, k_lo, k_hi, r: np.ndarray, steps: int):
    """K_{order + steps}(r) from K_{order - 1} and K_order by the upward
    recurrence K_{v+1} = K_{v-1} + (2 v / r) K_v, which is stable for K."""
    for _ in range(steps):
        k_lo, k_hi = k_hi, k_lo + (2.0 * order / r) * k_hi
        order += 1.0
    return k_hi


def _ke_asymptotic(nu: float, r: np.ndarray) -> np.ndarray:
    """sqrt(pi / (2 r)) sum_k prod_{j <= k} (4 nu^2 - (2 j - 1)^2) / (8 j r), k <= 4."""
    steps = [(4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j * r) for j in range(1, 5)]
    terms = np.cumprod(steps, axis=0)
    # pi / 2 / r is pi / (2 r) bit for bit, and stays nonzero up to the
    # largest double r, where 2 r overflows.
    return np.sqrt(np.pi / 2.0 / r) * (1.0 + terms.sum(axis=0))


def _bessel_ke(nu: float, r: np.ndarray) -> np.ndarray:
    """Exponentially scaled e^r K_nu(r) on an array of r > 0.

    Symmetric in the order (K_nu = K_{-nu}).  Half-integer orders up to
    ``_MAX_RECURRENCE_ORDER`` use the closed elementary form
    e^r K_{1/2}(r) = sqrt(pi/(2r)), integer ones Cephes' k0e and k1e, each
    carried up by the recurrence (it is linear, so it carries the scaled
    values too); other orders defer to scipy's kve (AMOS), or from r =
    ``_KVE_LARGE`` on to the asymptotic series.  At integer
    orders kve is slower and its relative error reaches ~5e-14, against
    ~7e-16 for the recurrence.
    """
    nu = abs(float(nu))
    if nu < np.finfo(float).tiny:
        # scipy's kve returns inf/nan for subnormal orders; K is continuous
        # in the order, so flushing to zero is exact to double precision.
        nu = 0.0
    n = round(nu)
    half = abs(nu - round(nu - 0.5) - 0.5) < 1e-15
    if nu > _MAX_RECURRENCE_ORDER or not (half or abs(nu - n) < 1e-15):
        out, far = special.kve(nu, r), r >= _KVE_LARGE
        if np.any(far):
            out = np.where(far, _ke_asymptotic(nu, np.maximum(r, _KVE_LARGE)), out)
        return out
    if half:
        k_half = np.sqrt(np.pi / 2.0 / r)  # K_{-1/2} = K_{1/2}; see _ke_asymptotic
        return _k_upward(0.5, k_half, k_half, r, int(round(nu - 0.5)))
    if n == 0:
        return special.k0e(r)
    if n == 1:
        return special.k1e(r)
    return _k_upward(1.0, special.k0e(r), special.k1e(r), r, n - 1)


def bessel_k(nu: float, r):
    """Modified Bessel function of the second kind K_nu(r) for r > 0.

    Computed as ``e^r K_nu(r) * e^-r``, so it stays nonzero wherever K is a
    normal double (scipy's kv(0.25, 700) is 0; K_0.25(700) is 4.67e-306).
    """
    if not np.isfinite(nu):
        raise DomainError("bessel_k requires a finite order")
    r_arr = _check_r(r)
    out = _bessel_ke(nu, r_arr) * np.exp(-r_arr)
    return out if np.ndim(r) else float(out)


def _kernel_spatial_inplace(k: Kernel, d: np.ndarray) -> np.ndarray:
    """Overwrite the float array ``d`` with phi(d) and return it.

    The operations and their order are those of exp((-lam x) x) and
    (x x + c c)^alpha, so values are bit-identical to the plain expressions.
    The multiquadric allocates nothing; the gaussian needs one temporary.
    For alpha = -1, ``np.reciprocal`` gives the bits of ``**`` in about half
    the time.
    """
    if k.family == GAUSSIAN:
        np.multiply(d, -k.lam * d, out=d)
        np.exp(d, out=d)
    else:
        np.multiply(d, d, out=d)
        d += k.c * k.c
        if k.alpha == -1.0:
            np.reciprocal(d, out=d)
        else:
            d **= k.alpha
    return d


def kernel_spatial(k: Kernel, x):
    """Evaluate the kernel in the spatial domain."""
    out = _kernel_spatial_inplace(k, np.array(x, dtype=float))
    return out if out.ndim else float(out)


def _overflow_error(k: Kernel, what: str) -> KernelOverflowError:
    return KernelOverflowError(
        f"{what} of the multiquadric alpha={k.alpha:g}, c={k.c:g} "
        "overflows double precision; use a larger c or an alpha nearer 0 "
        "(Gamma(-alpha) overflows for alpha < -171)"
    )


def _finite_constant(k: Kernel, compute) -> float:
    """``compute()``, a constant of the multiquadric's transform, if finite.

    ``math.gamma`` and ``**`` raise OverflowError past double precision,
    and a product of finite floats rounds to inf; either raises
    KernelOverflowError instead.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise _overflow_error(k, "a transform constant")
    return value


_LOG_MAX = math.log(np.finfo(float).max)
_TINY = np.finfo(float).tiny


def log_kernel_fourier(k: Kernel, xi):
    """Natural log of the kernel's Fourier transform at frequency xi.

    Every family's transform formula lives here.  The log stays finite
    where the transform itself underflows, so the cardinal layer divides
    by the periodized symbol in log space.  At xi = 0 it is the removable
    limit, which exists for the gaussian, the poisson kernel and the
    multiquadric with alpha < -1/2; a multiquadric with alpha >= -1/2
    raises SingularityError there.
    """
    absxi = np.abs(np.asarray(xi, dtype=float))
    if k.family == GAUSSIAN:
        # log(pi / lambda) as a difference: pi / lambda overflows for lambda
        # below about 1.7e-308.  The xi term can still be -inf, the log of 0.
        with np.errstate(over="ignore"):
            out = 0.5 * (math.log(math.pi) - math.log(k.lam)) - absxi * absxi / (4.0 * k.lam)
    elif k.family == POISSON:
        # c |xi| overflows for a very wide kernel; -inf is then the exact
        # log of the transform value, which underflows.
        with np.errstate(over="ignore"):
            out = math.log(math.pi / k.c) - k.c * absxi
    else:
        if k.alpha >= 0:
            raise UnsupportedKernelError(
                "Fourier transform of a growing multiquadric is distributional"
            )
        nu = k.bessel_order
        at_zero = absxi == 0.0
        zeros = np.count_nonzero(at_zero)
        if nu >= 0.0 and zeros:
            raise SingularityError(
                "multiquadric transform is singular at xi = 0 for alpha >= -1/2"
            )
        # The constant underflows for alpha below about -157.5, although
        # Gamma(-alpha) overflows, which is typed, only below about -171.6;
        # there its log is formed as a sum of logs.
        const = _finite_constant(
            k, lambda: math.sqrt(2.0 * math.pi) * 2.0 ** (1.0 + k.alpha) / math.gamma(-k.alpha)
        )
        if const >= _TINY:
            log_pref = math.log(const)
        else:
            log_pref = (0.5 * math.log(2.0 * math.pi) + (1.0 + k.alpha) * math.log(2.0)
                        - math.lgamma(-k.alpha))
        # xi = 0 gives nan here, replaced below; a K that overflows at tiny
        # c|xi| gives +inf, which _exp_transform types, and a c|xi| that
        # overflows -inf, the log of an underflowed value.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = k.c * absxi
            ratio = k.c / absxi
            log_ratio = np.log(ratio)
            # For a very wide kernel c / |xi| overflows at a small xi, as at
            # xi = 0; its log is then a difference.
            wide = np.isinf(ratio)
            if np.count_nonzero(wide) > zeros:
                log_ratio = np.where(wide, math.log(k.c) - np.log(absxi), log_ratio)
            out = log_pref + nu * log_ratio + np.log(_bessel_ke(nu, r)) - r
        if zeros:
            # K_|nu|(r) ~ Gamma(|nu|) 2^(|nu| - 1) r^(-|nu|) as r -> 0.
            limit = (log_pref + math.lgamma(-nu) + (-nu - 1.0) * math.log(2.0)
                     + 2.0 * nu * math.log(k.c))
            out = np.where(at_zero, limit, out)
    return float(out) if np.ndim(out) == 0 else out


def _exp_transform(k: Kernel, log_vals):
    """``exp(log_vals)``; KernelOverflowError where a value passes double
    precision."""
    if np.any(log_vals > _LOG_MAX):
        raise _overflow_error(k, "the transform")
    return np.exp(log_vals)


def kernel_fourier(k: Kernel, xi):
    """Fourier transform of the kernel at frequency xi.

    The exp of :func:`log_kernel_fourier`; a value past double precision
    raises KernelOverflowError.
    """
    out = _exp_transform(k, log_kernel_fourier(k, xi))
    return float(out) if np.ndim(out) == 0 else out


def kernel_fourier_at_zero(k: Kernel) -> float:
    """Limit of the Fourier transform at xi = 0.

    Finite exactly when the kernel is integrable: gaussian, poisson, or
    multiquadric with alpha < -1/2.
    """
    if k.alpha >= -0.5:  # alpha is nan for the gaussian
        raise DivergenceError(
            f"transform of multiquadric with alpha={k.alpha} diverges at xi = 0"
        )
    return kernel_fourier(k, 0.0)
