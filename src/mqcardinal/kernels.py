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

with K the modified Bessel function of the second kind.  All functions in
this module are pure and accept scalars or numpy arrays for the evaluation
variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, DivergenceError, SingularityError, UnsupportedKernelError

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
# one step per order; higher ones go to kv, so an order like 1e20 cannot stall.
_MAX_RECURRENCE_ORDER = 64


def _k_upward(order: float, k_lo, k_hi, r: np.ndarray, steps: int):
    """K_{order + steps}(r) from K_{order - 1} and K_order by the upward
    recurrence K_{v+1} = K_{v-1} + (2 v / r) K_v, which is stable for K."""
    for _ in range(steps):
        k_lo, k_hi = k_hi, k_lo + (2.0 * order / r) * k_hi
        order += 1.0
    return k_hi


def bessel_k(nu: float, r):
    """Modified Bessel function of the second kind K_nu(r) for r > 0.

    Symmetric in the order (K_nu = K_{-nu}).  Half-integer orders up to
    ``_MAX_RECURRENCE_ORDER`` use the closed elementary form
    K_{1/2}(r) = sqrt(pi/(2r)) e^{-r}, integer ones Cephes' k0 and k1, each
    carried up by the recurrence; other orders defer to scipy's kv (AMOS).
    At integer orders kv is slower and its relative error reaches ~5e-14,
    against ~7e-16 for the recurrence.
    """
    if not np.isfinite(nu):
        raise DomainError("bessel_k requires a finite order")
    r_arr = _check_r(r)
    nu = abs(float(nu))
    if nu < np.finfo(float).tiny:
        # scipy's kv returns inf/nan for subnormal orders; K is continuous
        # in the order, so flushing to zero is exact to double precision.
        nu = 0.0
    n = round(nu)
    half = abs(nu - round(nu - 0.5) - 0.5) < 1e-15
    if nu > _MAX_RECURRENCE_ORDER or not (half or abs(nu - n) < 1e-15):
        out = special.kv(nu, r_arr)
    elif half:
        k_half = np.sqrt(np.pi / (2.0 * r_arr)) * np.exp(-r_arr)  # K_{-1/2} = K_{1/2}
        out = _k_upward(0.5, k_half, k_half, r_arr, int(round(nu - 0.5)))
    elif n == 0:
        out = special.k0(r_arr)
    elif n == 1:
        out = special.k1(r_arr)
    else:
        out = _k_upward(1.0, special.k0(r_arr), special.k1(r_arr), r_arr, n - 1)
    return out if np.ndim(r) else float(out)


def bessel_k_upper_bound(nu: float, r):
    """Upper bound sqrt(2 pi) r^(-1/2) e^(-r) e^(nu^2/(2r)) for K_nu(r)."""
    if not np.isfinite(nu):
        raise DomainError("bessel_k_upper_bound requires a finite order")
    r_arr = _check_r(r)
    out = np.sqrt(2.0 * np.pi / r_arr) * np.exp(-r_arr + nu * nu / (2.0 * r_arr))
    return out if np.ndim(r) else float(out)


def kernel_spatial(k: Kernel, x):
    """Evaluate the kernel in the spatial domain."""
    x = np.asarray(x, dtype=float)
    if k.family == GAUSSIAN:
        out = np.exp(-k.lam * x * x)
    else:
        out = (x * x + k.c * k.c) ** k.alpha
    return out if out.ndim else float(out)


def _mq_fourier_prefactor(alpha: float) -> float:
    return math.sqrt(2.0 * math.pi) * 2.0 ** (1.0 + alpha) / math.gamma(-alpha)


def kernel_fourier(k: Kernel, xi):
    """Fourier transform of the kernel at frequency xi.

    The generic multiquadric branch is singular at xi = 0 when
    alpha >= -1/2; use :func:`kernel_fourier_at_zero` for the removable
    alpha < -1/2 limit.
    """
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    if k.family == GAUSSIAN:
        out = np.sqrt(np.pi / k.lam) * np.exp(-xi_arr * xi_arr / (4.0 * k.lam))
    elif k.family == POISSON:
        out = (np.pi / k.c) * np.exp(-k.c * np.abs(xi_arr))
    else:
        if k.alpha >= 0:
            raise UnsupportedKernelError(
                "Fourier transform of a growing multiquadric is distributional"
            )
        if np.any(xi_arr == 0.0):
            raise SingularityError(
                "multiquadric transform is singular at xi = 0; "
                "use kernel_fourier_at_zero for alpha < -1/2"
            )
        absxi = np.abs(xi_arr)
        nu = k.bessel_order
        out = (
            _mq_fourier_prefactor(k.alpha)
            * (k.c / absxi) ** (k.alpha + 0.5)
            * bessel_k(nu, k.c * absxi)
        )
    return float(out) if scalar else out


def kernel_fourier_at_zero(k: Kernel) -> float:
    """Limit of the Fourier transform at xi = 0.

    Finite exactly when the kernel is integrable: gaussian, poisson, or
    multiquadric with alpha < -1/2.
    """
    if k.family == GAUSSIAN:
        return math.sqrt(math.pi / k.lam)
    if k.alpha >= -0.5:
        raise DivergenceError(
            f"transform of multiquadric with alpha={k.alpha} diverges at xi = 0"
        )
    return (
        math.sqrt(math.pi)
        * math.gamma(-k.alpha - 0.5)
        / math.gamma(-k.alpha)
        * k.c ** (2.0 * k.alpha + 1.0)
    )
