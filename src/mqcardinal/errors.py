"""Exception hierarchy for the mqcardinal package.

Exit-code convention used by the CLI: usage/configuration problems raise
``ConfigError`` (exit 2), numerical failures raise subclasses of
``NumericalError`` (exit 1).
"""


class MqcError(Exception):
    """Base class for all mqcardinal errors."""


class ConfigError(MqcError):
    """Invalid configuration, flags, or input files."""


class DomainError(MqcError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UnsupportedKernelError(MqcError):
    """The kernel family/parameters are not supported by this operation."""


class NumericalError(MqcError):
    """Base class for runtime numerical failures."""


class SingularityError(NumericalError):
    """Evaluation requested at a non-removable singularity."""


class DivergenceError(NumericalError):
    """A limit or series does not exist / diverges for these parameters."""


class BandwidthError(NumericalError):
    """The spectral grid does not cover the band where the transform matters."""

    def __init__(self, msg, suggested_m=None):
        super().__init__(msg)
        self.suggested_m = suggested_m


class KernelOverflowError(NumericalError):
    """A constant or a value of the kernel's transform overflows double precision."""


class NumericalConsistencyError(NumericalError):
    """An internal self-check failed (e.g. imaginary residue too large)."""


class CoverageError(NumericalError):
    """A cardinal table is too narrow for the requested evaluation."""


class GridMismatchError(MqcError, ValueError):
    """Sample nodes are not the uniform grid required by the operation."""


class OutOfRangeError(MqcError, ValueError):
    """Evaluation point outside the tabulated range."""


class IllConditionedError(NumericalError):
    """The Gram system could not be solved to the required residual.

    Carries the condition estimate obtained before giving up.
    """

    def __init__(self, msg, cond_estimate=float("inf")):
        super().__init__(msg)
        self.cond_estimate = cond_estimate


class SeparationError(NumericalError):
    """Node spacing degenerates below the supported minimum."""


class JitterTooLargeError(MqcError, ValueError):
    """Requested jitter would destroy strict monotonicity of the nodes."""


class BudgetExceededError(MqcError, ValueError):
    """Perturbation magnitude exceeds the frame-bound stability budget."""


class InsufficientDataError(MqcError, ValueError):
    """Not enough finite data points for a fit."""
