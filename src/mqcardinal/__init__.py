"""Cardinal-function interpolation with multiquadric, Poisson, and Gaussian kernels.

Importing the package loads numpy only: each scipy subpackage is imported
by the functions that call it, so each path loads only its own.
"""

from .errors import (
    BandwidthError,
    BudgetExceededError,
    ConfigError,
    CoverageError,
    DivergenceError,
    DomainError,
    GridMismatchError,
    IllConditionedError,
    InsufficientDataError,
    JitterTooLargeError,
    KernelOverflowError,
    MqcError,
    NumericalConsistencyError,
    NumericalError,
    OutOfRangeError,
    SeparationError,
    SingularityError,
    UnsupportedKernelError,
)
from .kernels import (
    GAUSSIAN,
    MULTIQUADRIC,
    POISSON,
    Kernel,
    bessel_k,
    gaussian,
    kernel_fourier,
    kernel_fourier_at_zero,
    kernel_spatial,
    log_kernel_fourier,
    multiquadric,
    poisson,
)
from .cardinal import (
    CardinalTable,
    TruncationPlan,
    build_cardinal_table,
    cardinal_hat,
    compute_tau,
    eval_cardinal,
    load_table,
    periodized_symbol,
    periodized_symbol_lower_bound,
    reduce_frequency,
    save_table,
)
from .interpolation import (
    GramInterpolant,
    SampleSet,
    UniformInterpolant,
    cardinal_series,
    eval_gram,
    eval_uniform,
    fit_gram,
    fit_uniform,
    gram_condition,
    scaled_eval,
)
from .testfunctions import (
    TestFunction,
    bspline,
    bump,
    dilated_sinc,
    fejer_bandlimited,
)
from .experiments import (
    ErrorReport,
    RateFit,
    error_norms,
    fit_rate,
    interpolate_at_spacing,
    rate_points,
    run_c_convergence,
    run_conditioning_study,
    run_h_convergence,
    run_jitter_study,
    run_noise_floor,
    tuned_kernel,
)
from .sampling import (
    FrameBounds,
    JitterSpec,
    NodeSequence,
    NoiseSpec,
    apply_jitter,
    apply_noise,
    estimate_frame_bounds,
    kadec_margin,
    perturbation_budget,
    perturbed_frame_bounds,
)

__version__ = "0.1.0"
