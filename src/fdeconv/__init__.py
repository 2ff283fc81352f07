"""Anisotropic 2-d functional deconvolution under long-memory noise.

The package estimates a bivariate signal from blurred, noisy
observations by dividing out the blur in the Fourier domain, expanding
in a periodized Meyer wavelet basis, and hard-thresholding the detail
coefficients at levels and heights tuned to the memory exponents of the
noise. Alongside the estimator it ships the matching noise simulator,
a Monte Carlo risk harness with a command line front end, and a
calculator for the theoretical convergence-rate regimes.
"""

from .cli import (
    DEFAULT_ALPHA_PAIRS,
    ExperimentConfig,
    main,
    run_rates,
    run_simulation,
    run_table,
    run_transform,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    FdeconvError,
    IllPosedError,
    NumericalError,
    ParameterError,
)
from .estimator import (
    DEFAULT_GAMMA,
    LevelSelection,
    MeyerDeconvolver,
    RiskReport,
    ThresholdPolicy,
    besov_diagnostic,
    epsilon_from_sigma,
    estimate,
    estimate_coefficients,
    finest_levels,
    lp_risk,
    mise,
    resolve_levels,
    threshold_lambda,
    validate_field,
)
from .lrdnoise import (
    LongMemoryParams,
    NoiseSheet,
    exact_fgn_path,
    farima_path,
    noise_sheet,
)
from .meyer import (
    MeyerFilter,
    WaveletCoeffs2D,
    forward_1d,
    forward_2d,
    inverse_1d,
    inverse_2d,
    meyer_filter,
)
from .model import (
    BlurKernel,
    SampledField,
    calibrate_sigma,
    convolve_columns,
    make_kernel,
    make_power_kernel,
    make_target,
    make_test_signal,
    make_x_profile,
    observe,
)
from .rates import (
    RatePoint,
    RateQuery,
    RateResult,
    classify,
    classify_2d,
    classify_rd,
    rate_curve,
    write_rate_curve,
)

__version__ = "0.1.0"

__all__ = [
    "BlurKernel",
    "ConfigError",
    "DEFAULT_ALPHA_PAIRS",
    "DEFAULT_GAMMA",
    "DegenerateInputError",
    "ExperimentConfig",
    "FdeconvError",
    "IllPosedError",
    "LevelSelection",
    "LongMemoryParams",
    "MeyerDeconvolver",
    "MeyerFilter",
    "NoiseSheet",
    "NumericalError",
    "ParameterError",
    "RatePoint",
    "RateQuery",
    "RateResult",
    "RiskReport",
    "SampledField",
    "ThresholdPolicy",
    "WaveletCoeffs2D",
    "besov_diagnostic",
    "calibrate_sigma",
    "classify",
    "classify_2d",
    "classify_rd",
    "convolve_columns",
    "epsilon_from_sigma",
    "estimate",
    "estimate_coefficients",
    "exact_fgn_path",
    "farima_path",
    "finest_levels",
    "forward_1d",
    "forward_2d",
    "inverse_1d",
    "inverse_2d",
    "lp_risk",
    "main",
    "make_kernel",
    "make_power_kernel",
    "make_target",
    "make_test_signal",
    "make_x_profile",
    "meyer_filter",
    "mise",
    "noise_sheet",
    "observe",
    "rate_curve",
    "resolve_levels",
    "run_rates",
    "run_simulation",
    "run_table",
    "run_transform",
    "threshold_lambda",
    "validate_field",
    "write_rate_curve",
    "__version__",
]
