"""quantlink: rates and energy-rate trade-offs of hybrid MIMO receivers with few-bit ADCs.

The package simulates a narrowband link where a hybrid analog/digital
transmitter talks to a receiver that combines in the RF domain and quantizes
each chain with b-bit ADCs.  It provides clustered channel generation, analog
precoder design by alternating projection, channel-inversion and SVD baseband
precoding, exact and bounding rate expressions, a receiver power model, and a
seeded Monte-Carlo experiment harness with CSV output.
"""

from .analog import (
    AnalogPrecoderPair,
    DegenerateIterateError,
    EffectiveChannel,
    alternating_projection,
    alternating_projections,
    effective_channel,
)
from .channel import (
    ChannelMatrix,
    ClusteredChannelConfig,
    generate_channel,
    load_channel_matrix,
    save_channel_matrix,
    svd_of,
)
from .digital import (
    DigitalPrecoder,
    RankDeficientChannelError,
    channel_inversion_precoder,
    ci_feasible,
    snr_ci,
    svd_precoder,
    waterfill,
)
from .harness import (
    ConfigError,
    EXPERIMENTS,
    HARNESS_METHODS,
    ExperimentConfig,
    ResultRecord,
    emit_csv,
    load_config,
    parse_config,
    realization_seed,
    run_experiment,
)
from .power import PowerModelParams, adc_power, energy_efficiency, total_power
from .quantizers import (
    DistortionFactor,
    QuantizerSpec,
    TransitionMatrix,
    build_transition_matrices,
    build_transition_matrix,
    gauss_cdf,
    high_resolution_distortion,
    lloyd_max,
    matched_stepsize,
    pam_error_probability,
    qfunc,
    uniform_pam_quantizer,
)
from .rates import (
    RATE_METHODS,
    RateQuery,
    RateResult,
    binary_entropy,
    discrete_mi,
    evaluate,
    rate_aqnm,
    rate_ci_exact,
    rate_ci_exact_grid,
    rate_ci_fano,
    rate_ci_onebit,
    rate_ci_onebit_lb,
    ub_infinite,
    ub_onebit_loose,
    ub_onebit_tight,
)

__version__ = "0.1.0"

__all__ = [
    "AnalogPrecoderPair",
    "ChannelMatrix",
    "ClusteredChannelConfig",
    "ConfigError",
    "DegenerateIterateError",
    "DigitalPrecoder",
    "DistortionFactor",
    "EXPERIMENTS",
    "EffectiveChannel",
    "ExperimentConfig",
    "HARNESS_METHODS",
    "PowerModelParams",
    "QuantizerSpec",
    "RATE_METHODS",
    "RankDeficientChannelError",
    "RateQuery",
    "RateResult",
    "ResultRecord",
    "TransitionMatrix",
    "adc_power",
    "alternating_projection",
    "alternating_projections",
    "binary_entropy",
    "build_transition_matrices",
    "build_transition_matrix",
    "channel_inversion_precoder",
    "ci_feasible",
    "discrete_mi",
    "effective_channel",
    "emit_csv",
    "energy_efficiency",
    "evaluate",
    "gauss_cdf",
    "generate_channel",
    "high_resolution_distortion",
    "lloyd_max",
    "load_channel_matrix",
    "load_config",
    "matched_stepsize",
    "pam_error_probability",
    "parse_config",
    "qfunc",
    "rate_aqnm",
    "rate_ci_exact",
    "rate_ci_exact_grid",
    "rate_ci_fano",
    "rate_ci_onebit",
    "rate_ci_onebit_lb",
    "realization_seed",
    "run_experiment",
    "save_channel_matrix",
    "snr_ci",
    "svd_of",
    "svd_precoder",
    "total_power",
    "ub_infinite",
    "ub_onebit_loose",
    "ub_onebit_tight",
    "uniform_pam_quantizer",
    "waterfill",
]
