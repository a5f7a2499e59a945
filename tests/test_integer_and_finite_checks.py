"""One integer rule and NaN-strict sign checks at the public boundaries.

A count, a bit depth or a seed is a Python or numpy integer and never a bool
(``channel._is_integer``).  The config, the rate layer and the quantizers all
apply that rule, so a fraction or a bool fails with a ``ValueError`` where it
is given, not as a ``TypeError`` deep in a sweep or as a silently scaled rate.
An infinite SNR and a NaN sign argument fail the same way.
"""

import math

import numpy as np
import pytest

from quantlink import (
    ConfigError,
    ExperimentConfig,
    PowerModelParams,
    RateQuery,
    adc_power,
    lloyd_max,
    pam_error_probability,
    rate_ci_exact,
    rate_ci_exact_grid,
    rate_ci_fano,
    total_power,
    ub_infinite,
    ub_onebit_tight,
    waterfill,
)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"master_seed": 1.5}, "master_seed must be an integer"),
        ({"n_realizations": 2.5}, "n_realizations must be an integer"),
        ({"n_tx": True}, "n_tx must be an integer"),
        ({"n_rays": np.float64(3.0)}, "n_rays must be an integer"),
        ({"n_rf_rx": (2.0,)}, "n_rf_rx entries must be integers"),
        ({"n_rf_rx": (2, True)}, "n_rf_rx entries must be integers"),
        ({"bits_grid": (2.5,)}, "bits_grid entries must be integers"),
        ({"bits_grid": (True,)}, "bits_grid entries must be integers"),
    ],
)
def test_config_rejects_non_integers_in_integer_fields(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig(**kwargs)


def test_config_takes_numpy_integers():
    config = ExperimentConfig(
        n_rx=np.int64(8), n_rf_rx=(np.int32(2), 4), bits_grid=(np.uint8(3),), master_seed=np.int64(7)
    )
    assert config.n_rf_rx == (2, 4) and config.bits_grid == (3,) and config.master_seed == 7


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rate_ci_exact(3, 1.0, 1.5), "n_streams must be at least 1"),
        (lambda: rate_ci_exact_grid(3, [1.0], True), "n_streams must be at least 1"),
        (lambda: rate_ci_fano(3, 1.0, True), "n_streams must be at least 1"),
        (lambda: ub_infinite(np.eye(2), 1.0, 1.5), "n_rf_rx must be at least 1"),
        (lambda: ub_onebit_tight(np.eye(2), 1.0, True), "n_rf_rx must be at least 1"),
        (lambda: RateQuery(1.0, True, 3, "ci_exact"), "n_streams must be at least 1"),
        (lambda: lloyd_max(True), r"bits must be an integer in \[1, 8\]"),
        (lambda: pam_error_probability(True, 1.0), r"bits must be an integer in \[1, 8\]"),
    ],
)
def test_rate_layer_rejects_bools_and_fractions(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_rate_layer_takes_numpy_integers():
    assert rate_ci_exact(np.int64(3), 1.0, np.int32(2)).bits_per_channel_use == (
        rate_ci_exact(3, 1.0, 2).bits_per_channel_use
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: RateQuery(math.inf, 2, 3, "aqnm_svd"),
        lambda: ub_infinite(np.eye(2), math.inf, 2),
        lambda: ub_onebit_tight(np.eye(2), np.float64(np.inf), 2),
    ],
)
def test_infinite_rho_is_rejected_before_any_arithmetic(call):
    with pytest.raises(ValueError, match="^rho must be finite$"):
        call()


def test_pam_error_probability_rejects_nan():
    with pytest.raises(ValueError, match="^snr must be nonnegative$"):
        pam_error_probability(3, math.nan)
    assert pam_error_probability(3, 0.0) == pytest.approx(2 * (1 - 2**-3) * 0.5)


@pytest.mark.parametrize("gains", [[math.nan], [1.0, math.nan], [2.0, 0.0], [-1.0]])
def test_waterfill_rejects_nan_and_nonpositive_gains(gains):
    with pytest.raises(ValueError, match="^gains must be positive$"):
        waterfill(gains, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: adc_power(PowerModelParams(), 2.5), "^bits must be at least 1$"),
        (lambda: adc_power(PowerModelParams(), True), "^bits must be at least 1$"),
        (lambda: total_power(PowerModelParams(), 8, 2.5, 3), "^need 0 <= n_rf_rx <= n_rx"),
        (lambda: total_power(PowerModelParams(), 8.5, 2, 3), "^need 0 <= n_rf_rx <= n_rx"),
        (lambda: total_power(PowerModelParams(), 8, True, 3), "^need 0 <= n_rf_rx <= n_rx"),
        (lambda: total_power(PowerModelParams(), 8, 2, 3.0), "^bits must be at least 1$"),
    ],
)
def test_power_model_rejects_fractional_and_bool_counts(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_power_model_takes_numpy_integers_and_no_receive_chains():
    params = PowerModelParams()
    assert total_power(params, np.int64(8), np.int32(2), np.int8(4)) == total_power(params, 8, 2, 4)
    assert total_power(params, 8, 0, 4) == 360.0


@pytest.mark.parametrize("bits", [9, 1.5, True, np.float64(3.0), "3"])
def test_rate_query_rejects_a_bad_bit_depth_where_it_is_given(bits):
    with pytest.raises(ValueError, match=r"^bits must be an integer in \[1, 8\]"):
        RateQuery(1.0, 2, bits, "ci_exact")
