"""One case for each input check that the rest of the suite never trips.

Each case calls a public function, a constructor or the sweep's AP stream
``analog._projection_stream`` with exactly one bad input and expects the
check's own exception type and message.
"""

import math

import numpy as np
import pytest

from quantlink import (
    AnalogPrecoderPair,
    DigitalPrecoder,
    ExperimentConfig,
    QuantizerSpec,
    RateQuery,
    RateResult,
    TransitionMatrix,
    alternating_projection,
    discrete_mi,
    pam_error_probability,
    rate_aqnm,
    run_experiment,
    svd_precoder,
)
from quantlink import harness
from quantlink.analog import _projection_stream

from conftest import make_channel

G = np.array([[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, 0.3, 0.0]], dtype=complex)
SMALL = ExperimentConfig(
    n_tx=4, n_rx=2, n_rf_tx=2, n_rf_rx=(1,), snr_grid_db=(0.0,), bits_grid=(1,),
    n_realizations=1, methods=("ci_exact",),
)
UNIT_PHASES = np.full((4, 2), 0.5, dtype=complex)  # modulus 1/sqrt(4)
PAM_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])


CASES = {
    "ap_without_channels": (
        lambda: next(_projection_stream([], 2, [2])), ValueError, "hs must hold at least one channel"
    ),
    "ap_zero_iterations": (
        lambda: alternating_projection(make_channel(0, 8, 4), 2, 2, max_iter=0),
        ValueError,
        "max_iter must be at least 1",
    ),
    "pair_negative_residual": (
        lambda: AnalogPrecoderPair(UNIT_PHASES, UNIT_PHASES, -1e-3, 0.0, 1),
        ValueError,
        "residuals must be nonnegative",
    ),
    "precoder_over_budget": (
        lambda: DigitalPrecoder(np.full((2, 1), 1.0)),
        ValueError,
        "precoder violates the transmit power constraint",
    ),
    "svd_precoder_zero_snr": (lambda: svd_precoder(G, 0.0, 2), ValueError, "rho must be positive"),
    "sweep_zero_threads": (
        lambda: run_experiment(SMALL, threads=0), ValueError, "threads must be at least 1"
    ),
    "quantizer_level_count": (
        lambda: QuantizerSpec(2, np.array([-2.0, 0.0]), PAM_LEVELS),
        ValueError,
        "need 4 levels and 3 thresholds for 2 bits",
    ),
    "quantizer_unordered_levels": (
        lambda: QuantizerSpec(2, np.array([-2.0, 0.0, 2.0]), PAM_LEVELS[::-1]),
        ValueError,
        "levels and thresholds must be strictly increasing",
    ),
    "quantizer_off_midpoint": (
        lambda: QuantizerSpec(2, np.array([-2.0, 0.5, 2.0]), PAM_LEVELS),
        ValueError,
        "thresholds must sit at the midpoints of adjacent levels",
    ),
    "transition_size_three": (
        lambda: TransitionMatrix(np.full((3, 3), 1.0 / 3.0)),
        ValueError,
        "transition matrix must be square with a power-of-two size",
    ),
    "pam_negative_snr": (lambda: pam_error_probability(2, -1), ValueError, "snr must be nonnegative"),
    "query_zero_bits": (
        lambda: RateQuery(1.0, 2, 0, "ci_exact"), ValueError, "bits must be at least 1"
    ),
    "rate_nan": (lambda: RateResult(math.nan, "ci_exact"), ValueError, "rate must be finite"),
    "mi_not_stochastic": (
        lambda: discrete_mi([0.5, 0.5], [[0.5, 0.6], [0.5, 0.5]]),
        ValueError,
        "transition matrix must be row stochastic",
    ),
    "aqnm_zero_snr": (
        lambda: rate_aqnm(G, np.eye(4, 2), 0.0, 0.1), ValueError, "rho must be positive"
    ),
    "aqnm_precoder_shape": (
        lambda: rate_aqnm(G, np.eye(3, 2), 1.0, 0.1),
        ValueError,
        r"precoder of shape \(3, 2\) does not match G \(2, 4\)",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_check_raises(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_sweep_with_no_feasible_width_writes_nan_rows_without_ap(monkeypatch):
    def no_ap(*args, **kwargs):
        raise AssertionError("alternating projection ran for an infeasible width")

    monkeypatch.setattr(harness, "_projection_stream", no_ap)
    config = ExperimentConfig(
        n_tx=4, n_rx=4, n_rf_tx=1, n_rf_rx=(2, 3), snr_grid_db=(0.0, 10.0), bits_grid=(2,),
        n_realizations=2, methods=("ci_exact", "ub_infinite"),
    )
    records = run_experiment(config)
    assert len(records) == 2 * 2 * 2
    assert all(math.isnan(r.mean_rate_bpshz) and math.isnan(r.rate_stderr) for r in records)
