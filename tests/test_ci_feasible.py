"""One channel-inversion feasibility rule for the precoder and the sweep."""

import math

import numpy as np
import pytest

import quantlink.digital as digital
import quantlink.harness as harness
from quantlink import ExperimentConfig, RankDeficientChannelError, channel_inversion_precoder
from quantlink.digital import CONDITION_LIMIT, _check_invertible, ci_feasible


def spectrum(condition_sq):
    """Two singular values whose squared ratio is ``condition_sq``."""
    return np.array([math.sqrt(condition_sq), 1.0])


@pytest.mark.parametrize(
    "nu, n_streams, feasible",
    [
        (spectrum(CONDITION_LIMIT * (1 - 1e-9)), 2, True),
        (spectrum(CONDITION_LIMIT * (1 + 1e-9)), 2, False),
        (np.array([1.0, 0.0]), 2, False),
        (np.array([1.0, 0.0]), 1, True),
        (np.array([2.0, 1.0]), 3, False),
    ],
)
def test_rule_at_the_boundary(nu, n_streams, feasible):
    assert ci_feasible(nu, n_streams) is feasible
    if feasible:
        _check_invertible(nu, n_streams)
    else:
        with pytest.raises(RankDeficientChannelError, match="condition limit"):
            _check_invertible(nu, n_streams)


@pytest.mark.parametrize("factor, feasible", [(1 - 1e-9, True), (1 + 1e-9, False)])
def test_precoder_follows_the_rule(factor, feasible):
    g = np.diag(spectrum(CONDITION_LIMIT * factor)).astype(complex)
    if feasible:
        assert channel_inversion_precoder(g).n_streams == 2
    else:
        with pytest.raises(RankDeficientChannelError):
            channel_inversion_precoder(g)


def test_sweep_uses_the_same_rule(monkeypatch):
    assert harness.ci_feasible is digital.ci_feasible
    assert not hasattr(harness, "_CI_CONDITION_LIMIT")
    config = ExperimentConfig(
        snr_grid_db=(0.0,),
        bits_grid=(2,),
        n_rf_rx=(2,),
        n_realizations=2,
        methods=("ci_exact", "aqnm_svd"),
    )
    seen = []

    def never(nu, n_streams):
        seen.append(n_streams)
        return False

    monkeypatch.setattr(harness, "ci_feasible", never)
    rates = {r.method: r.mean_rate_bpshz for r in harness.run_experiment(config)}
    assert seen == [2, 2]
    assert math.isnan(rates["ci_exact"])
    assert not math.isnan(rates["aqnm_svd"])
