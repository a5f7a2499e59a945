"""Configs that pass validation run to the end: roundoff near zero SNR or
tiny gains does not abort a sweep, and power-model keys must be finite."""

import csv
from dataclasses import fields

import numpy as np
import pytest

from quantlink import ConfigError, PowerModelParams, parse_config, rate_ci_fano, waterfill
from quantlink.cli import main

POWER_KEYS = [f.name for f in fields(PowerModelParams)]

# A Fano bound that roundoff pushed below zero made energy_efficiency raise.
FANO_CONFIG = """
n_rf_rx = 2
bits_grid = 6
methods = ci_fano
snr_grid_db = -175,-170,-165,-160,-155,-150,-145,-140
n_realizations = 3
"""

# At -168 dB the single stream's gain is about 1e-16, so mu - 1/g lost the
# budget to cancellation and the precoder exceeded its power constraint.
WATERFILL_CONFIG = """
n_tx = 1
n_rx = 3
n_rf_tx = 1
n_rf_rx = 1,3
snr_grid_db = {snrs}
bits_grid = 4,5,7
n_realizations = 1
methods = aqnm_svd
master_seed = 987530
"""


def run_cli(tmp_path, text, command="run"):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(text + f"output_path = {out}\n")
    return main([command, "--config", str(cfg)]), out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFanoBound:
    @pytest.mark.parametrize("bits, snr", [(6, 1e-16), (3, 10**-16.5)])
    def test_rounds_to_zero_not_below(self, bits, snr):
        assert float(rate_ci_fano(bits, snr, 1)) == 0.0

    def test_sweep_near_zero_snr_runs(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, FANO_CONFIG)
        assert code == 0, capsys.readouterr().err
        rows = read_rows(out)
        assert len(rows) == 8
        assert all(float(r["mean_rate_bpshz"]) >= 0 and float(r["ee_bits_per_joule"]) >= 0 for r in rows)


class TestWaterfillTinyGains:
    @pytest.mark.parametrize(
        "gains, budget, powers",
        [([7e-17], 1.0, [1.0]), ([1e-16], 1.0, [1.0]), ([1e-17] * 3, 3.0, [1.0, 1.0, 1.0])],
    )
    def test_powers_spend_the_budget(self, gains, budget, powers):
        assert waterfill(gains, budget).tolist() == powers

    def test_random_gains_spend_the_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            gains = 10.0 ** rng.uniform(-20, 4, size=rng.integers(1, 6))
            budget = 10.0 ** rng.uniform(-2, 2)
            powers = waterfill(gains, budget)
            assert powers.min() >= 0
            assert abs(powers.sum() - budget) <= 1e-9 * budget

    @pytest.mark.parametrize("snrs", ["-168,100", "-160,100"])
    def test_sweep_at_tiny_gains_runs(self, snrs, tmp_path, capsys):
        code, out = run_cli(tmp_path, WATERFILL_CONFIG.format(snrs=snrs))
        assert code == 0, capsys.readouterr().err
        assert len(read_rows(out)) == 12


class TestInfinitePowerKeys:
    @pytest.mark.parametrize("key", POWER_KEYS)
    def test_parse_config_rejects(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be finite$"):
            parse_config(f"{key} = inf\n")

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key", POWER_KEYS)
    def test_cli_exits_1(self, key, command, tmp_path, capsys):
        code, out = run_cli(tmp_path, f"{key} = inf\nn_realizations = 1\n", command)
        assert code == 1
        assert f"config error: {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-inf", "nan", "0"])
    def test_positivity_is_checked_first(self, value):
        with pytest.raises(ConfigError, match="^p_bb_mw must be positive$"):
            parse_config(f"p_bb_mw = {value}\n")
