"""A config that passes validation runs: values a sweep cannot evaluate are
rejected up front, and range errors state the values they reject."""

import pytest

from quantlink.cli import main
from quantlink.harness import ConfigError, parse_config
from quantlink.power import PowerModelParams, total_power

SMALL_RUN = "n_tx = 8\nn_rx = 2\nn_rf_tx = 2\nn_rf_rx = 1\nbits_grid = 1\nn_realizations = 1\n"

NON_FINITE = [
    ("snr_grid_db = nan", "snr_grid_db entries must be finite"),
    ("snr_grid_db = 0, -inf", "snr_grid_db entries must be finite"),
    ("snr_grid_db = inf", "snr_grid_db entries must be finite"),
    ("angle_spread_deg = inf", "angle_spread_deg must be finite"),
]


@pytest.mark.parametrize("line, message", NON_FINITE)
def test_non_finite_values_are_config_errors(line, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config(SMALL_RUN + line + "\n")


@pytest.mark.parametrize("line, message", NON_FINITE)
def test_cli_rejects_non_finite_values_before_running(line, message, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_RUN + line + "\n")
    out = tmp_path / "out.csv"
    assert main(["validate", "--config", str(cfg)]) == 1
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_nan_angle_spread_keeps_its_message():
    with pytest.raises(ConfigError, match="^angle_spread_deg must be positive$"):
        parse_config("angle_spread_deg = nan\n")


@pytest.mark.parametrize("n_rf_rx", [-1, 9])
def test_total_power_range_error_states_the_values(n_rf_rx):
    with pytest.raises(ValueError) as exc:
        total_power(PowerModelParams(), 8, n_rf_rx, 3)
    assert str(exc.value) == f"need 0 <= n_rf_rx <= n_rx, got n_rf_rx={n_rf_rx}, n_rx=8"
