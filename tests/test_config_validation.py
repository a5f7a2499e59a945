"""Every ExperimentConfig check, the SNR range and the distinct-entry rule.

A config that passes validation runs to the end; one that does not exits 1
with the check's message, through ``parse_config`` and through the CLI.
"""

import math
import re

import pytest

from quantlink.cli import main
from quantlink.harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    parse_config,
)
from quantlink.rates import METHODS

SMALL_RUN = "n_tx = 16\nn_rx = 4\nn_rf_tx = 2\nn_rf_rx = 2\nn_realizations = 2\n"
ALL_METHODS = "methods = " + ",".join(METHODS) + "\n"

# (config line, message) for checks a config file can reach.
REJECTED_LINES = [
    ("experiment = rate_vs_time", f"experiment must be one of {EXPERIMENTS}, got 'rate_vs_time'"),
    *[(f"{name} = 0", f"{name} must be a positive integer")
      for name in ("n_tx", "n_rx", "n_rf_tx", "n_clusters", "n_rays")],
    ("n_rf_tx = 17", "n_rf_tx cannot exceed n_tx"),
    ("n_rf_rx = 0", "n_rf_rx must list positive integers"),
    ("n_rf_rx = 2, -1", "n_rf_rx must list positive integers"),
    ("n_rf_rx = 5", "n_rf_rx cannot exceed n_rx"),
    ("bits_grid = 0", "bits_grid entries must lie in [1, 8]"),
    ("bits_grid = 2, 9", "bits_grid entries must lie in [1, 8]"),
    ("master_seed = -1", "master_seed must be a nonnegative 63-bit integer"),
    ("master_seed = 9223372036854775808", "master_seed must be a nonnegative 63-bit integer"),
    *[(f"snr_grid_db = 0, {snr}", "snr_grid_db entries must lie in [-300, 300]")
      for snr in ("300.5", "-300.5", "4000", "-4000", "3100", "-3300")],
]


def _with(line):
    """SMALL_RUN with ``line`` in place of any line for the same key."""
    key = line.split(" = ")[0]
    kept = [row for row in SMALL_RUN.splitlines() if row.split(" = ")[0] != key]
    return "\n".join(kept + [line]) + "\n"


def _cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("line, message", REJECTED_LINES)
def test_parse_config_states_the_check(line, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(_with(line))


@pytest.mark.parametrize("line, message", REJECTED_LINES)
def test_cli_exits_1_before_running(line, message, tmp_path, capsys):
    cfg = _cfg(tmp_path, _with(line))
    out = tmp_path / "out.csv"
    assert main(["validate", "--config", cfg]) == 1
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n" * 2
    assert not out.exists()


@pytest.mark.parametrize(
    "key, message",
    [
        ("n_rf_rx", "n_rf_rx must list positive integers"),
        ("snr_grid_db", "snr_grid_db must be nonempty"),
        ("bits_grid", "bits_grid entries must lie in [1, 8]"),
        ("methods", "methods must be nonempty"),
    ],
)
def test_empty_list_axis_is_rejected(key, message):
    # a config file cannot give an empty list, only a direct construction
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**{key: ()})


@pytest.mark.parametrize("argv, message", [
    (["--threads", "0"], "--threads must be at least 1"),
    (["--threads", "-3"], "--threads must be at least 1"),
])
def test_thread_counts_below_one_exit_1(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["run", "--config", _cfg(tmp_path, SMALL_RUN), "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_snr_range_ends_run_every_method(tmp_path, capsys):
    cfg = _cfg(tmp_path, SMALL_RUN + ALL_METHODS + "snr_grid_db = -300, 300\nbits_grid = 1, 2, 8\n")
    out = tmp_path / "out.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert {row[4] for row in rows} == set(METHODS)
    assert {row[1] for row in rows} == {"-300", "300"}
    assert all(math.isfinite(float(row[5])) and float(row[5]) >= 0 for row in rows)
    assert capsys.readouterr().err == ""


def test_every_list_axis_keeps_first_seen_distinct_entries():
    config = parse_config(
        "n_rf_rx = 4, 1, 4, 2, 1\n"
        "snr_grid_db = 10, 0, 10, -0, 0.0\n"
        "bits_grid = 3, 1, 3, 1\n"
        "methods = hybrid, ci_exact, hybrid\n"
    )
    assert config.n_rf_rx == (4, 1, 2)
    assert config.snr_grid_db == (10.0, 0.0)
    assert config.bits_grid == (3, 1)
    assert config.methods == ("hybrid", "ci_exact")
    assert ExperimentConfig(bits_grid=[2, 2]).bits_grid == (2,)


def test_repeated_snrs_and_bits_write_the_distinct_grid(tmp_path):
    paths = []
    for i, grid in enumerate(["snr_grid_db = 0,0,10\nbits_grid = 2,2\n",
                              "snr_grid_db = 0,10\nbits_grid = 2\n"]):
        out = tmp_path / f"out{i}.csv"
        assert main(["run", "--config", _cfg(tmp_path, SMALL_RUN + ALL_METHODS + grid),
                     "--out", str(out)]) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
