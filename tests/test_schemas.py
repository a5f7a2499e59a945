"""Each schema has one declaration: the config keys, the CSV columns and the
package exports are derived from the dataclasses and ``__all__`` lists they
mirror."""

import importlib
import math
from dataclasses import fields
from typing import get_type_hints

import pytest

import quantlink
from quantlink import harness
from quantlink.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    emit_csv,
    parse_config,
)
from quantlink.power import PowerModelParams

SUBMODULES = ("analog", "channel", "digital", "harness", "power", "quantizers", "rates")

CONFIG_FIELDS = [f for f in fields(ExperimentConfig) if f.name != "power"]
POWER_FIELDS = list(fields(PowerModelParams))
FIELD_TYPES = {**get_type_hints(ExperimentConfig), **get_type_hints(PowerModelParams)}


def _default_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _parsed_value(config, name):
    return getattr(config.power if name in {f.name for f in POWER_FIELDS} else config, name)


class TestConfigKeys:
    def test_keys_are_the_config_and_power_fields(self):
        expected = {f.name for f in CONFIG_FIELDS} | {f.name for f in POWER_FIELDS}
        assert set(harness._KEY_PARSERS) == expected
        assert harness._POWER_KEYS == {f.name for f in POWER_FIELDS}

    def test_nested_power_field_is_not_a_key(self):
        with pytest.raises(ConfigError, match="^line 1: unknown key 'power'$"):
            parse_config("power = 1\n")

    @pytest.mark.parametrize("field", CONFIG_FIELDS + POWER_FIELDS, ids=lambda f: f.name)
    def test_each_key_parses_to_its_declared_type(self, field):
        default = _parsed_value(ExperimentConfig(), field.name)
        config = parse_config(f"{field.name} = {_default_text(default)}\n")
        value = _parsed_value(config, field.name)
        assert value == default
        kind = FIELD_TYPES[field.name]
        if isinstance(value, tuple):
            item = kind.__args__[0]
            assert all(type(v) is item for v in value)
        else:
            assert type(value) is kind

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_tx = x", "key 'n_tx': expected an integer, got 'x'"),
            ("master_seed = 1.5", "key 'master_seed': expected an integer, got '1.5'"),
            ("angle_spread_deg = wide", "key 'angle_spread_deg': expected a number, got 'wide'"),
            ("bits_grid = 1, two", "key 'bits_grid': expected an integer, got 'two'"),
            ("n_rf_rx = 2,", "key 'n_rf_rx': expected an integer, got ''"),
            ("snr_grid_db = 0, loud", "key 'snr_grid_db': expected a number, got 'loud'"),
            ("p_lna_mw = lots", "key 'p_lna_mw': expected a number, got 'lots'"),
            ("bandwidth_hz = 1e9 Hz", "key 'bandwidth_hz': expected a number, got '1e9 Hz'"),
            ("p_bb_mw = 0", "p_bb_mw must be positive"),
            ("n_tx = 4\nn_tx = 4", "line 2: duplicate key 'n_tx'"),
            ("n_tx =", "line 1: key 'n_tx' has no value"),
            ("n_tx 4", "line 1: expected 'key = value', got 'n_tx 4'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(text + "\n")
        assert str(exc.value) == message

    def test_list_items_are_stripped(self):
        config = parse_config(
            "methods = ci_exact , hybrid\nbits_grid = 1 ,2\nsnr_grid_db = -3.5, 4\n"
        )
        assert config.methods == ("ci_exact", "hybrid")
        assert config.bits_grid == (1, 2)
        assert config.snr_grid_db == (-3.5, 4.0)


def _old_row(r):
    """The CSV row as the hand-written column list formatted it."""

    def fmt(value):
        return f"{value:.10g}" if isinstance(value, float) else str(value)

    return ",".join((
        r.experiment,
        fmt(r.snr_db),
        str(r.bits),
        str(r.n_rf_rx),
        r.method,
        fmt(r.mean_rate_bpshz),
        fmt(r.rate_stderr),
        fmt(r.power_mw),
        fmt(r.ee_bits_per_joule),
        str(r.n_realizations),
        str(r.master_seed),
    ))


class TestCsvColumns:
    def test_header_is_the_record_fields(self):
        assert CSV_HEADER == ",".join(f.name for f in fields(ResultRecord))

    def test_rows_match_the_hand_written_columns(self, tmp_path):
        records = [
            ResultRecord("rate_vs_snr", -20.0, 1, 4, "ci_exact", math.nan, math.nan, 848.0,
                         math.nan, 3, 1),
            ResultRecord("rate_vs_snr", -20.0, 0, 4, "ub_infinite", 1e-300, 0.0, 0.0, 0.0, 3, 1),
            ResultRecord("rate_vs_snr", 3.25, 8, 1, "hybrid", 15.999999999999, 1.2345678901234e-17,
                         1.0000000000123e7, 6.02214076e23, 100, 2**63 - 1),
            ResultRecord("rate_vs_snr", -0.0, 2, 8, "aqnm_svd", 123456789012.5, 5e-324,
                         math.inf, -1.5, 1, 0),
        ]
        path = tmp_path / "rows.csv"
        emit_csv(records, path)
        ordered = sorted(records, key=lambda r: (r.snr_db, r.bits, r.n_rf_rx, r.method))
        expected = "".join(line + "\n" for line in [CSV_HEADER] + [_old_row(r) for r in ordered])
        assert path.read_bytes() == expected.encode("ascii")

    def test_run_output_matches_the_hand_written_columns(self, tmp_path):
        config = ExperimentConfig(
            n_tx=16, n_rx=4, n_rf_tx=2, n_rf_rx=(1, 3), snr_grid_db=(-10.0, 10.0),
            bits_grid=(1, 3), n_realizations=2, master_seed=11,
            methods=("ci_exact", "aqnm_svd", "ub_infinite"),
        )
        records = harness.run_experiment(config)
        assert any(math.isnan(r.mean_rate_bpshz) for r in records)
        assert any(r.bits == 0 for r in records)
        path = tmp_path / "run.csv"
        emit_csv(records, path)
        rows = path.read_text().splitlines()[1:]
        ordered = sorted(records, key=lambda r: (r.snr_db, r.bits, r.n_rf_rx, r.method))
        assert rows == [_old_row(r) for r in ordered]


class TestPackageExports:
    @pytest.mark.parametrize("name", SUBMODULES)
    def test_every_submodule_export_is_a_package_export(self, name):
        module = importlib.import_module(f"quantlink.{name}")
        for export in module.__all__:
            assert export in quantlink.__all__
            assert getattr(quantlink, export) is getattr(module, export)

    def test_package_exports_nothing_else(self):
        names = [n for m in SUBMODULES for n in importlib.import_module(f"quantlink.{m}").__all__]
        assert sorted(quantlink.__all__) == sorted(set(names))
        assert len(names) == len(set(names))

    def test_names_added_to_the_package(self):
        for name in ("CSV_HEADER", "ChannelRates", "MAX_BITS", "METHODS", "RateGrid", "RateMethod"):
            assert name in quantlink.__all__
            assert hasattr(quantlink, name)
