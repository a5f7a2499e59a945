"""The config schema is read from the declarations: one typed reader for
every key, the list axes from the tuple fields, and a README block that
lists every key with its default."""

import math
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin

import pytest

from quantlink import harness
from quantlink.harness import ExperimentConfig, parse_config, run_experiment
from quantlink.power import PowerModelParams

README = Path(__file__).resolve().parents[1] / "README.md"
VALUE_TYPES = (str, int, float)


def _readme_config_lines():
    """The ``key = value`` lines of the README's "Config format" block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config format", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.split("#", 1)[0].strip()]


def _value(config, key):
    owner = config.power if key in harness._POWER_KEYS else config
    return getattr(owner, key)


class TestReadmeConfigBlock:
    def test_lists_every_key_once(self):
        keys = [line.split("=", 1)[0].strip() for line in _readme_config_lines()]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(harness._KEY_PARSERS)

    @pytest.mark.parametrize(
        "line",
        [line for line in _readme_config_lines() if not line.startswith("snr_grid_db")],
        ids=lambda line: line.split("=", 1)[0].strip(),
    )
    def test_each_line_parses_to_the_default(self, line):
        key = line.split("=", 1)[0].strip()
        assert _value(parse_config(line + "\n"), key) == _value(ExperimentConfig(), key)


@pytest.mark.parametrize("key", list(harness._KEY_PARSERS))
def test_every_key_declares_a_value_type_or_a_tuple_of_one(key):
    kind = harness._FIELD_TYPES[key]
    if get_origin(kind) is tuple:
        item, ellipsis = get_args(kind)
        assert ellipsis is Ellipsis
        kind = item
    assert kind in VALUE_TYPES


def test_an_undeclared_value_type_fails_when_its_key_is_read():
    with pytest.raises(KeyError):
        harness._parse(bool, "flag", "1")
    with pytest.raises(KeyError):
        harness._parse(tuple[complex, ...], "gains", "1,2")


def test_list_axes_are_the_tuple_fields():
    tuple_fields = [f.name for f in fields(ExperimentConfig) if get_origin(harness._FIELD_TYPES[f.name]) is tuple]
    assert harness._LIST_AXES == tuple(tuple_fields)
    assert harness._LIST_AXES == ("n_rf_rx", "snr_grid_db", "bits_grid", "methods")


def test_one_reader_parses_every_key():
    assert all(p.func is harness._parse for p in harness._KEY_PARSERS.values())
    for name in ("_parse_int", "_parse_float", "_parse_str", "_list_of", "_SCALAR_PARSERS", "_TYPE_PARSERS"):
        assert not hasattr(harness, name)


def test_power_is_computed_once_per_width_and_depth(monkeypatch):
    calls = Counter()
    total_power = harness.total_power

    def counted(params, n_rx, n_rf_rx, bits):
        calls[n_rf_rx, bits] += 1
        return total_power(params, n_rx, n_rf_rx, bits)

    monkeypatch.setattr(harness, "total_power", counted)
    config = ExperimentConfig(
        n_tx=8, n_rx=4, n_rf_tx=2, n_rf_rx=(1, 2, 3), snr_grid_db=(0.0, 10.0), bits_grid=(2, 3),
        n_realizations=2, methods=tuple(harness.METHODS),
    )
    records = run_experiment(config)
    assert calls == {(n, b): 1 for n in (1, 2, 3) for b in (1, 2, 3)}
    params = PowerModelParams()
    for r in records:
        if r.bits == 0:
            assert (r.power_mw, r.ee_bits_per_joule) == (0.0, 0.0)
        else:
            assert r.power_mw == total_power(params, 4, r.n_rf_rx, r.bits)
            assert math.isnan(r.ee_bits_per_joule) == math.isnan(r.mean_rate_bpshz)


def test_power_is_not_computed_for_an_unused_depth(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(harness, "total_power", lambda params, n_rx, n_rf_rx, bits: calls.update([bits]) or 1.0)
    config = ExperimentConfig(
        n_tx=8, n_rx=4, n_rf_tx=2, n_rf_rx=(2,), snr_grid_db=(0.0,), bits_grid=(4,),
        n_realizations=1, methods=("ci_exact", "ub_infinite"),
    )
    run_experiment(config)
    assert calls == {4: 1}
