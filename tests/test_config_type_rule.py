"""One type rule for the sweep config.

``ExperimentConfig`` checks every field against the type ``_FIELD_TYPES``
declares for it, the declarations that also drive the config reader: an
``int`` is what ``channel._is_integer`` accepts, a ``float`` any real number
but a bool, a ``str`` a string, ``power`` a ``PowerModelParams`` and a list
axis a list or tuple of its entry type.  A directly built config of the wrong
types fails where it is built, not later in a sweep, and every value is
stored as the Python value of its declared type, so the sweep writes its cell
coordinates without casts.  Also here: the loose one-bit bound's chain-count
rule, kept once in its kernel, a config file that is not UTF-8, and one
that opens with a UTF-8 byte-order mark.
"""

import ast
import dataclasses
import inspect
import textwrap
from dataclasses import fields
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import quantlink
from quantlink import harness
from quantlink.cli import main
from quantlink.harness import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    load_config,
    parse_config,
    run_experiment,
)
from quantlink.power import PowerModelParams
from quantlink.rates import METHODS, RateQuery, evaluate, ub_onebit_loose

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = sorted((ROOT / "perfbench" / "workloads").glob("*.cfg"))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"power": None}, "power must be a PowerModelParams"),
        ({"output_path": 3}, "output_path must be a string"),
        ({"snr_grid_db": ("0",)}, "snr_grid_db entries must be numbers"),
        ({"angle_spread_deg": "7.5"}, "angle_spread_deg must be a number"),
        ({"n_rf_rx": 4}, "n_rf_rx entries must be integers"),
        ({"methods": "ci_exact"}, "methods entries must be strings"),
        ({"snr_grid_db": (True,)}, "snr_grid_db entries must be numbers"),
        ({"angle_spread_deg": True}, "angle_spread_deg must be a number"),
        ({"methods": ("ci_exact", 3)}, "methods entries must be strings"),
        ({"experiment": b"rate_vs_snr"}, "experiment must be a string"),
        ({"bits_grid": {2: 1}}, "bits_grid entries must be integers"),
        ({"angle_spread_deg": 10**400}, "angle_spread_deg must be finite"),
        ({"snr_grid_db": (10**400,)}, "snr_grid_db entries must be finite"),
    ],
    ids=lambda v: next(iter(v)) if isinstance(v, dict) else None,
)
def test_a_value_of_the_wrong_type_fails_where_the_config_is_built(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig(**kwargs)


def test_numpy_values_and_lists_are_stored_as_python_values_and_tuples():
    config = ExperimentConfig(
        n_rf_rx=[np.int32(2), 1, np.int64(2)],
        snr_grid_db=[np.float32(1.5), 0, np.int64(-3)],
        bits_grid=[np.int32(3)],
        methods=["ub_infinite", "ci_onebit"],
        angle_spread_deg=np.float32(7.5),
        n_tx=np.int64(16),
        master_seed=np.int64(7),
    )
    assert config.n_rf_rx == (2, 1)
    assert config.snr_grid_db == (1.5, 0.0, -3.0)
    assert config.bits_grid == (3,)
    assert config.methods == ("ub_infinite", "ci_onebit")
    assert [type(n) for n in config.n_rf_rx] == [int, int]
    assert [type(s) for s in config.snr_grid_db] == [float, float, float]
    assert type(config.bits_grid[0]) is int
    assert (type(config.angle_spread_deg), type(config.n_tx), type(config.master_seed)) == (float, int, int)
    assert (config.angle_spread_deg, config.n_tx, config.master_seed) == (7.5, 16, 7)


def test_replace_of_a_valid_config_round_trips():
    config = ExperimentConfig(n_rf_rx=[2, 2, 1], snr_grid_db=(0, 10), master_seed=np.int64(3))
    assert dataclasses.replace(config) == config
    changed = dataclasses.replace(config, master_seed=9)
    assert changed.master_seed == 9
    assert dataclasses.replace(changed, master_seed=3) == config


def test_the_sweep_writes_cell_coordinates_of_their_declared_types():
    config = ExperimentConfig(
        n_tx=8, n_rx=2, n_rf_tx=2, n_rf_rx=[np.int64(1), np.int32(2)],
        snr_grid_db=[np.int64(0), np.float32(10.0)], bits_grid=[np.int32(2)],
        n_realizations=np.int64(2), methods=["ci_onebit", "ub_infinite"], master_seed=np.int64(5),
    )
    records = run_experiment(config)
    assert records
    for r in records:
        assert (type(r.snr_db), type(r.bits), type(r.n_rf_rx)) == (float, int, int)
        assert (type(r.n_realizations), type(r.master_seed)) == (int, int)


# --- the loose bound's chain-count rule, written once -------------------------

ANTENNA_COUNT = r"^n_rf_rx \(2\) cannot exceed the channel's receive-antenna count \(1\)$"


def test_evaluate_rejects_more_chains_than_the_full_channel_has_rows():
    g = [[1, 0.2, 0.1], [0.1, 0.9, 0.3]]
    h = [[1, 0.5, 0.2]]
    with pytest.raises(ValueError, match=ANTENNA_COUNT):
        evaluate(RateQuery(10.0, 2, 1, "ub_onebit_loose"), g, h)
    with pytest.raises(ValueError, match=ANTENNA_COUNT):
        ub_onebit_loose(h, 10.0, 2)
    assert float(evaluate(RateQuery(10.0, 2, 1, "ub_onebit_loose"), g, g)) == float(ub_onebit_loose(g, 10.0, 2))


def test_the_chain_count_rule_is_written_once_in_the_kernel():
    src = Path(quantlink.__file__).parent
    text = "cannot exceed the channel's receive-antenna count"
    assert sum(path.read_text().count(text) for path in src.glob("*.py")) == 1
    assert text in inspect.getsource(METHODS["ub_onebit_loose"].kernel)


# --- a config file that is not UTF-8 ------------------------------------------


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "f.cfg"
    path.write_bytes(b"\xff\xfe")
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert "Traceback" not in err
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)


def test_a_utf8_config_with_a_byte_order_mark_is_read(tmp_path, capsys):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfn_realizations = 1\n")
    assert main(["validate", "--config", str(path)]) == 0
    assert "1 realizations" in capsys.readouterr().out
    assert load_config(path) == ExperimentConfig(n_realizations=1)


# --- the reader and the checker cannot drift ----------------------------------


def _readme_block():
    """The README's "Config format" block, without its elided SNR line."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("### Config format", 1)[1]
    block = section.split("```", 2)[1]
    return "\n".join(line for line in block.splitlines() if not line.startswith("snr_grid_db"))


def _direct(text):
    """``text`` read by hand into the declared types, as numpy scalars and
    lists where it can, and built into an ExperimentConfig directly."""
    numpy_of = {int: np.int64, float: np.float64, str: str}
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        kind = harness._FIELD_TYPES[key]
        if key in harness._LIST_AXES:
            values[key] = [numpy_of[get_args(kind)[0]](item.strip()) for item in value.split(",")]
        else:
            values[key] = numpy_of[kind](value)
    power = PowerModelParams(**{k: values.pop(k) for k in list(values) if k in harness._POWER_KEYS})
    return ExperimentConfig(power=power, **values)


@pytest.mark.parametrize(
    "text",
    [path.read_text() for path in WORKLOADS] + [_readme_block()],
    ids=[path.stem for path in WORKLOADS] + ["README"],
)
def test_the_reader_and_a_direct_construction_agree(text):
    parsed = parse_config(text)
    direct = _direct(text)
    assert direct == parsed
    for f in fields(ExperimentConfig):
        assert type(getattr(direct, f.name)) is type(getattr(parsed, f.name)), f.name


def test_the_workload_files_are_found():
    assert {path.stem for path in WORKLOADS} >= {"snr_ref", "nrf_all_t2", "onebit_ap", "golden"}


def _function(func):
    return ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]


def test_post_init_checks_types_in_one_loop_through_the_predicate():
    body = _function(ExperimentConfig.__post_init__)
    loops = [node for node in ast.walk(body) if isinstance(node, ast.For)]
    typed = [
        loop for loop in loops
        if any(isinstance(n, ast.Name) and n.id == "_is_a" for n in ast.walk(loop))
    ]
    assert len(typed) == 1
    assert ast.unparse(typed[0].iter) == "fields(self)"
    # no type is named outside the predicate: each field's comes from _FIELD_TYPES
    names = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    assert not names & {"int", "float", "str", "bool", "PowerModelParams", "_is_integer", "numbers"}
    assert "_FIELD_TYPES" in names


def test_run_experiment_writes_cell_coordinates_without_casts():
    body = _function(harness.SweepResult.records)
    calls = [
        node for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == ResultRecord.__name__
    ]
    assert len(calls) == 1
    coordinates = {k.arg: k.value for k in calls[0].keywords if k.arg in ("snr_db", "bits", "n_rf_rx")}
    assert set(coordinates) == {"snr_db", "bits", "n_rf_rx"}
    for value in coordinates.values():
        assert isinstance(value, ast.Name), ast.unparse(value)
    casts = {n.func.id for n in ast.walk(body) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert not casts & {"int", "float"}
