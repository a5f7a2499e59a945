"""``ChannelRates._ci_exact_table`` is the one place the exact-rate table is built.

The sweep queues that method once per analog design and stores each result
as the state's ``ci_exact``; ``harness.py`` never calls the per-bit kernel or
stacks its columns itself.  These tests pin the method to the lazily computed
table, count the kernel calls a sweep makes at several thread counts, and
guard ``harness.py``'s source against a second table assembly.
"""

import ast
import dataclasses
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import quantlink.harness as harness
from quantlink import ChannelRates, ExperimentConfig, run_experiment

# Realization 2 is CI-infeasible (the config of test_exact_rate_grid.py).
CONFIG = ExperimentConfig(
    n_tx=16, n_rx=4, n_rf_tx=4, n_rf_rx=(2,), n_clusters=1, n_rays=2,
    angle_spread_deg=0.1, snr_grid_db=(-10.0, 0.0, 10.0, 30.0),
    bits_grid=(1, 2, 3, 4, 5, 6, 7, 8), n_realizations=4,
    methods=("ci_exact", "ci_fano", "aqnm_svd", "hybrid"), master_seed=2,
)
FEASIBLE = (0, 1, 3)


@pytest.fixture(scope="module")
def states():
    return [harness._realize(CONFIG, 2, i) for i in range(CONFIG.n_realizations)]


def test_feasibility_of_the_config(states):
    assert [i for i, s in enumerate(states) if s.ci_feasible] == list(FEASIBLE)


@pytest.mark.parametrize("index", FEASIBLE)
def test_table_equals_the_cached_property_bitwise(states, index):
    # a fresh copy, so neither value is read from the other's cache
    state = dataclasses.replace(states[index])
    table = state._ci_exact_table()
    assert table.shape == (len(CONFIG.snr_grid_db), len(CONFIG.bits_grid))
    assert np.array_equal(table, dataclasses.replace(states[index]).ci_exact)
    assert not np.isnan(table).any()
    assert state._ci_exact_table() is not table  # uncached


def test_infeasible_table_is_nan_without_a_grid_call(states):
    calls = []
    state = dataclasses.replace(
        states[2], ci_exact_grid=lambda *args: calls.append(args) or np.zeros(4)
    )
    table = state._ci_exact_table()
    assert table.shape == (len(CONFIG.snr_grid_db), len(CONFIG.bits_grid))
    assert np.isnan(table).all()
    assert np.isnan(state.ci_exact).all()
    assert calls == []


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_sweep_calls_the_kernel_once_per_feasible_state_and_bit_depth(threads, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    original = harness.rate_ci_exact_grid
    calls = []

    def counting(bits, snr_ci, n_streams):
        calls.append(bits)
        return original(bits, snr_ci, n_streams)

    monkeypatch.setattr(harness, "rate_ci_exact_grid", counting)
    run_experiment(CONFIG, threads=threads)
    assert sorted(calls) == sorted(list(CONFIG.bits_grid) * len(FEASIBLE))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_sweep_builds_one_table_per_analog_design(threads, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    original = ChannelRates._ci_exact_table
    lock = threading.Lock()
    built = []

    def counting(self):
        with lock:
            built.append(id(self))
        return original(self)

    monkeypatch.setattr(ChannelRates, "_ci_exact_table", counting)
    config = dataclasses.replace(CONFIG, n_rf_rx=(1, 2))
    run_experiment(config, threads=threads)
    assert len(built) == len(set(built)) == 2 * config.n_realizations


def test_harness_source_does_not_assemble_the_table():
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert name not in ("ci_exact_grid", "rate_ci_exact_grid"), ast.unparse(node)
        if isinstance(node, ast.Attribute) and node.attr == "stack":
            assert not (isinstance(node.value, ast.Name) and node.value.id == "np"), ast.unparse(node)
