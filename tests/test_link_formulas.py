"""One formula per link quantity.

The matched-PAM step, its level/threshold grid, the Gaussian tail and the
worst-stream one-bit bound are each written once; every former copy is now a
call of the one helper, bit for bit equal to the expression it replaced.  An
``ast`` scan keeps the step and the tail from being written again.  The
module also pins the exit code of a non-integer ``--seed`` or ``--threads``,
the finite-rate check of ``energy_efficiency`` and the sweep's lazy exact-rate
tables at one thread.
"""

import ast
import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc

import quantlink
import quantlink.harness as harness
import quantlink.rates as rates
from quantlink import (
    ChannelRates,
    ExperimentConfig,
    energy_efficiency,
    gauss_cdf,
    matched_stepsize,
    pam_error_probability,
    qfunc,
    rate_ci_onebit_lb,
    uniform_pam_quantizer,
)
from quantlink.channel import _matrix
from quantlink.cli import main
from quantlink.quantizers import _pam_error_probability, _pam_grid, _step

from conftest import make_channel

SNRS = np.logspace(-30.0, 30.0, 200_001)
BITS = range(1, 9)


# --- each helper equals the expression it replaced, bit for bit --------------


@pytest.mark.parametrize("bits", BITS)
def test_step_equals_the_former_step_and_half_step_expressions(bits):
    step = _step(bits, SNRS)
    assert np.array_equal(step, np.sqrt(12.0 * SNRS / (4.0**bits - 1.0)))
    # the former argument of Q in the symbol error probability
    assert np.array_equal(step / 2.0, np.sqrt(3.0 * SNRS / (4.0**bits - 1.0)))


@pytest.mark.parametrize("bits", BITS)
def test_matched_stepsize_is_the_step_at_one_snr(bits):
    for snr in SNRS[::20_000].tolist():
        assert matched_stepsize(bits, snr) == float(np.sqrt(12.0 * snr / (4.0**bits - 1.0)))


def test_step_takes_an_array_of_bit_depths():
    bits = np.arange(1, 9)
    table = _step(bits, SNRS[::1000, None])
    assert table.shape == (SNRS[::1000].size, 8)
    for j, b in enumerate(bits.tolist()):
        assert np.array_equal(table[:, j], _step(b, SNRS[::1000]))


@pytest.mark.parametrize("bits", BITS)
def test_grid_of_a_column_equals_the_scalar_grid_row_by_row(bits):
    steps = _step(bits, SNRS[::5000])
    thresholds, levels = _pam_grid(bits, steps[:, None])
    m = 2**bits
    assert thresholds.shape == (steps.size, m - 1) and levels.shape == (steps.size, m)
    for k, step in enumerate(steps.tolist()):
        t, lv = _pam_grid(bits, step)
        assert np.array_equal(thresholds[k], t) and np.array_equal(levels[k], lv)
        assert np.array_equal(lv, (np.arange(m) - (m - 1) / 2.0) * step)
        assert np.array_equal(t, (np.arange(m - 1) - (m - 2) / 2.0) * step)


@pytest.mark.parametrize("bits", BITS)
def test_uniform_pam_quantizer_reads_the_grid(bits):
    snr = 7.25
    spec = uniform_pam_quantizer(bits, snr)
    thresholds, levels = _pam_grid(bits, matched_stepsize(bits, snr))
    assert np.array_equal(spec.thresholds, thresholds) and np.array_equal(spec.levels, levels)


def test_pam_error_probability_equals_the_former_expression():
    bits = np.arange(1, 9)
    snr = SNRS[::50, None]
    former = 2.0 * (1.0 - 2.0**-bits) * qfunc(np.sqrt(3.0 * snr / (4.0**bits - 1.0)))
    assert np.array_equal(_pam_error_probability(bits, snr), former)
    for j, b in enumerate(BITS):
        assert pam_error_probability(b, float(snr[7, 0])) == float(former[7, j])


def test_gauss_cdf_is_the_tail_of_minus_x():
    x = np.concatenate((np.linspace(-40.0, 40.0, 400_001), [-np.inf, np.inf, 0.0, -0.0]))
    former = 0.5 * erfc(-x / np.sqrt(2.0))
    assert np.array_equal(gauss_cdf(x), former)
    assert np.array_equal(gauss_cdf(x), qfunc(-x))
    # a list is still taken
    assert gauss_cdf([0.5, -1.0]).tolist() == [float(gauss_cdf(0.5)), float(gauss_cdf(-1.0))]


def test_onebit_lower_bound_equals_the_former_expression():
    for seed in range(5):
        g = make_channel(seed, 8, 4).entries[:3]
        nu = _matrix(g).singular_values
        for rho in np.logspace(-3.0, 3.0, 61).tolist():
            former = 2.0 * 3 * (1.0 - rates._binary_entropy(qfunc(np.sqrt(rho * nu[2] ** 2 / 3))))
            assert float(rate_ci_onebit_lb(g, rho, 3)) == float(former)


def test_onebit_lower_bound_is_a_one_point_call_of_the_bound(monkeypatch):
    g = make_channel(1, 8, 4).entries[:2]
    calls = []
    bound = rates._onebit_bound

    def counting(nu, rhos, n):
        calls.append((nu, rhos, n))
        return bound(nu, rhos, n)

    monkeypatch.setattr(rates, "_onebit_bound", counting)
    rate_ci_onebit_lb(g, 4.0, 2)
    assert calls == [(_matrix(g).singular_values[1], 4.0, 2)]


# --- each quantity is written once in the source -----------------------------

SRC = Path(quantlink.__file__).parent


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _expressions(text):
    return [
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.expr) and ast.unparse(node) == text
    ]


@pytest.mark.parametrize(
    "text, module",
    [
        ("4.0 ** bits - 1.0", "quantizers.py"),  # the matched-PAM step
        ("np.arange(m) - (m - 1) / 2.0", "quantizers.py"),  # the level grid
        ("np.arange(m - 1) - (m - 2) / 2.0", "quantizers.py"),  # the threshold grid
    ],
)
def test_each_formula_is_written_once(text, module):
    assert _expressions(text) == [module]


def _erfc_calls(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "erfc" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_erfc_is_called_only_by_the_tail_and_the_stacked_kernel():
    callers = []
    for module, tree in _modules().items():
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        callers += [(module, f.name) for f in functions for _ in _erfc_calls(f)]
        # no call outside a function
        assert len(_erfc_calls(tree)) == sum(len(_erfc_calls(f)) for f in functions)
    assert sorted(callers) == [("quantizers.py", "_fill_transition_matrices"), ("quantizers.py", "qfunc")]


def test_channel_rates_has_no_second_name_for_the_stream_count():
    assert not hasattr(ChannelRates, "n_rf_rx")
    assert "n_rf_rx" not in {f.name for f in dataclasses.fields(ChannelRates)}


def test_harness_does_not_import_future():
    tree = ast.parse(Path(harness.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "Future" not in imported
    assert not hasattr(harness, "Future")


# --- the sweep queues no table without a pool --------------------------------

CONFIG = ExperimentConfig(
    n_tx=16, n_rx=4, n_rf_tx=4, n_rf_rx=(1, 2), snr_grid_db=(-10.0, 10.0),
    bits_grid=(1, 2, 3), n_realizations=2, methods=("ci_exact", "hybrid"), master_seed=4,
)


def _realize_all(threads):
    return harness._realize_all(CONFIG, list(CONFIG.n_rf_rx), harness._grid(CONFIG), threads)


def test_one_thread_leaves_every_table_to_its_first_read(monkeypatch):
    calls = []
    original = harness.rate_ci_exact_grid
    monkeypatch.setattr(
        harness, "rate_ci_exact_grid", lambda *args: calls.append(args[0]) or original(*args)
    )
    states = [s for row in _realize_all(1).values() for s in row]
    assert calls == []
    assert all("ci_exact" not in vars(s) for s in states)
    for s in states:
        assert np.array_equal(s.ci_exact, s._ci_exact_table())
    assert len(calls) == 2 * 3 * len(states)  # one read and one uncached call each


def test_a_pool_stores_every_table_before_returning(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    states = [s for row in _realize_all(2).values() for s in row]
    assert all("ci_exact" in vars(s) for s in states)
    for s in states:
        assert np.array_equal(vars(s)["ci_exact"], s._ci_exact_table())


# --- the command line and the energy-efficiency rate --------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--threads", "abc"], "--threads must be an integer, got 'abc'"),
        (["--threads", "1.5"], "--threads must be an integer, got '1.5'"),
        (["--threads", ""], "--threads must be an integer, got ''"),
        (["--seed", "abc"], "--seed must be an integer, got 'abc'"),
        (["--seed", "7.0"], "--seed must be an integer, got '7.0'"),
    ],
)
def test_non_integer_flags_are_config_errors(argv, message, tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_realizations = 1\nsnr_grid_db = 0\nbits_grid = 1\n")
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("rate", [math.nan, math.inf, np.float64("nan"), np.float64("inf")])
def test_energy_efficiency_rejects_a_non_finite_rate(rate):
    with pytest.raises(ValueError, match="^rate must be a finite number, got "):
        energy_efficiency(rate, 1e9, 100.0)


@pytest.mark.parametrize("rate", [-1.0, -math.inf])
def test_energy_efficiency_keeps_the_negative_rate_message(rate):
    with pytest.raises(ValueError, match="^rate must be nonnegative$"):
        energy_efficiency(rate, 1e9, 100.0)
