"""The AQNM and Fano tables are one array call each over the SNR x bit-depth grid.

``_aqnm_rates`` takes an (S, N, Ns) stack of precoded channels, one per SNR,
and returns the (S, B) table; ``rate_aqnm`` is its one-point call.  The Fano
kernel broadcasts its helpers over both axes.  These tests pin each table to
the per-cell public functions bit for bit and guard the source against a
per-SNR or per-bit loop coming back.
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest

import quantlink.rates as rates
from quantlink import lloyd_max, rate_aqnm, rate_ci_fano, svd_precoder
from quantlink.channel import ChannelMatrix
from quantlink.rates import ChannelRates, RateGrid, _aqnm_rates, _ci_fano_kernel

BITS = tuple(range(1, 9))
ETAS = np.array([0.0] + [lloyd_max(b)[1].eta for b in BITS])


@pytest.mark.parametrize("n", range(1, 9))
def test_fano_table_equals_per_cell_rate_ci_fano(n):
    # G = I gives snr_ci = rho / n, so the grid spans 1e-6 to 1e8
    rhos = n * np.logspace(-6.0, 8.0, 29)
    grid = RateGrid(rhos, BITS, ETAS[1:])
    state = ChannelRates(ChannelMatrix(np.eye(n, dtype=complex)), None, n, True, grid)
    table = _ci_fano_kernel(state)
    assert table.shape == (rhos.size, len(BITS))
    expected = [
        [rate_ci_fano(b, snr, n).bits_per_channel_use for b in BITS] for snr in state.snr_ci.tolist()
    ]
    assert np.array_equal(table, np.array(expected))


def dominant_stream_channel(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    g[:, 0] *= 1e2  # waterfilling drops the weak streams at low SNR
    return g


@pytest.mark.parametrize("n", (1, 2, 4, 8))
def test_stacked_aqnm_equals_one_point_calls(n):
    g = dominant_stream_channel(n, seed=n)
    rhos = np.logspace(-3.0, 4.0, 15)
    f_bbs = [svd_precoder(g, rho, n) for rho in rhos.tolist()]
    if n > 1:
        assert any(np.any(f.power_alloc == 0.0) for f in f_bbs)
    table = _aqnm_rates(g @ np.stack([f.f_bb for f in f_bbs]), rhos, ETAS)
    assert table.shape == (rhos.size, ETAS.size)
    for s, (rho, f_bb) in enumerate(zip(rhos.tolist(), f_bbs)):
        for b, eta in enumerate(ETAS.tolist()):
            assert table[s, b] == rate_aqnm(g, f_bb, rho, eta).bits_per_channel_use


def test_channel_rates_aqnm_is_the_stacked_kernel():
    g = ChannelMatrix(dominant_stream_channel(4, seed=11))
    rhos = np.logspace(-2.0, 3.0, 6)
    state = ChannelRates(g, None, 4, True, RateGrid(rhos, BITS, ETAS[1:]))
    f_bbs = np.stack([svd_precoder(g, rho, 4).f_bb for rho in rhos.tolist()])
    assert np.array_equal(state.aqnm, _aqnm_rates(g.entries @ f_bbs, rhos, ETAS[1:]))


# --- the source guard --------------------------------------------------------

LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def function_tree(fn):
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def called_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def calls_in_loops(tree, name):
    return [
        call
        for loop in ast.walk(tree) if isinstance(loop, LOOPS)
        for call in ast.walk(loop) if isinstance(call, ast.Call) and called_name(call) == name
    ]


def test_aqnm_kernel_is_called_once_per_table_and_never_in_a_loop():
    tree = function_tree(ChannelRates.aqnm.func)
    calls = [c for c in ast.walk(tree) if isinstance(c, ast.Call) and called_name(c) == "_aqnm_rates"]
    assert len(calls) == 1
    assert not calls_in_loops(ast.parse(inspect.getsource(rates)), "_aqnm_rates")


def test_fano_kernel_has_no_loop_or_stack():
    tree = function_tree(_ci_fano_kernel)
    assert not [n for n in ast.walk(tree) if isinstance(n, LOOPS)]
    assert "stack" not in {called_name(c) for c in ast.walk(tree) if isinstance(c, ast.Call)}
