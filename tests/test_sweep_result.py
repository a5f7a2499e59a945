"""One sweep result that every output reads.

``harness.sweep(config, threads)`` returns a frozen ``SweepResult``: the
config, the sample table, the receiver power per (width, bits) and each
analog design's convergence per (width, realization).  ``run_experiment``
is ``sweep(config, threads).records()``.  These tests pin that every AP entry
is the pair ``analog._projection_stream`` designs for that channel and width,
and that the whole result, AP entries included, does not depend on the
thread count; the CSV tests cannot see the AP entries.
"""

import dataclasses

import pytest

import quantlink.harness as harness
from quantlink import SweepResult, sweep, total_power
from quantlink.analog import _projection_stream
from quantlink.rates import METHODS

from test_table_pool import CONFIGS, cpus, started  # noqa: F401 - the last two are fixtures

# width 8 exceeds n_rf_tx = 6, so it has no analog design
CONFIG = CONFIGS["all_methods"]


@pytest.fixture(scope="module")
def result():
    return sweep(CONFIG)


def _bits(entry):
    iterations, converged, residual_f, residual_w = entry
    return iterations, converged, residual_f.hex(), residual_w.hex()


def test_each_ap_entry_is_the_pair_the_stream_designs_for_its_channel_and_width(result):
    widths = [n for n in CONFIG.n_rf_rx if n <= CONFIG.n_rf_tx]
    assert widths == [1, 2, 4]
    assert set(result.ap) == {(n, i) for n in widths for i in range(CONFIG.n_realizations)}
    for (n, i), entry in result.ap.items():
        ((width, index, pair),) = _projection_stream([harness._channel(CONFIG, i)], CONFIG.n_rf_tx, [n])
        assert (width, index) == (n, 0)
        want = pair.iterations, pair.converged, pair.residual_f, pair.residual_w
        assert [type(x) for x in entry] == [int, bool, float, float]
        assert _bits(entry) == _bits(want)


def test_the_result_is_frozen_and_its_arrays_are_read_only(result):
    assert isinstance(result, SweepResult) and result.config is CONFIG
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.ap = {}
    key = next(iter(result.table))
    for mapping, value in ((result.table, result.table[key]), (result.power_mw, 0.0), (result.ap, None)):
        with pytest.raises(TypeError):
            mapping[key] = value
    for cells, samples, outcomes in result.table.values():
        assert not samples.flags.writeable and not outcomes.flags.writeable
        with pytest.raises(ValueError):
            samples[0, 0] = 0.0


def test_the_power_covers_every_quantized_cell_once(result):
    bits = {b for m in CONFIG.methods for b in METHODS[m].cell_bits(CONFIG.bits_grid)} - {0}
    assert set(result.power_mw) == {(n, b) for n in CONFIG.n_rf_rx for b in bits}
    for (n, b), p_mw in result.power_mw.items():
        assert p_mw == total_power(CONFIG.power, CONFIG.n_rx, n, b)


def test_two_threads_give_the_same_result_bit_for_bit(cpus, started):
    cpus(2)
    serial = sweep(CONFIG, threads=1)
    assert started == []
    pooled = sweep(CONFIG, threads=2)
    assert len(started) == 1  # the table worker ran beside AP
    assert list(pooled.table) == list(serial.table)
    for key, (cells, samples, outcomes) in serial.table.items():
        cells2, samples2, outcomes2 = pooled.table[key]
        assert cells2 == cells
        assert samples2.tobytes() == samples.tobytes()
        assert outcomes2.tolist() == outcomes.tolist()
    assert list(pooled.ap) == list(serial.ap)
    assert [_bits(e) for e in pooled.ap.values()] == [_bits(e) for e in serial.ap.values()]
    assert pooled.power_mw == serial.power_mw
