"""The mirror steps of the transition-matrix stack copy no stack, measured with tracemalloc.

The lower half of each transition matrix (and of its log terms) mirrors the
upper half.  numpy's overlap test for an assignment looks only at memory
bounds, and the reversed upper halves of a stack span its lower halves, so
mirroring a whole stack at once first copies the source.  Mirroring one
matrix at a time copies nothing; these bounds leave no room for that copy.
"""

import tracemalloc

import numpy as np
import pytest

import quantlink.rates as rates
from quantlink import build_transition_matrices, build_transition_matrix, rate_ci_exact_grid

SNRS = np.logspace(-2.0, 2.0, 64)


def traced_peak(fn, *args):
    """Peak traced bytes of one call of ``fn``, after a warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def test_transition_stack_peak_is_its_output():
    peak, out = traced_peak(build_transition_matrices, 8, SNRS[:21])
    assert peak <= 1.1 * out.nbytes
    assert np.array_equal(out[7], build_transition_matrix(8, SNRS[7]).entries)


@pytest.mark.parametrize("bits", (6, 7))
def test_multi_matrix_batch_holds_only_its_two_buffers(bits, monkeypatch):
    # a larger batch, so a half-stack copy (0.5 buffer) stands out from
    # numpy's fixed-size iterator buffers on the strided views
    monkeypatch.setattr(rates, "_BATCH_ENTRIES", 2**18)
    assert rates._BATCH_ENTRIES // 4**bits > 1
    peak, wide = traced_peak(rate_ci_exact_grid, bits, SNRS, 2)
    assert peak <= 2.25 * 8 * rates._BATCH_ENTRIES
    monkeypatch.undo()
    assert np.array_equal(wide, rate_ci_exact_grid(bits, SNRS, 2))
