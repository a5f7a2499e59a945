"""Working-set bounds of the exact-rate kernel, measured with tracemalloc.

A ``rate_ci_exact_grid`` call holds two buffers of at most
``rates._BATCH_ENTRIES`` doubles: the matrix stack, whose lower half holds
the CDF before the mirror step overwrites it and which becomes the joint in
place, and the terms.  The bounds leave room for the small per-batch arrays
and for the copy of the selected terms when a joint has zero entries, but not
for a third matrix-sized buffer.
"""

import tracemalloc

import numpy as np
import pytest

import quantlink.rates as rates
from quantlink import build_transition_matrices, rate_ci_exact_grid

SNRS = np.logspace(-2.0, 2.0, 21)


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


@pytest.mark.parametrize("bits", (6, 7, 8))
def test_exact_rate_call_holds_two_batch_buffers(bits):
    peak, _ = traced_peak(rate_ci_exact_grid, bits, SNRS, 2)
    assert peak <= 3.5 * 8 * rates._BATCH_ENTRIES


def test_transition_stack_has_no_cdf_buffer():
    peak, out = traced_peak(build_transition_matrices, 8, SNRS)
    assert peak <= 1.75 * out.nbytes
