"""Non-finite sub-channel SNRs and NaN transition entries are rejected.

An infinite SNR has no matched step size, and a finite SNR whose ``12 snr``
overflows leaves NaN entries; either used to come out as a silent zero rate.
"""

import math

import numpy as np
import pytest

from quantlink import (
    TransitionMatrix,
    build_transition_matrices,
    build_transition_matrix,
    matched_stepsize,
    rate_ci_exact,
    rate_ci_exact_grid,
)


@pytest.mark.parametrize("bits", range(1, 9))
def test_infinite_snr_raises(bits):
    with pytest.raises(ValueError, match="snr must be finite"):
        rate_ci_exact(bits, math.inf, 1)
    with pytest.raises(ValueError, match="snr must be finite"):
        rate_ci_exact_grid(bits, [1.0, math.inf], 1)
    with pytest.raises(ValueError, match="snr must be finite"):
        build_transition_matrices(bits, [math.inf])
    with pytest.raises(ValueError, match="snr must be finite"):
        matched_stepsize(bits, math.inf)


def test_nan_entry_fails_the_stochastic_check():
    entries = build_transition_matrix(3, 1.0).entries.copy()
    TransitionMatrix(entries)
    entries[2, 5] = math.nan
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        TransitionMatrix(entries)


@pytest.mark.parametrize("bits", (2, 3, 8))
def test_overflowing_snr_raises_instead_of_a_zero_rate(bits):
    # 12 * 1e308 overflows to inf, and inf * 0 leaves NaN entries
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="transition probabilities"):
            rate_ci_exact_grid(bits, [1e308], 1)
        with pytest.raises(ValueError, match="transition probabilities"):
            build_transition_matrices(bits, [1.0, 1e308])
        with pytest.raises(ValueError, match="transition probabilities"):
            build_transition_matrix(bits, 1e308)
