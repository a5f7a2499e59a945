"""The exact channel-inversion rate against a 40-digit mpmath reference.

The double-precision oracle (``discrete_mi`` of ``build_transition_matrix``)
and the sweep's ``rate_ci_exact_grid`` are bit-identical, and both lose
digits at low SNR, where the mutual information is a small difference of
order-one terms.  This test writes down how many: ENVELOPE bounds the
relative error measured at each SNR decade.
"""

import math

import numpy as np
import pytest

from quantlink.quantizers import build_transition_matrix
from quantlink.rates import discrete_mi, rate_ci_exact_grid

mp = pytest.importorskip("mpmath")

# (bits, sub-channel SNRs): 31 points over b = 2..8 and SNR 1e-6..1e6.
POINTS = {
    2: (1e-6, 1e-5, 1e-3, 1e-1, 1e1, 1e3, 1e6),
    3: (1e-6, 1e-4, 1e-2, 1e0, 1e2, 1e5),
    4: (1e-5, 1e-3, 1e-1, 1e1, 1e4),
    5: (1e-6, 1e-4, 1e-2, 1e0, 1e6),
    6: (1e-5, 1e-3, 1e-1, 1e3),
    7: (1e-6, 1e-2),
    8: (1e-3, 1e2),
}

# Largest relative error allowed at each SNR decade: about twice the largest
# error measured over b = 2..8 at that decade (for example 2.0e-13 for b = 2
# and 2.9e-11 for b = 7 at 1e-5).  From 1e-1 up it is at most 2.2e-15.
ENVELOPE = {-6: 1e-9, -5: 5e-11, -4: 1e-11, -3: 1e-12, -2: 5e-14}
HIGH_SNR_ENVELOPE = 3e-15


def reference_mi_bits(bits: int, snr: float):
    """Mutual information in bits of the matched 2^b-level quantizer at ``snr``.

    Threshold t_j sits (j - i + 1/2) steps above level l_i, so every
    probability is a difference of cdf[j] = Phi((1/2 - j) step) for
    j = 0..2^b - 1: the Gaussian's symmetry maps offsets above a level to
    offsets below it, where the CDF is small and keeps its relative accuracy.
    The MI is H(Y) - H(Y|X); at SNR 1e-6 that difference cancels fewer than
    10 of the 40 digits.
    """
    m = 2**bits
    with mp.workdps(40):
        step = mp.sqrt(12 * mp.mpf(snr) / (4**bits - 1))
        cdf = [mp.ncdf((mp.mpf(1) / 2 - j) * step) for j in range(m)]
        # an inner cell k of row i has probability mid[|k - i|]; the edge
        # cells of row i are cdf[i] and cdf[m - 1 - i]
        mid = [cdf[d] - cdf[d + 1] for d in range(m - 1)]
        rows = [
            [cdf[i], *(mid[abs(k - i)] for k in range(1, m - 1)), cdf[m - 1 - i]] for i in range(m)
        ]

        def h(p):
            return -p * mp.log(p) if p > 0 else mp.mpf(0)

        h_mid, h_cdf = [h(p) for p in mid], [h(p) for p in cdf]
        h_cond = mp.fsum(
            h_cdf[i] + h_cdf[m - 1 - i] + mp.fsum(h_mid[abs(k - i)] for k in range(1, m - 1))
            for i in range(m)
        ) / m
        h_out = mp.fsum(h(mp.fsum(column) / m) for column in zip(*rows))
        return (h_out - h_cond) / mp.log(2)


def envelope(snr: float) -> float:
    return ENVELOPE.get(math.floor(math.log10(snr) + 1e-9), HIGH_SNR_ENVELOPE)


@pytest.mark.parametrize("bits", sorted(POINTS))
def test_exact_rate_within_envelope_of_reference(bits):
    m = 2**bits
    snrs = POINTS[bits]
    grid = rate_ci_exact_grid(bits, snrs, 1) / 2.0  # two real dimensions per stream
    for snr, fast in zip(snrs, grid):
        reference = reference_mi_bits(bits, snr)
        oracle = discrete_mi(np.full(m, 1.0 / m), build_transition_matrix(bits, snr))
        assert fast == oracle
        rel_err = float(abs(mp.mpf(oracle) - reference) / reference)
        assert rel_err <= envelope(snr), (bits, snr, rel_err)


@pytest.mark.parametrize("snr", [1e-6, 1e-2, 1e0, 1e2])
def test_reference_matches_the_one_bit_closed_form(snr):
    """At one bit the reference is 1 - Hb(Q(sqrt(snr))), the antipodal closed form."""
    with mp.workdps(40):
        q = mp.ncdf(-mp.sqrt(mp.mpf(snr)))
        closed_form = 1 + (q * mp.log(q) + (1 - q) * mp.log(1 - q)) / mp.log(2)
        assert abs(reference_mi_bits(1, snr) - closed_form) <= mp.mpf(10) ** -30 * closed_form


def test_reference_saturates_at_the_bit_depth():
    assert float(reference_mi_bits(3, 1e6)) == 3.0
