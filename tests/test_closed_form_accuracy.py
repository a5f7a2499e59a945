"""Three closed-form rates against a 50-digit mpmath evaluation of the same formula.

The one-bit form 2 N (1 - Hb(Q(sqrt(x)))) that ``ci_onebit``,
``ub_onebit_tight`` and ``ub_onebit_loose`` share, and the Fano bound
2 Ns (b - Hb(Pe) - Pe log2(2^b - 1)), are differences of O(1) numbers: at
low SNR they keep about 16 - log10(1/rate) digits, and below that they read
0 or a spurious few ulps of 1 (``ub_onebit_tight`` gives 4.4e-16 at
rho = 1e-30, the Fano bound 1.8e-15 at some decades).  The AQNM rate takes
log2 of 1 + x, as at eta = 0 in ``test_rate_accuracy.py``.  The reference
takes the same float G, precoder, eta and rho, so only the formula's own
rounding shows.  From the first decade that keeps a digit (relative error
below 0.5) the envelope is about twice the error measured with numpy's
bundled OpenBLAS (``SkylakeX`` kernel), and never below 2 ulps (4.4e-16); at
the decades below it the rate must read at most 1e-14 bps/Hz.
"""

import pytest

from quantlink.digital import svd_precoder
from quantlink.quantizers import lloyd_max
from quantlink.rates import rate_aqnm, rate_ci_fano, ub_onebit_tight
from test_rate_accuracy import DECADES, G, mp, mp_matrix, relative_error

FLOOR = 4.4e-16
NEAR_ZERO = 1e-14  # bps/Hz, at the decades that keep no digit


def _envelope(first, errors):
    """``decade -> largest relative error``, from ``first`` on; None below it."""
    table = dict.fromkeys(range(DECADES.start, first))
    table.update(zip(range(first, first + len(errors)), errors))
    return table


ENVELOPE = {
    ("onebit", 1): _envelope(-15, (
        0.17, 0.015, 0.0023, 1.7e-4, 1.5e-5, 1.9e-6, 5e-8, 5.3e-9, 1.6e-9, 1.7e-11, 3.8e-12,
        5.8e-13, 1.1e-13, 1.2e-14, 1.5e-15,
    )),
    ("fano", 2): _envelope(-14, (
        0.096, 0.0015, 1.7e-4, 6.6e-6, 9.8e-6, 7.4e-7, 6.8e-8, 1.3e-9, 2.3e-10, 7.3e-11,
        1.1e-11, 1.4e-12, 6.9e-14, 1.4e-15, 1.8e-15,
    )),
    ("fano", 3): _envelope(-14, (
        0.33, 0.028, 0.0041, 4e-5, 1.4e-5, 1.3e-6, 4.4e-7, 3.8e-8, 2.9e-10, 3.8e-10, 6.2e-12,
        3.9e-13, 6.3e-13, 1.9e-14, 2.5e-15,
    )),
    ("fano", 4): _envelope(-14, (
        0.2, 0.028, 0.0054, 9.3e-4, 4.5e-5, 5.5e-6, 7.2e-7, 4e-8, 4.8e-9, 1.5e-9, 5.3e-11,
        1.5e-11, 8.3e-13, 9.2e-14, 1.3e-14, 9.8e-16, 5.9e-16,
    )),
    ("fano", 5): _envelope(-13, (
        0.13, 0.043, 1.6e-4, 2.8e-4, 4.2e-5, 2.7e-6, 4.9e-7, 7.9e-9, 4.3e-9, 4.7e-10, 7.6e-12,
        3.4e-12, 1.8e-13, 2.1e-14, 8.7e-16,
    )),
    ("fano", 6): _envelope(-13, (
        0.33, 0.073, 0.0031, 2.8e-4, 9e-5, 3.1e-6, 3.5e-7, 3e-9, 4.8e-9, 8.7e-11, 6.8e-11,
        1e-11, 1.1e-13, 1.2e-14, 2.7e-15, 1.2e-15,
    )),
    ("fano", 7): _envelope(-12, (
        0.0041, 0.013, 9.8e-4, 3.7e-6, 8.5e-6, 1.1e-7, 6.7e-8, 7.1e-9, 1.4e-9, 8.1e-11, 2.2e-12,
        4.7e-13, 5.1e-14, 1.1e-15, 5.6e-16,
    )),
    ("fano", 8): _envelope(-12, (
        0.012, 0.022, 0.0019, 1.4e-4, 5e-6, 5.1e-7, 2.2e-8, 4.2e-9, 7.2e-10, 2.2e-11, 1.4e-12,
        2.8e-12, 5.8e-14, 3.5e-14, 1.1e-14, 2.6e-15, 7.6e-16,
    )),
    ("aqnm", 1): _envelope(-15, (
        0.24, 0.019, 8.3e-4, 5.1e-5, 7e-6, 1.9e-6, 9.5e-8, 1.7e-8, 1.3e-9, 4.5e-11, 8.3e-12,
        1.2e-12, 4e-14, 1.9e-14, 4.4e-16, 4.7e-16, 4.9e-16, 5.5e-16,
    )),
    ("aqnm", 2): _envelope(-15, (
        0.095, 0.0013, 0.002, 6.9e-5, 5e-6, 1.8e-6, 1.6e-7, 8.3e-9, 1.4e-10, 3.2e-11, 1.1e-11,
        1.4e-12, 2e-14, 2e-15, 4.4e-16, 5.1e-16,
    )),
    ("aqnm", 3): _envelope(-15, (
        0.033, 0.0036, 6.2e-4, 3e-5, 4.8e-7, 4.8e-7, 1.1e-7, 2.8e-9, 4.7e-11, 4.7e-11, 1.1e-11,
        6.8e-13, 6.5e-14, 8.2e-16, 1.5e-15,
    )),
    ("aqnm", 4): _envelope(-15, (
        0.019, 0.019, 0.0019, 1.7e-4, 2.5e-6, 3.7e-7, 8.2e-8, 1.1e-8, 9.6e-10, 1.4e-10, 3.6e-12,
        1.1e-13, 8e-14, 1.2e-14, 5.9e-16, 6e-16,
    )),
    ("aqnm", 5): _envelope(-15, (
        0.033, 0.0047, 0.0019, 1.5e-4, 1.7e-6, 1.7e-6, 5.7e-8, 1.4e-8, 6.3e-11, 7.7e-12, 1.2e-11,
        1.7e-12, 8.3e-14, 1.5e-14, 6.6e-16,
    )),
    ("aqnm", 6): _envelope(-15, (
        0.037, 0.0084, 6.3e-5, 6.3e-5, 6e-6, 3.4e-7, 5.8e-8, 1.3e-8, 8.6e-10, 2.2e-11, 5e-12,
        4.5e-14, 1.4e-13, 1.6e-14, 1.4e-15,
    )),
    ("aqnm", 7): _envelope(-15, (
        0.038, 0.0094, 9e-4, 5.9e-5, 2.5e-6, 3.6e-7, 2.1e-7, 6.2e-9, 1.4e-10, 3.1e-11, 1.7e-11,
        2.7e-13, 8.9e-14, 6e-15, 1.6e-15,
    )),
    ("aqnm", 8): _envelope(-15, (
        0.038, 0.0096, 0.0012, 2.3e-5, 5.3e-6, 3.5e-7, 6.1e-8, 1.8e-8, 1.4e-9, 7.2e-11, 5.1e-12,
        7.4e-13, 1.9e-14, 6.1e-15, 8.5e-16,
    )),
}


def hb(p):
    return -(p * mp.log(p) + (1 - p) * mp.log(1 - p)) / mp.log(2)


def q(x):
    return mp.erfc(x / mp.sqrt(2)) / 2


def onebit_pair(bits: int, rho: float):
    """``ub_onebit_tight`` on G and its 50-digit value (``bits`` is always 1)."""
    with mp.workdps(50):
        gram = mp_matrix(G) * mp_matrix(G).H
        a, d = mp.re(gram[0, 0]), mp.re(gram[1, 1])
        nu1_sq = (a + d) / 2 + mp.sqrt(((a - d) / 2) ** 2 + abs(gram[0, 1]) ** 2)
        exact = 4 * (1 - hb(q(mp.sqrt(mp.mpf(rho) * nu1_sq / 2))))
    return ub_onebit_tight(G, rho, 2).bits_per_channel_use, exact


def fano_pair(bits: int, rho: float):
    """``rate_ci_fano`` with one stream at snr = rho and its 50-digit value."""
    with mp.workdps(50):
        step = mp.sqrt(12 * mp.mpf(rho) / (4**bits - 1))
        pe = 2 * (1 - mp.mpf(2) ** -bits) * q(step / 2)
        exact = 2 * (bits - hb(pe) - pe * mp.log(2**bits - 1) / mp.log(2))
    return rate_ci_fano(bits, rho, 1).bits_per_channel_use, exact


def aqnm_pair(bits: int, rho: float):
    """The AQNM rate on G with the sweep's SVD precoder at the Lloyd-Max eta, and its 50-digit value."""
    eta = lloyd_max(bits)[1].eta
    f_bb = svd_precoder(G, rho, 2).f_bb
    with mp.workdps(50):
        a = mp_matrix(G) * mp_matrix(f_bb)
        scale, e = mp.mpf(rho) / 2, mp.mpf(eta)
        inverse = mp.diag([1 / (1 + e * scale * (abs(a[i, 0]) ** 2 + abs(a[i, 1]) ** 2)) for i in range(2)])
        exact = mp.log(mp.re(mp.det(mp.eye(2) + (1 - e) * scale * (a.H * inverse * a)))) / mp.log(2)
    return rate_aqnm(G, f_bb, rho, eta).bits_per_channel_use, exact


PAIRS = {"onebit": onebit_pair, "fano": fano_pair, "aqnm": aqnm_pair}


@pytest.mark.parametrize("formula, bits", sorted(ENVELOPE), ids=[f"{f}-{b}bit" for f, b in sorted(ENVELOPE)])
def test_closed_form_within_envelope_of_reference(formula, bits):
    over = []
    for decade in DECADES:
        rate, exact = PAIRS[formula](bits, 10.0**decade)
        envelope = ENVELOPE[formula, bits].get(decade, FLOOR)
        if envelope is None:
            if not abs(rate) <= NEAR_ZERO:
                over.append((decade, rate))
        elif not relative_error(rate, exact) <= envelope:
            over.append((decade, relative_error(rate, exact)))
    assert over == []

