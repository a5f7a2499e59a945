"""Three link quantities against a 50-digit mpmath evaluation of the same formula.

``ub_infinite`` and the AQNM rate at eta = 0 take log2 of 1 + x, so they keep
about 16 - log10(1/x) digits and read exactly 0 once x falls below half an
ulp of 1 (here from rho = 1e-16 down).  ``digital.snr_ci`` inverts the Gram
matrix, so it loses about log10 of the Gram condition number.  The reference
takes the same float G, precoder and rho, so only the formula's own rounding
shows.  Each envelope is about twice the relative error measured with numpy's
bundled OpenBLAS (``SkylakeX`` kernel), capped at 1: a change that loses
digits fails, and one that gains them may tighten the envelope.
"""

import math

import numpy as np
import pytest

from quantlink.digital import snr_ci, svd_precoder
from quantlink.rates import rate_aqnm, ub_infinite

mp = pytest.importorskip("mpmath")

RNG = np.random.default_rng(2016)
G = (RNG.standard_normal((2, 4)) + 1j * RNG.standard_normal((2, 4))) / math.sqrt(2)  # nu_1^2 = 3.17
U = np.linalg.qr(RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))[0]
V = np.linalg.qr(RNG.standard_normal((8, 4)) + 1j * RNG.standard_normal((8, 4)))[0]

DECADES = range(-30, 31)
# Largest relative error allowed at rho = 10^decade, for decade < 0; from rho = 1 up
# every error measured was at most 1.6e-16.  1.0 marks a rate that reads 0.
ENVELOPE = {
    "ub_infinite": {
        **dict.fromkeys(range(-30, -16), 1.0),
        -16: 0.81, -15: 0.038, -14: 0.0097, -13: 0.0013, -12: 1.1e-4, -11: 7e-6, -10: 1.4e-6,
        -9: 1.4e-8, -8: 1.4e-8, -7: 9.1e-11, -6: 9.1e-11, -5: 6.4e-12, -4: 7.8e-13,
        -3: 6.7e-14, -2: 1.1e-14, -1: 5.4e-16,
    },
    "aqnm_eta0": {
        **dict.fromkeys(range(-30, -15), 1.0),
        -15: 0.038, -14: 0.0097, -13: 0.0013, -12: 1.1e-4, -11: 7e-6, -10: 1.5e-6,
        -9: 1.3e-8, -8: 2e-9, -7: 1.3e-9, -6: 7.7e-11, -5: 3e-12, -4: 1.2e-13,
        -3: 2.4e-14, -2: 1e-14, -1: 9.2e-16,
    },
}
HIGH_RHO_ENVELOPE = 4e-16

# Gram condition number of G = U diag(s) V^* (s geometric over 4 rows) -> largest
# relative error allowed for snr_ci.
SNR_CI_ENVELOPE = {
    1e0: 1.6e-16, 1e1: 6.2e-16, 1e2: 4.6e-15, 1e3: 9.3e-14, 1e4: 1.4e-13, 1e5: 4e-13,
    1e6: 7.1e-11, 1e7: 5e-10, 1e8: 8.6e-9, 1e9: 1.5e-9, 1e10: 4.9e-7, 1e11: 1.8e-5, 8e11: 8.1e-6,
}


def mp_matrix(a):
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in np.atleast_2d(a)])


def relative_error(value: float, reference) -> float:
    return float(abs(mp.mpf(value) - reference) / abs(reference))


def ub_infinite_pair(rho: float):
    """``ub_infinite`` on G and its 50-digit value."""
    with mp.workdps(50):
        # nu_1^2 is the larger eigenvalue of the 2x2 Gram matrix G G^*
        gram = mp_matrix(G) * mp_matrix(G).H
        a, d = mp.re(gram[0, 0]), mp.re(gram[1, 1])
        nu1_sq = (a + d) / 2 + mp.sqrt(((a - d) / 2) ** 2 + abs(gram[0, 1]) ** 2)
        exact = 2 * mp.log(1 + mp.mpf(rho) * nu1_sq / 2) / mp.log(2)
    return ub_infinite(G, rho, 2).bits_per_channel_use, exact


def aqnm_eta0_pair(rho: float):
    """The AQNM rate at eta = 0 on G with the sweep's SVD precoder, and its 50-digit value."""
    f_bb = svd_precoder(G, rho, 2).f_bb
    with mp.workdps(50):
        a = mp_matrix(G) * mp_matrix(f_bb)
        exact = mp.log(mp.re(mp.det(mp.eye(2) + (mp.mpf(rho) / 2) * (a.H * a)))) / mp.log(2)
    return rate_aqnm(G, f_bb, rho, 0.0).bits_per_channel_use, exact


PAIRS = {"ub_infinite": ub_infinite_pair, "aqnm_eta0": aqnm_eta0_pair}


@pytest.mark.parametrize("method", sorted(ENVELOPE))
def test_rate_within_envelope_of_reference(method):
    over = []
    for decade in DECADES:
        error = relative_error(*PAIRS[method](10.0**decade))
        if error > ENVELOPE[method].get(decade, HIGH_RHO_ENVELOPE):
            over.append((decade, error))
    assert over == []


def test_snr_ci_within_envelope_of_reference():
    over = []
    for cond, envelope in SNR_CI_ENVELOPE.items():
        g = (U * math.sqrt(cond) ** (-np.arange(4) / 3)) @ V.conj().T
        with mp.workdps(50):
            gram_inverse = mp.inverse(mp_matrix(g) * mp_matrix(g).H)
            exact = 1 / mp.re(sum(gram_inverse[i, i] for i in range(4)))
        error = relative_error(snr_ci(g, 1.0), exact)
        if error > envelope:
            over.append((cond, error))
    assert over == []
