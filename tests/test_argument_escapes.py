"""The last escapes from the shared argument rules.

``pam_error_probability`` allows an SNR of 0 and sends any other value
through the positive-real rule, so infinity and an integer beyond the
largest double raise "snr must be finite".  The AQNM distortion factor and
the energy-efficiency rate keep their own messages, now also for an integer
beyond the largest double, which used to escape as ``OverflowError``.
"""

import math
import re

import numpy as np
import pytest

from quantlink import energy_efficiency, pam_error_probability, rate_aqnm

G = np.array([[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, 0.3, 0.0]], dtype=complex)
F_BB = np.eye(4, 2)


@pytest.mark.parametrize("snr", [math.inf, np.float64(np.inf), 10**400], ids=["inf", "numpy_inf", "huge_int"])
def test_pam_error_probability_rejects_an_infinite_snr(snr):
    with pytest.raises(ValueError, match="^snr must be finite$"):
        pam_error_probability(3, snr)


def test_rate_aqnm_rejects_a_distortion_factor_beyond_the_largest_double():
    with pytest.raises(ValueError, match=re.escape("distortion factor must lie in [0, 1), got 1000")):
        rate_aqnm(G, F_BB, 1.0, 10**400)


def test_energy_efficiency_rejects_a_rate_beyond_the_largest_double():
    with pytest.raises(ValueError, match="^rate must be a finite number, got 1000"):
        energy_efficiency(10**400, 1e9, 100.0)


def test_the_largest_double_is_still_a_rate():
    largest = float(np.finfo(float).max)
    assert energy_efficiency(largest, 1.0, 1e3) == largest
