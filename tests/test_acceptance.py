"""Acceptance suite: the package's headline numerical claims, one test per criterion.

Each criterion is asserted at its stated tolerance; the conftest hook prints a
PASS/FAIL line per criterion at the end of the run.  Three sub-checks are
deliberately strict targets that the exact computation is known to miss; their
docstrings carry the measured values:

* criterion 5: the high-resolution distortion approximation is 18.7% off at
  3 bits, outside the 15% window that holds from 4 bits up;
* criterion 7: across seeds, about 71% of alternating-projection runs reach
  1e-5 within 100 iterations, short of the 90% target;
* criterion 9: at +10 dB the energy-efficiency peak lands at 5 bits for this
  channel ensemble, not 4 (it does land at 4 bits at -10 dB).
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from quantlink import (
    adc_power,
    ExperimentConfig,
    PowerModelParams,
    alternating_projection,
    build_transition_matrix,
    discrete_mi,
    emit_csv,
    high_resolution_distortion,
    lloyd_max,
    parse_config,
    rate_aqnm,
    rate_ci_exact,
    rate_ci_fano,
    rate_ci_onebit,
    rate_ci_onebit_lb,
    run_experiment,
    snr_ci,
    svd_precoder,
    total_power,
    ub_onebit_loose,
    ub_onebit_tight,
    uniform_pam_quantizer,
)

from conftest import random_semi_unitary
from test_harness import GOLDEN_CONFIG, GOLDEN_PATH


def test_criterion_01_one_chain_rate_meets_upper_bound(links):
    """With a single receive chain and a single stream, the one-bit
    channel-inversion rate coincides with the one-bit capacity bound."""
    for seed in range(20):
        _, _, g = links.link(seed, n_rf_rx=1)
        for rho in (0.01, 0.1, 1.0, 10.0, 100.0):
            achieved = float(rate_ci_onebit(g, rho, 1))
            bound = float(ub_onebit_tight(g, rho, 1))
            assert abs(achieved - bound) <= 1e-12


def test_criterion_02_saturation_ceilings(links):
    """At rho = 1e6 the exact rate reaches 99.9% of its 2*Ns*b ceiling for
    1..4 bits, and the one-bit bound sits within 1e-6 of 2*N_rf."""
    for seed in range(5):
        _, _, g = links.link(seed, n_rf_rx=4)
        snr_sub = snr_ci(g, 1e6)
        for bits in (1, 2, 3, 4):
            assert float(rate_ci_exact(bits, snr_sub, 4)) >= 0.999 * 2 * 4 * bits
        assert abs(float(ub_onebit_tight(g, 1e6, 4)) - 8.0) <= 1e-6


def test_criterion_03_low_snr_slope(links):
    """At rho = 1e-6 both the one-bit bound and rank-one one-bit Gaussian
    signaling sit within 0.5% of (2/pi) rho nu1^2 / ln 2."""
    for seed in range(5):
        _, _, g = links.link(seed, n_rf_rx=1)
        rho = 1e-6
        reference = (2.0 / math.pi) * rho * g.singular_values[0] ** 2 / math.log(2.0)
        bound = float(ub_onebit_tight(g, rho, 1))
        beamformed = float(rate_aqnm(g, svd_precoder(g, rho, 1), rho, lloyd_max(1)[1]))
        assert abs(bound - reference) <= 5e-3 * reference
        assert abs(beamformed - reference) <= 5e-3 * reference


def test_criterion_04_gaussian_signaling_saturation_constants(links):
    """Rank-one Gaussian signaling saturates at log2(1/eta_b): about 1.46,
    3.09 and 4.86 bps/Hz for 1, 2 and 3 bits."""
    for seed in range(3):
        _, _, g = links.link(seed, n_rf_rx=1)
        f_bb = svd_precoder(g, 1e6, 1)
        for bits in (1, 2, 3):
            eta = lloyd_max(bits)[1]
            rate = float(rate_aqnm(g, f_bb, 1e6, eta))
            assert abs(rate - math.log2(1.0 / eta.eta)) <= 0.02


def test_criterion_05_distortion_factors():
    """eta_1 equals 1 - 2/pi to 1e-12; eta is strictly decreasing; eta_b lies
    within 15% of the high-resolution law for b in 3..8.

    Known red: the converged 3-bit optimum is 0.0345478 against an asymptotic
    value of 0.0425109, an 18.7% gap, so the 15% window fails at b = 3 while
    holding for b in 4..8."""
    etas = {bits: lloyd_max(bits)[1].eta for bits in range(1, 9)}
    assert abs(etas[1] - (1.0 - 2.0 / math.pi)) <= 1e-12
    values = [etas[b] for b in range(1, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    for bits in range(3, 9):
        approx = high_resolution_distortion(bits)
        assert abs(etas[bits] - approx) <= 0.15 * approx, (
            f"b={bits}: eta={etas[bits]:.6g} deviates "
            f"{abs(etas[bits] - approx) / approx:.1%} from {approx:.6g}"
        )


def test_criterion_06_power_gap_identity(links):
    """For two streams, the horizontal dB shift between the one-bit bound and
    the worst-stream rate floor equals 10 log10(nu1^2/nu2^2) within 0.05 dB."""
    for seed in range(10):
        _, _, g = links.link(seed, n_rf_rx=2)
        nu = g.singular_values
        expected_db = 10.0 * math.log10(nu[0] ** 2 / nu[1] ** 2)

        def invert(fn, target=2.0):
            return brentq(
                lambda log_rho: float(fn(g, 10.0**log_rho, 2)) - target, -14.0, 14.0,
                xtol=1e-12,
            )

        measured_db = 10.0 * (invert(rate_ci_onebit_lb) - invert(ub_onebit_tight))
        assert abs(measured_db - expected_db) <= 0.05


def test_criterion_07_alternating_projection_convergence(links):
    """On 50 clustered 64x8 channels (8 transmit chains, 4 receive chains) at
    least 90% of runs reach a normalized distance below 1e-5 within 100
    iterations, and every returned pair is exactly constant modulus with a
    semi-unitarity defect of at most 1e-4.

    Known red: this channel ensemble converges that fast in only about 71% of
    runs (the hardware constraints and Gram defect checks all pass)."""
    converged_fast = 0
    for seed in range(50):
        h, pair, _ = links.link(seed, n_rf_rx=4)
        assert np.max(np.abs(np.abs(pair.f_rf) - 1 / np.sqrt(64))) <= 1e-13
        assert np.max(np.abs(np.abs(pair.w_rf) - 1 / np.sqrt(8))) <= 1e-13
        for mat in (pair.f_rf, pair.w_rf):
            k = mat.shape[1]
            defect = np.linalg.norm(mat.conj().T @ mat - np.eye(k)) / np.sqrt(k)
            assert defect <= 1e-4
        if pair.converged and pair.iterations < 100:
            converged_fast += 1
    fraction = converged_fast / 50.0
    assert fraction >= 0.9, f"only {fraction:.0%} of runs converged within 100 iterations"


def test_criterion_08_power_model_arithmetic():
    """Total receiver power at the reference point is exactly 632 mW and ADC
    power doubles per bit exactly."""
    params = PowerModelParams()
    assert total_power(params, 8, 2, 4) == 632.0
    for bits in range(1, 10):
        assert adc_power(params, bits + 1) == 2.0 * adc_power(params, bits)


@pytest.fixture(scope="module")
def ee_records():
    cfg = ExperimentConfig(
        experiment="ee_vs_bits",
        snr_grid_db=(-10.0, 10.0),
        bits_grid=(1, 2, 3, 4, 5, 6, 7, 8),
        n_rf_rx=(2,),
        n_realizations=100,
        methods=("ci_exact", "aqnm_svd"),
        master_seed=1,
    )
    return run_experiment(cfg, threads=4)


def test_criterion_09_energy_efficiency_optimum(ee_records):
    """With reference defaults (64x8 antennas, 8 transmit and 2 receive
    chains, 1 GHz of bandwidth, 100 realizations), energy efficiency peaks at
    4 bits at both -10 dB and +10 dB; the peak is set by the SVD method at
    -10 dB and by channel inversion at +10 dB.

    Known red: at +10 dB this ensemble peaks at 5 bits (channel inversion),
    with the 4-bit cell about 1.4% behind; all other clauses hold."""
    ee = {}
    for r in ee_records:
        ee[(r.snr_db, r.method, r.bits)] = r.ee_bits_per_joule

    def best_cell(snr_db):
        cells = {(m, b): ee[(snr_db, m, b)] for m in ("ci_exact", "aqnm_svd") for b in range(1, 9)}
        return max(cells, key=cells.get)

    method_low, bits_low = best_cell(-10.0)
    method_high, bits_high = best_cell(10.0)
    assert bits_low == 4, f"-10 dB peak at {bits_low} bits"
    assert method_low == "aqnm_svd"
    assert method_high == "ci_exact"
    assert bits_high == 4, f"+10 dB peak at {bits_high} bits"


def test_criterion_10_property_suites(links, tmp_path):
    """Always-on consistency battery: row-stochastic transition matrices, the
    brute-force mutual-information oracle, the rate bound chain, Monte-Carlo
    transition frequencies, waterfilling KKT conditions, and byte-stable CSV
    output in serial and parallel."""
    rng = np.random.default_rng(99)

    # transition rows sum to one
    for bits in range(1, 9):
        t = build_transition_matrix(bits, float(rng.uniform(0.1, 30.0)))
        assert np.max(np.abs(t.entries.sum(axis=1) - 1.0)) <= 1e-12

    # discrete mutual information against the plain double sum
    for _ in range(20):
        t = rng.dirichlet(np.ones(4), size=4)
        prior = rng.dirichlet(np.ones(4))
        marginal = prior @ t
        brute = sum(
            prior[i] * t[i, j] * math.log2(t[i, j] / marginal[j])
            for i in range(4)
            for j in range(4)
            if t[i, j] > 0
        )
        assert abs(discrete_mi(prior, t) - brute) <= 1e-12

    # bound chain on 200 random instances
    from quantlink import ChannelMatrix

    for _ in range(200):
        n_s = int(rng.integers(1, 5))
        n_rx_dim, n_tx_dim = n_s + 4, n_s + 8
        h = rng.standard_normal((n_rx_dim, n_tx_dim)) + 1j * rng.standard_normal((n_rx_dim, n_tx_dim))
        w = random_semi_unitary(rng, n_rx_dim, n_s)
        f = random_semi_unitary(rng, n_tx_dim, n_s + 2)
        g = ChannelMatrix(w.conj().T @ h @ f)
        h_wrapped = ChannelMatrix(h)
        rho = float(10.0 ** rng.uniform(-2, 2))
        bits = int(rng.integers(1, 5))
        snr_sub = snr_ci(g, rho)
        fano = float(rate_ci_fano(bits, snr_sub, n_s))
        exact = float(rate_ci_exact(bits, snr_sub, n_s))
        assert fano <= exact + 1e-9
        assert exact <= 2 * n_s * bits + 1e-9
        onebit = float(rate_ci_onebit(g, rho, n_s))
        tight = float(ub_onebit_tight(g, rho, n_s))
        loose = float(ub_onebit_loose(h_wrapped, rho, n_s))
        assert onebit <= tight + 1e-9 <= loose + 2e-9

    # Monte-Carlo transition frequencies at 1e6 samples, three sigma
    bits, snr = 2, 3.0
    spec = uniform_pam_quantizer(bits, snr)
    analytic = build_transition_matrix(bits, snr).entries
    draws = 1_000_000 // 4
    for i, level in enumerate(spec.levels):
        regions = np.searchsorted(spec.thresholds, level + rng.standard_normal(draws))
        freq = np.bincount(regions, minlength=4) / draws
        sigma = np.sqrt(analytic[i] * (1.0 - analytic[i]) / draws)
        assert np.all(np.abs(freq - analytic[i]) <= 3.0 * sigma + 1e-12)

    # waterfilling KKT conditions
    from quantlink import waterfill

    for _ in range(50):
        gains = rng.uniform(0.05, 5.0, int(rng.integers(1, 7)))
        total = float(rng.uniform(0.5, 8.0))
        p = waterfill(gains, total)
        assert abs(p.sum() - total) <= 1e-10
        active = p > 0
        mu = np.max(p[active] + 1.0 / gains[active])
        np.testing.assert_allclose(p[active] + 1.0 / gains[active], mu, rtol=1e-12)
        assert np.all(1.0 / gains[~active] >= mu * (1.0 - 1e-12))

    # golden CSV and serial/parallel byte equality
    cfg = parse_config(GOLDEN_CONFIG)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    emit_csv(run_experiment(cfg, threads=1), serial)
    emit_csv(run_experiment(cfg, threads=3), parallel)
    assert serial.read_bytes() == parallel.read_bytes()
    assert serial.read_bytes() == GOLDEN_PATH.read_bytes()
