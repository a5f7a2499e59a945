"""Quantizer models: transition matrices, Lloyd-Max fixed points, distortion factors."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import quantlink.quantizers as quantizers
from quantlink import (
    DistortionFactor,
    TransitionMatrix,
    build_transition_matrix,
    build_transition_matrices,
    gauss_cdf,
    high_resolution_distortion,
    lloyd_max,
    matched_stepsize,
    pam_error_probability,
    qfunc,
    uniform_pam_quantizer,
)

# Converged Lloyd-Max distortion factors for a unit Gaussian, pinned as
# regression constants (they match the classical published tables).
ETA_GOLDEN = {
    1: 0.3633802276324186,
    2: 0.11748184782866412,
    3: 0.034547760788504425,
    4: 0.009501008008185,
    5: 0.0025046683556778613,
    6: 0.0006442396653177,
    7: 0.0001634782299806,
    8: 4.118508286721e-05,
}


class TestMatchedStepsize:
    def test_power_identity(self):
        """The equispaced grid at the matched step reproduces the target SNR:
        mean symbol power over the 2^b PAM points equals snr (noise std 1)."""
        for bits in range(1, 9):
            for snr in (0.3, 3.0, 30.0):
                spec = uniform_pam_quantizer(bits, snr)
                assert np.mean(spec.levels**2) == pytest.approx(snr, rel=1e-12)

    def test_one_bit_reduces_to_two_sqrt_snr(self):
        assert matched_stepsize(1, 4.0) == pytest.approx(4.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            matched_stepsize(0, 1.0)
        with pytest.raises(ValueError):
            matched_stepsize(9, 1.0)
        with pytest.raises(ValueError):
            matched_stepsize(2, 0.0)


class TestTransitionMatrix:
    def test_one_bit_diagonal_is_correct_decision_probability(self):
        for snr in (0.1, 1.0, 9.0):
            t = build_transition_matrix(1, snr)
            expected = 1.0 - qfunc(np.sqrt(snr))
            np.testing.assert_allclose(np.diag(t.entries), expected, rtol=1e-13)

    def test_two_bit_row_against_direct_cdf_evaluation(self):
        """Lowest-symbol row spelled out with the normal CDF at half-step
        offsets, step matched to snr=3."""
        t = build_transition_matrix(2, 3.0)
        d = math.sqrt(12.0 * 3.0 / 15.0)
        expected = [
            gauss_cdf(d / 2),
            gauss_cdf(3 * d / 2) - gauss_cdf(d / 2),
            gauss_cdf(5 * d / 2) - gauss_cdf(3 * d / 2),
            1.0 - gauss_cdf(5 * d / 2),
        ]
        np.testing.assert_allclose(t.entries[0], expected, rtol=1e-13)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for bits in range(1, 9):
            snr = float(rng.uniform(0.05, 50.0))
            t = build_transition_matrix(bits, snr)
            np.testing.assert_allclose(t.entries.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_sign_symmetry_exact(self):
        for bits in (1, 2, 3, 5):
            t = build_transition_matrix(bits, 2.7).entries
            assert np.array_equal(t, t[::-1, ::-1])

    def test_low_snr_rows_approach_marginal(self):
        t = build_transition_matrix(2, 1e-9).entries
        spread = t.max(axis=0) - t.min(axis=0)
        assert np.max(spread) < 1e-4

    def test_monte_carlo_consistency(self):
        """Simulated quantized-AWGN transition frequencies agree with the
        analytic matrix within three binomial standard errors (1e7 draws)."""
        bits, snr = 2, 3.0
        spec = uniform_pam_quantizer(bits, snr)
        t = build_transition_matrix(bits, snr).entries
        rng = np.random.default_rng(2024)
        n = 10_000_000 // 4
        for i, level in enumerate(spec.levels):
            noisy = level + rng.standard_normal(n)
            regions = np.searchsorted(spec.thresholds, noisy)
            freq = np.bincount(regions, minlength=4) / n
            sigma = np.sqrt(t[i] * (1 - t[i]) / n)
            assert np.all(np.abs(freq - t[i]) <= 3.0 * sigma + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_transition_matrix(9, 1.0)
        with pytest.raises(ValueError):
            build_transition_matrix(2, 0.0)
        with pytest.raises(ValueError, match="row"):
            TransitionMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))


def _negative_entry(row):
    row[1] += row[0] + 1e-3
    row[0] = -1e-3


def _long_row(row):
    row[1] += 1e-11


class TestOneRowStochasticCheck:
    """TransitionMatrix and build_transition_matrices run one check, so the same
    bad matrix gets the same message from both."""

    @pytest.mark.parametrize(
        "tamper, message", [(_negative_entry, r"lie in \[0, 1\]"), (_long_row, "row")]
    )
    def test_same_bad_matrix_same_message(self, monkeypatch, tamper, message):
        entries = build_transition_matrix(1, 1.0).entries
        tamper(entries[0])
        entries[1] = entries[0][::-1]
        with pytest.raises(ValueError, match=message) as direct:
            TransitionMatrix(entries)

        # build_transition_matrices checks the same matrix, tampered after the fill
        check = quantizers._check_row_stochastic

        def tamper_then_check(stack):
            tamper(stack[0, 0])
            stack[0, 1] = stack[0, 0][::-1]
            check(stack)

        monkeypatch.setattr(quantizers, "_check_row_stochastic", tamper_then_check)
        with pytest.raises(ValueError) as batched:
            build_transition_matrices(1, np.array([1.0]))
        assert str(batched.value) == str(direct.value)


class TestLloydMax:
    def test_one_bit_closed_form(self):
        spec, dist = lloyd_max(1)
        root = math.sqrt(2.0 / math.pi)
        np.testing.assert_allclose(spec.levels, [-root, root], rtol=0, atol=1e-15)
        assert abs(dist.eta - (1.0 - 2.0 / math.pi)) <= 1e-12

    def test_two_bit_distortion_against_numerical_integration(self):
        """Independent check: integrate the quantizer MSE cell by cell."""
        spec, dist = lloyd_max(2)
        edges = np.concatenate(([-np.inf], spec.thresholds, [np.inf]))
        mse = 0.0
        for lo, hi, level in zip(edges[:-1], edges[1:], spec.levels):
            val, _ = quad(lambda y, c=level: (y - c) ** 2 * norm.pdf(y), lo, hi)
            mse += val
        assert dist.eta == pytest.approx(mse, abs=1e-10)
        assert dist.eta == pytest.approx(0.117481847829, abs=1e-9)

    def test_golden_distortion_table(self):
        for bits, eta in ETA_GOLDEN.items():
            assert lloyd_max(bits)[1].eta == pytest.approx(eta, rel=1e-9)

    def test_fixed_point_optimality_conditions(self):
        """Thresholds are midpoints by construction; each level equals the
        conditional mean of its cell, verified by quadrature."""
        for bits in (1, 2, 3, 4):
            spec, _ = lloyd_max(bits)
            mid = 0.5 * (spec.levels[1:] + spec.levels[:-1])
            np.testing.assert_allclose(spec.thresholds, mid, rtol=0, atol=1e-14)
            edges = np.concatenate(([-np.inf], spec.thresholds, [np.inf]))
            for lo, hi, level in zip(edges[:-1], edges[1:], spec.levels):
                mass, _ = quad(norm.pdf, lo, hi)
                mean, _ = quad(lambda y: y * norm.pdf(y), lo, hi)
                assert level == pytest.approx(mean / mass, abs=1e-8)

    def test_distortion_strictly_decreasing(self):
        etas = [lloyd_max(b)[1].eta for b in range(1, 9)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_levels_odd_symmetric(self):
        for bits in (2, 4, 6, 8):
            levels = lloyd_max(bits)[0].levels
            assert np.array_equal(levels, -levels[::-1])

    def test_high_resolution_approximation_quality(self):
        """The asymptotic 2^(-2b) law is within 15% of the converged value
        from 4 bits up; at 3 bits the exact optimum still undershoots it by
        about 18.7%, so the asymptotic regime is not yet reached there."""
        for bits in range(4, 9):
            approx = high_resolution_distortion(bits)
            assert abs(lloyd_max(bits)[1].eta - approx) <= 0.15 * approx
        eta3 = lloyd_max(3)[1].eta
        assert abs(eta3 - high_resolution_distortion(3)) / high_resolution_distortion(3) == (
            pytest.approx(0.187, abs=0.01)
        )


class TestDistortionFactorType:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            DistortionFactor(2, 0.0)
        with pytest.raises(ValueError):
            DistortionFactor(2, 1.0)


class TestPamErrorProbability:
    def test_pure_noise_one_bit(self):
        assert pam_error_probability(1, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_one_bit_unit_snr(self):
        assert pam_error_probability(1, 1.0) == pytest.approx(0.15865525393145705, abs=1e-14)

    def test_high_snr_limit(self):
        assert pam_error_probability(2, 1e9) < 1e-12

    def test_matches_neighbor_decision_error(self):
        """Monte-Carlo cross-check of the closed form at 2 bits."""
        bits, snr = 2, 4.0
        spec = uniform_pam_quantizer(bits, snr)
        rng = np.random.default_rng(7)
        n = 2_000_000
        errors = 0
        for i, level in enumerate(spec.levels):
            regions = np.searchsorted(spec.thresholds, level + rng.standard_normal(n // 4))
            errors += np.sum(regions != i)
        observed = errors / n
        expected = pam_error_probability(bits, snr)
        assert observed == pytest.approx(expected, abs=4 * np.sqrt(expected / n))
