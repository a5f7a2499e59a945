"""Rate expressions and capacity bounds: closed forms, oracles, orderings."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from quantlink import (
    ChannelMatrix,
    RateQuery,
    binary_entropy,
    build_transition_matrix,
    discrete_mi,
    evaluate,
    lloyd_max,
    qfunc,
    rate_aqnm,
    rate_ci_exact,
    rate_ci_fano,
    rate_ci_onebit,
    rate_ci_onebit_lb,
    snr_ci,
    svd_precoder,
    ub_infinite,
    ub_onebit_loose,
    ub_onebit_tight,
)

from conftest import random_semi_unitary


def as_effective(matrix):
    return ChannelMatrix(np.asarray(matrix, dtype=complex))


def random_effective(rng, rows, cols):
    return as_effective(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_known_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-13)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.37):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestDiscreteMi:
    def test_identity_channel_gives_alphabet_entropy(self):
        for bits in (1, 2, 3):
            m = 2**bits
            mi = discrete_mi(np.full(m, 1.0 / m), np.eye(m))
            assert mi == pytest.approx(bits, abs=1e-12)

    def test_binary_symmetric_channel(self):
        t = np.array([[0.89, 0.11], [0.11, 0.89]])
        mi = discrete_mi(np.array([0.5, 0.5]), t)
        assert mi == pytest.approx(0.500084041835472, abs=1e-13)

    def test_constant_rows_independent(self):
        t = np.tile([0.2, 0.3, 0.1, 0.4], (4, 1))
        assert discrete_mi(np.full(4, 0.25), t) == 0.0

    def test_brute_force_oracle(self):
        """Plain double loop with math.log against the vectorized sum."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            t = rng.dirichlet(np.ones(4), size=4)
            prior = rng.dirichlet(np.ones(4))
            marginal = prior @ t
            expected = 0.0
            for i in range(4):
                for j in range(4):
                    if prior[i] > 0 and t[i, j] > 0:
                        expected += prior[i] * t[i, j] * math.log2(t[i, j] / marginal[j])
            assert discrete_mi(prior, t) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            discrete_mi(np.array([0.5, 0.5]), np.eye(3))

    def test_invalid_prior_rejected(self):
        with pytest.raises(ValueError):
            discrete_mi(np.array([0.7, 0.7]), np.eye(2))


class TestOneBitChannelInversionRate:
    def test_known_value_unit_everything(self):
        g = as_effective([[1.0]])
        assert float(rate_ci_onebit(g, 1.0, 1)) == pytest.approx(
            0.73783446518891623, abs=1e-12
        )

    def test_error_free_limit(self):
        g = as_effective([[1.0]])
        assert float(rate_ci_onebit(g, 1e9, 1)) == pytest.approx(2.0, abs=1e-9)

    def test_vanishing_snr_limit(self):
        g = as_effective([[1.0]])
        assert float(rate_ci_onebit(g, 1e-12, 1)) == pytest.approx(0.0, abs=1e-9)

    def test_single_chain_meets_upper_bound(self):
        rng = np.random.default_rng(12)
        g = random_effective(rng, 1, 6)
        for rho in (0.01, 1.0, 100.0):
            assert float(rate_ci_onebit(g, rho, 1)) == pytest.approx(
                float(ub_onebit_tight(g, rho, 1)), abs=1e-12
            )


class TestExactChannelInversionRate:
    def test_one_bit_specialization_matches_matrix_route(self):
        """The antipodal closed form and the transition-matrix mutual
        information are two routes to the same one-bit rate."""
        for snr in (0.2, 1.0, 5.0):
            closed = float(rate_ci_exact(1, snr, 2))
            t = build_transition_matrix(1, snr)
            via_matrix = 2 * 2 * discrete_mi(np.array([0.5, 0.5]), t)
            assert closed == pytest.approx(via_matrix, abs=1e-12)

    def test_two_bit_value_from_high_precision_oracle(self):
        """Frozen from a 50-digit evaluation of the double sum."""
        assert float(rate_ci_exact(2, 3.0, 1)) == pytest.approx(
            1.6949567179163124, abs=2e-12
        )

    def test_saturation_at_high_snr(self):
        for bits in (1, 2, 3, 4):
            rate = float(rate_ci_exact(bits, 1e8, 3))
            assert rate == pytest.approx(2 * 3 * bits, abs=1e-6)

    def test_nondecreasing_in_resolution(self):
        for snr in (0.1, 1.0, 10.0, 300.0):
            rates = [float(rate_ci_exact(b, snr, 1)) for b in range(1, 9)]
            assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(rates, rates[1:]))

    def test_entropy_cap(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            bits = int(rng.integers(1, 9))
            snr = float(rng.uniform(0.01, 1e4))
            assert float(rate_ci_exact(bits, snr, 2)) <= 2 * 2 * bits + 1e-9


class TestFanoBound:
    def test_one_bit_degenerates_to_exact(self):
        for snr in (0.2, 1.0, 7.0):
            assert float(rate_ci_fano(1, snr, 2)) == pytest.approx(
                float(rate_ci_exact(1, snr, 2)), abs=1e-12
            )

    def test_two_bit_frozen_value(self):
        assert float(rate_ci_fano(2, 3.0, 1)) == pytest.approx(1.1296393281538796, abs=1e-12)

    def test_error_free_limit(self):
        assert float(rate_ci_fano(3, 1e9, 2)) == pytest.approx(2 * 2 * 3, abs=1e-9)

    def test_never_exceeds_exact_rate(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            bits = int(rng.integers(1, 9))
            snr = float(rng.uniform(0.01, 1e4))
            assert float(rate_ci_fano(bits, snr, 2)) <= float(rate_ci_exact(bits, snr, 2)) + 1e-9


class TestAqnmRate:
    def test_unquantized_identity_channel(self):
        g = as_effective(np.eye(2))
        rate = rate_aqnm(g, np.eye(2), rho=2.0, eta=0.0)
        assert float(rate) == pytest.approx(2.0, abs=1e-12)

    def test_high_snr_saturation_single_chain(self):
        """With one receive chain the rate saturates at log2(1/eta)."""
        rng = np.random.default_rng(15)
        g = random_effective(rng, 1, 6)
        f = svd_precoder(g, 1e6, 1)
        for bits in (1, 2, 3):
            eta = lloyd_max(bits)[1]
            assert float(rate_aqnm(g, f, 1e6, eta)) == pytest.approx(
                math.log2(1.0 / eta.eta), abs=1e-3
            )

    def test_low_snr_slope(self):
        """Rank-one beamforming at vanishing SNR: (1-eta) rho nu1^2 / ln 2."""
        rng = np.random.default_rng(16)
        g = random_effective(rng, 3, 5)
        rho = 1e-7
        f = svd_precoder(g, rho, 1)
        nu1 = g.singular_values[0]
        for bits in (1, 3):
            eta = lloyd_max(bits)[1].eta
            expected = (1.0 - eta) * rho * nu1**2 / math.log(2.0)
            assert float(rate_aqnm(g, f, rho, lloyd_max(bits)[1])) == pytest.approx(
                expected, rel=1e-3
            )

    def test_one_bit_low_snr_matches_two_over_pi(self):
        rng = np.random.default_rng(17)
        g = random_effective(rng, 2, 4)
        rho = 1e-7
        f = svd_precoder(g, rho, 1)
        expected = (2.0 / math.pi) * rho * g.singular_values[0] ** 2 / math.log(2.0)
        assert float(rate_aqnm(g, f, rho, 1.0 - 2.0 / math.pi)) == pytest.approx(expected, rel=1e-3)

    def test_saturation_cap_over_wide_snr_range(self):
        """Full-stream operation never exceeds Ns log2(1/eta) + 1e-6."""
        rng = np.random.default_rng(18)
        for _ in range(10):
            g = random_effective(rng, 3, 3)
            for bits in (1, 2, 3):
                eta = lloyd_max(bits)[1]
                cap = 3 * math.log2(1.0 / eta.eta) + 1e-6
                for rho in (1.0, 1e2, 1e4, 1e6):
                    f = svd_precoder(g, rho, 3)
                    assert float(rate_aqnm(g, f, rho, eta)) <= cap

    def test_eta_validation(self):
        g = as_effective(np.eye(2))
        with pytest.raises(ValueError):
            rate_aqnm(g, np.eye(2), 1.0, 1.0)
        with pytest.raises(ValueError):
            rate_aqnm(g, np.eye(2), 1.0, -0.1)


class TestOneBitUpperBounds:
    def test_tight_bound_saturates(self):
        g = as_effective(np.diag([2.0, 1.0]))
        assert float(ub_onebit_tight(g, 1e9, 2)) == pytest.approx(4.0, abs=1e-9)

    def test_loose_bound_direct_evaluation(self):
        h = as_effective(np.diag([2.0, 1.0]))
        expected = 4.0 * (1.0 - binary_entropy(float(qfunc(math.sqrt(2.0)))))
        assert float(ub_onebit_loose(h, 1.0, 2)) == pytest.approx(expected, abs=1e-12)

    def test_low_snr_linear_expansion(self):
        g = as_effective(np.diag([3.0, 1.0]))
        rho = 1e-6
        expected = (2.0 / math.pi) * rho * 9.0 / math.log(2.0)
        assert float(ub_onebit_tight(g, rho, 2)) == pytest.approx(expected, rel=1e-3)

    def test_bound_ordering_with_exact_semi_unitary_reduction(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            h = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
            w = random_semi_unitary(rng, 8, 3)
            f = random_semi_unitary(rng, 16, 5)
            g = as_effective(w.conj().T @ h @ f)
            h_eff = as_effective(h)
            for rho in (0.1, 1.0, 10.0):
                tight = float(ub_onebit_tight(g, rho, 3))
                loose = float(ub_onebit_loose(h_eff, rho, 3))
                rate = float(rate_ci_onebit(g, rho, 3))
                assert rate <= tight + 1e-9
                assert tight <= loose + 1e-9

    def test_equality_when_gram_is_scaled_identity(self):
        rng = np.random.default_rng(20)
        rows = random_semi_unitary(rng, 4, 2).conj().T  # 2 x 4 with orthonormal rows
        g = as_effective(1.7 * rows)
        for rho in (0.05, 1.0, 20.0):
            assert float(rate_ci_onebit(g, rho, 2)) == pytest.approx(
                float(ub_onebit_tight(g, rho, 2)), abs=1e-12
            )

    def test_infinite_resolution_bound(self):
        g = as_effective(np.eye(3))
        assert float(ub_infinite(g, 3.0, 3)) == pytest.approx(3.0, abs=1e-12)
        assert float(ub_infinite(g, 1e-12, 3)) == pytest.approx(0.0, abs=1e-9)

    def test_infinite_dominates_one_bit_bound(self):
        rng = np.random.default_rng(21)
        g = random_effective(rng, 3, 5)
        for rho_db in range(-20, 41, 2):
            rho = 10.0 ** (rho_db / 10.0)
            assert float(ub_infinite(g, rho, 3)) >= float(ub_onebit_tight(g, rho, 3)) - 1e-9


class TestMonotonicity:
    def test_rates_nondecreasing_in_snr(self):
        rng = np.random.default_rng(22)
        g = random_effective(rng, 2, 4)
        rhos = np.logspace(-3, 4, 30)
        curves = {
            "ci_onebit": [float(rate_ci_onebit(g, r, 2)) for r in rhos],
            "ci_exact3": [float(rate_ci_exact(3, snr_ci(g, r), 2)) for r in rhos],
            "fano3": [float(rate_ci_fano(3, snr_ci(g, r), 2)) for r in rhos],
            "aqnm2": [float(rate_aqnm(g, svd_precoder(g, r, 2), r, lloyd_max(2)[1])) for r in rhos],
            "ub_tight": [float(ub_onebit_tight(g, r, 2)) for r in rhos],
            "ub_inf": [float(ub_infinite(g, r, 2)) for r in rhos],
        }
        for name, values in curves.items():
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-10), name


class TestPowerGapIdentity:
    def test_shift_between_bound_and_worst_stream_curve(self):
        """The tight one-bit bound and the worst-stream rate floor are the
        same curve shifted by 10 log10(nu1^2/nu2^2) dB; measured by inverting
        both at a mid-range target rate."""
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = random_effective(rng, 2, 5)
            nu = g.singular_values
            expected_db = 10.0 * math.log10(nu[0] ** 2 / nu[1] ** 2)

            def rho_hitting(fn, target):
                return brentq(
                    lambda log_rho: float(fn(g, 10.0**log_rho, 2)) - target, -12.0, 12.0,
                    xtol=1e-12,
                )

            target = 2.0  # halfway to the 4 bps/Hz ceiling
            log_rho_ub = rho_hitting(ub_onebit_tight, target)
            log_rho_lb = rho_hitting(rate_ci_onebit_lb, target)
            measured_db = 10.0 * (log_rho_lb - log_rho_ub)
            assert measured_db == pytest.approx(expected_db, abs=0.01)


class TestEvaluateDispatcher:
    def test_all_methods_dispatch(self):
        rng = np.random.default_rng(24)
        h = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        w = random_semi_unitary(rng, 6, 2)
        f = random_semi_unitary(rng, 10, 4)
        g = as_effective(w.conj().T @ h @ f)
        h_eff = as_effective(h)
        for method in ("ci_exact", "ci_fano", "ci_onebit", "aqnm_svd",
                       "ub_onebit_tight", "ub_onebit_loose", "ub_infinite"):
            query = RateQuery(rho=2.0, n_streams=2, bits=2, method=method)
            result = evaluate(query, g, h=h_eff)
            assert result.method == method
            assert float(result) >= 0.0

    def test_loose_bound_requires_full_channel(self):
        g = as_effective(np.eye(2))
        with pytest.raises(ValueError):
            evaluate(RateQuery(1.0, 2, 1, "ub_onebit_loose"), g)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            RateQuery(rho=0.0, n_streams=1, bits=1, method="ci_exact")
        with pytest.raises(ValueError):
            RateQuery(rho=1.0, n_streams=0, bits=1, method="ci_exact")
        with pytest.raises(ValueError):
            RateQuery(rho=1.0, n_streams=1, bits=1, method="nonsense")
