"""Channel inversion, per-stream SNR, waterfilling, and SVD precoding."""

import numpy as np
import pytest

from quantlink import (
    ChannelMatrix,
    RankDeficientChannelError,
    channel_inversion_precoder,
    snr_ci,
    svd_precoder,
    waterfill,
)


def as_effective(matrix):
    return ChannelMatrix(np.asarray(matrix, dtype=complex))


class TestChannelInversion:
    def test_identity_effective_channel(self):
        p = channel_inversion_precoder(as_effective(np.eye(2)))
        assert p.beta == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(p.f_bb, np.eye(2), atol=1e-12)

    def test_diagonal_example(self):
        g = as_effective(np.diag([np.sqrt(2.0), 1.0]))
        p = channel_inversion_precoder(g)
        assert p.beta == pytest.approx(1.5, abs=1e-12)
        assert snr_ci(g, 3.0) == pytest.approx(2.0, abs=1e-12)

    def test_power_constraint_met_with_equality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = as_effective(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
            p = channel_inversion_precoder(g)
            assert np.linalg.norm(p.f_bb) ** 2 == pytest.approx(3.0, abs=1e-9)

    def test_interference_free(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = as_effective(rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
            p = channel_inversion_precoder(g)
            product = g.entries @ p.f_bb
            gain = np.sqrt(4.0 / p.beta)
            off_diag = product - gain * np.eye(4)
            assert np.max(np.abs(off_diag)) <= 1e-9 * g.singular_values[0]

    def test_wide_matrix_rejected(self):
        with pytest.raises(RankDeficientChannelError, match="fewer"):
            channel_inversion_precoder(as_effective(np.ones((3, 2))))

    def test_ill_conditioned_rejected(self):
        g = as_effective(np.diag([1.0, 1e-9]))
        with pytest.raises(RankDeficientChannelError):
            channel_inversion_precoder(g)


class TestSnrCi:
    def test_equal_singular_values(self):
        assert snr_ci(as_effective(np.eye(2)), 4.0) == pytest.approx(2.0, abs=1e-12)

    def test_harmonic_mean_arithmetic(self):
        g = as_effective(np.diag([np.sqrt(2.0), 1.0]))
        assert snr_ci(g, 3.0) == pytest.approx(2.0, abs=1e-12)

    def test_matches_singular_value_expression(self):
        """Trace of the inverse Gram versus the sum of inverse squared
        singular values: two routes to the same normalizer."""
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = as_effective(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
            via_trace = snr_ci(g, 1.0)
            via_spectrum = 1.0 / np.sum(g.singular_values**-2.0)
            np.testing.assert_allclose(via_trace, via_spectrum, rtol=1e-12)

    def test_worst_stream_lower_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            g = as_effective(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
            rho = 2.5
            floor = rho * g.singular_values[-1] ** 2 / 3.0
            assert snr_ci(g, rho) >= floor * (1.0 - 1e-12)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            snr_ci(as_effective(np.eye(2)), 0.0)


class TestWaterfill:
    def test_single_stream_takes_everything(self):
        np.testing.assert_allclose(waterfill(np.array([0.7]), 5.0), [5.0])

    def test_symmetric_split(self):
        np.testing.assert_allclose(waterfill(np.array([1.0, 1.0]), 2.0), [1.0, 1.0])

    def test_closed_form_example(self):
        p = waterfill(np.array([2.0, 1.0]), 1.0)
        np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-12)
        sum_rate = np.sum(np.log2(1.0 + p * np.array([2.0, 1.0])))
        assert sum_rate == pytest.approx(1.6438561897747247, abs=1e-12)

    def test_weak_stream_shut_off(self):
        p = waterfill(np.array([10.0, 0.01]), 0.5)
        assert p[1] == 0.0
        assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gains = rng.uniform(0.05, 5.0, rng.integers(1, 7))
            total = rng.uniform(0.1, 10.0)
            p = waterfill(gains, total)
            assert np.all(p >= 0)
            assert abs(p.sum() - total) <= 1e-10
            active = p > 0
            mu = np.max(p[active] + 1.0 / gains[active])
            np.testing.assert_allclose(p[active] + 1.0 / gains[active], mu, rtol=1e-12)
            assert np.all(1.0 / gains[~active] >= mu - 1e-12 * mu)

    def test_validation(self):
        with pytest.raises(ValueError):
            waterfill(np.array([]), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0]), 0.0)


class TestSvdPrecoder:
    def test_diagonal_channel_gives_diagonal_precoder(self):
        g = as_effective(np.diag([3.0, 2.0]))
        p = svd_precoder(g, rho=4.0, n_streams=2)
        np.testing.assert_allclose(np.abs(p.f_bb), np.diag(np.sqrt(p.power_alloc)), atol=1e-12)
        assert p.power_alloc.sum() == pytest.approx(2.0, abs=1e-10)

    def test_low_snr_concentrates_on_dominant_mode(self):
        g = as_effective(np.diag([10.0, 1.0]))
        p = svd_precoder(g, rho=1e-3, n_streams=2)
        np.testing.assert_allclose(p.power_alloc, [2.0, 0.0], atol=1e-12)
        assert np.max(np.abs(p.f_bb[:, 1])) == 0.0

    def test_power_budget(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = as_effective(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
            p = svd_precoder(g, rho=2.0, n_streams=3)
            assert np.linalg.norm(p.f_bb) ** 2 <= 3.0 + 1e-9
            assert p.power_alloc.sum() == pytest.approx(3.0, abs=1e-10)

    def test_stream_count_validation(self):
        g = as_effective(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            svd_precoder(g, 1.0, 3)
        rank1 = as_effective(np.outer([1.0, 1.0], [1.0, 0.5]))
        with pytest.raises(RankDeficientChannelError):
            svd_precoder(rank1, 1.0, 2)
