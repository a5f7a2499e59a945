"""Clustered channel generation: determinism, normalization, SVD contract."""

import numpy as np
import pytest

from quantlink import (
    ChannelMatrix,
    ClusteredChannelConfig,
    generate_channel,
    svd_of,
)
from quantlink.analog import alternating_projection, effective_channel

# Monte-Carlo estimate of E[||H||_F^2]/(n_tx n_rx) over seeds 0..999 with the
# reference geometry, pinned once as a regression constant.
NORMALIZATION_GOLDEN = 1.004814931645099


class TestConfigValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            ClusteredChannelConfig(0, 8)
        with pytest.raises(ValueError):
            ClusteredChannelConfig(64, 8, n_clusters=0)
        with pytest.raises(ValueError):
            ClusteredChannelConfig(64, 8, angle_spread_deg=0.0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            ClusteredChannelConfig(4, 4, seed=-1)
        with pytest.raises(ValueError):
            ClusteredChannelConfig(4, 4, seed=2**64)

    def test_angle_spread_must_be_finite(self):
        with pytest.raises(ValueError, match="angle_spread_deg must be finite"):
            ClusteredChannelConfig(8, 4, angle_spread_deg=float("inf"))


class TestConfigIntegerTypes:
    @pytest.mark.parametrize("seed", [1.5, 3.0, "3", True, False, np.bool_(True), None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ClusteredChannelConfig(4, 4, seed=seed)

    @pytest.mark.parametrize(
        "name", ["n_tx_antennas", "n_rx_antennas", "n_clusters", "n_rays_per_cluster"]
    )
    def test_counts_reject_bools(self, name):
        kwargs = dict(n_tx_antennas=4, n_rx_antennas=4, n_clusters=2, n_rays_per_cluster=2)
        kwargs[name] = True
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            ClusteredChannelConfig(**kwargs)

    def test_numpy_integer_seed_gives_the_same_channel(self):
        h = generate_channel(ClusteredChannelConfig(8, 4, seed=7)).entries
        for seed in (np.int64(7), np.uint64(7)):
            g = generate_channel(ClusteredChannelConfig(8, 4, seed=seed)).entries
            assert np.array_equal(g, h)

    def test_largest_seed_is_accepted(self):
        generate_channel(ClusteredChannelConfig(4, 4, seed=2**64 - 1))


class TestGenerateChannel:
    def test_deterministic_given_seed(self):
        cfg = ClusteredChannelConfig(64, 8, 4, 5, 7.5, seed=42)
        h1 = generate_channel(cfg)
        h2 = generate_channel(cfg)
        assert np.array_equal(h1.entries, h2.entries)

    def test_different_seeds_differ(self):
        h1 = generate_channel(ClusteredChannelConfig(8, 4, seed=1))
        h2 = generate_channel(ClusteredChannelConfig(8, 4, seed=2))
        assert not np.array_equal(h1.entries, h2.entries)

    def test_single_path_degenerate_case(self):
        """A 1x1 single-cluster single-ray channel is exactly the raw complex
        Gaussian path gain: both steering scalars and the power normalization
        collapse to 1.  The expected value replays the documented draw order."""
        cfg = ClusteredChannelConfig(1, 1, 1, 1, 7.5, seed=7)
        h = generate_channel(cfg)
        assert h.entries.shape == (1, 1)

        rng = np.random.default_rng(7)
        scale = np.deg2rad(7.5) / np.sqrt(2.0)
        rng.uniform(-np.pi / 2, np.pi / 2, 1)
        rng.uniform(-np.pi / 2, np.pi / 2, 1)
        rng.laplace(0.0, scale, (1, 1))
        rng.laplace(0.0, scale, (1, 1))
        gain = (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))) / np.sqrt(2.0)
        assert h.entries[0, 0] == gain[0, 0]
        assert abs(h.entries[0, 0]) == abs(gain[0, 0])

    def test_frobenius_normalization(self):
        """Mean squared Frobenius norm per antenna pair stays within 5% of 1
        over 1000 seeds, and reproduces the pinned golden value."""
        total = 0.0
        for seed in range(1000):
            h = generate_channel(ClusteredChannelConfig(64, 8, 4, 5, 7.5, seed=seed))
            total += np.linalg.norm(h.entries) ** 2 / (64 * 8)
        mean = total / 1000
        assert 0.95 <= mean <= 1.05
        np.testing.assert_allclose(mean, NORMALIZATION_GOLDEN, rtol=1e-9)

    def test_shape_and_cached_spectrum(self):
        h = generate_channel(ClusteredChannelConfig(16, 4, seed=3))
        assert h.entries.shape == (4, 16)
        assert h.singular_values.shape == (4,)
        assert np.all(np.diff(h.singular_values) <= 0)
        assert np.all(h.singular_values >= 0)


class TestChannelMatrixInvariants:
    def test_constructor_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        h = ChannelMatrix(a)
        np.testing.assert_allclose(
            h.singular_values, np.linalg.svd(a, compute_uv=False), rtol=0, atol=0
        )


class TestSingleDecomposition:
    """A matrix built from entries is checked first, then decomposed once."""

    def test_constructor_runs_one_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(kwargs)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        ChannelMatrix(np.eye(3, 5))
        assert calls == [{"compute_uv": False}]

    def test_singular_values_are_the_svd_of_the_entries(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        h = ChannelMatrix(a)
        assert np.array_equal(h.singular_values, np.linalg.svd(a, compute_uv=False))

    def test_non_finite_entries_rejected_before_the_svd(self):
        with pytest.raises(ValueError, match="entries must be finite"):
            ChannelMatrix([[np.nan, 0], [0, 1]])

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError, match="nonempty 2-D"):
            ChannelMatrix(np.zeros((0, 3)))

    def test_spectrum_is_not_an_input(self):
        entries = np.diag([1.0, 3.0])
        with pytest.raises(TypeError):
            ChannelMatrix(entries, np.array([3.0, 1.0]))
        with pytest.raises(TypeError):
            ChannelMatrix(entries, singular_values=np.array([3.0, 1.0]))

    def test_channel_and_effective_channel_hold_their_own_spectrum(self):
        h = generate_channel(ClusteredChannelConfig(16, 4, seed=7))
        g = effective_channel(h, alternating_projection(h, 2, 2))
        for m in (h, g):
            assert np.array_equal(
                m.singular_values, np.linalg.svd(m.entries, compute_uv=False)
            )


class TestSvdOf:
    def test_identity(self):
        u, s, v = svd_of(np.eye(2, dtype=complex))
        np.testing.assert_allclose(s, [1.0, 1.0])

    def test_diagonal(self):
        u, s, v = svd_of(np.diag([3.0, 1.0]).astype(complex))
        np.testing.assert_allclose(s, [3.0, 1.0])
        # singular vectors of a diagonal matrix are axis vectors up to phase
        np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        u, s, v = svd_of(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(u @ np.diag(s) @ v.conj().T - a) <= 1e-10 * scale
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(3)) <= 1e-10

    def test_accepts_channel_matrix(self):
        h = generate_channel(ClusteredChannelConfig(8, 4, seed=11))
        u, s, v = svd_of(h)
        np.testing.assert_allclose(s, h.singular_values, rtol=1e-12)

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            svd_of(bad)

