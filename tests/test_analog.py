"""Alternating projection for constant-modulus precoders and the effective channel."""

import numpy as np
import pytest

from quantlink import (
    AnalogPrecoderPair,
    DegenerateIterateError,
    alternating_projection,
    effective_channel,
    svd_of,
)
from quantlink.analog import _nearest_semi_unitary

from conftest import make_channel


def dft_matrix(n):
    return np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)


def semi_unitarity_defect(a):
    k = a.shape[1]
    return np.linalg.norm(a.conj().T @ a - np.eye(k)) / np.sqrt(k)


class TestAlternatingProjection:
    def test_fixed_point_when_singular_vectors_have_constant_modulus(self):
        """A channel whose singular vectors are DFT columns starts inside both
        constraint sets, so the first iteration already meets the target."""
        n = 8
        d = dft_matrix(n)
        h = d @ np.diag(np.arange(n, 0, -1).astype(float)) @ d.conj().T
        pair = alternating_projection(h, n_rf_tx=4, n_rf_rx=3)
        assert pair.iterations == 1
        assert pair.converged
        assert pair.residual_f <= 1e-12
        assert pair.residual_w <= 1e-12

    def test_clustered_channel_converges(self):
        h = make_channel(1)
        pair = alternating_projection(h, 8, 4, epsilon=1e-5, max_iter=1000)
        assert pair.converged
        assert pair.residual_f < 1e-5
        assert pair.residual_w < 1e-5

    def test_exact_constant_modulus(self):
        h = make_channel(2)
        pair = alternating_projection(h, 8, 4)
        np.testing.assert_allclose(np.abs(pair.f_rf), 1 / np.sqrt(64), rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.abs(pair.w_rf), 1 / np.sqrt(8), rtol=0, atol=1e-14)

    def test_semi_unitarity_defect_tracks_residual(self):
        """Near convergence the Gram defect of the fixed-modulus matrix is at
        most a small multiple of the reported projection distance."""
        h = make_channel(3)
        pair = alternating_projection(h, 8, 4)
        assert semi_unitarity_defect(pair.w_rf) <= 3.0 * pair.residual_w + 1e-12
        assert semi_unitarity_defect(pair.f_rf) <= 3.0 * pair.residual_f + 1e-12

    def test_residual_floor_near_machine_precision(self):
        """With a threshold below double precision the distance bottoms out
        around 1e-15 instead of diverging."""
        h = make_channel(4)
        pair = alternating_projection(h, 8, 4, epsilon=1e-15, max_iter=3000)
        assert max(pair.residual_f, pair.residual_w) <= 1e-12

    def test_nonconvergence_returns_flagged_iterate(self):
        h = make_channel(5)
        pair = alternating_projection(h, 8, 4, epsilon=1e-9, max_iter=3)
        assert not pair.converged
        assert pair.iterations == 3
        # still hardware-realizable
        np.testing.assert_allclose(np.abs(pair.f_rf), 1 / np.sqrt(64), atol=1e-14)

    def test_dimension_validation(self):
        h = make_channel(6)
        with pytest.raises(ValueError):
            alternating_projection(h, 65, 4)
        with pytest.raises(ValueError):
            alternating_projection(h, 8, 9)
        with pytest.raises(ValueError):
            alternating_projection(h, 8, 4, epsilon=0.0)

    def test_degenerate_iterate_raises(self):
        duplicated = np.ones((4, 2), dtype=complex) / 2.0
        with pytest.raises(DegenerateIterateError):
            _nearest_semi_unitary(duplicated)


class TestAnalogPrecoderPairInvariants:
    def test_rejects_non_constant_modulus(self):
        w = np.ones((4, 2), dtype=complex) / 2.0
        f = np.ones((4, 2), dtype=complex)  # wrong modulus
        with pytest.raises(ValueError, match="modulus"):
            AnalogPrecoderPair(f_rf=f, w_rf=w, residual_f=0.0, residual_w=0.0, iterations=1)


class TestEffectiveChannel:
    def test_unconstrained_singular_vectors_diagonalize(self):
        """Using the top singular vectors directly (ignoring the hardware
        constraint) must reproduce the top singular values on the diagonal."""
        h = make_channel(7)
        u, s, v = svd_of(h)
        n_s = 4
        g = effective_channel(h, u[:, :n_s], v[:, :n_s])
        np.testing.assert_allclose(np.abs(g.entries), np.diag(s[:n_s]), atol=1e-10 * s[0])
        np.testing.assert_allclose(g.singular_values, s[:n_s], rtol=1e-12)

    def test_top_singular_value_never_exceeds_channel(self):
        for seed in range(8, 16):
            h = make_channel(seed)
            pair = alternating_projection(h, 8, 4)
            g = effective_channel(h, pair)
            sigma1 = h.singular_values[0]
            assert g.singular_values[0] <= sigma1 * (1.0 + 1e-8)

    def test_scalar_chain(self):
        h = make_channel(16)
        pair = alternating_projection(h, 8, 1)
        g = effective_channel(h, pair)
        assert g.entries.shape == (1, 8)
        assert abs(g.singular_values[0]) <= h.singular_values[0] * (1.0 + 1e-8)

    def test_shape_mismatch_rejected(self):
        h = make_channel(17)
        with pytest.raises(ValueError, match="shape"):
            effective_channel(h, np.ones((3, 2), dtype=complex) / np.sqrt(3), np.eye(64, 2))


def test_growing_projection_distance_raises_without_assert(monkeypatch):
    """The closing invariant is an explicit check, so it survives python -O."""
    import itertools

    import quantlink.analog as analog

    calls = itertools.count(1)
    monkeypatch.setattr(analog, "_nearest_semi_unitary", lambda a: a * (1.0 + 0.1 * next(calls)))
    with pytest.raises(RuntimeError, match="projection distance increased"):
        alternating_projection(make_channel(3), n_rf_tx=8, n_rf_rx=4, max_iter=5)
