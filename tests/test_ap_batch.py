"""Batched alternating projection against the single-channel loop it replaces.

``oracle_alternating_projection`` is the per-channel loop the package ran
before the batched kernel, kept here verbatim as the reference: the kernel
must reproduce its matrices, residuals, iteration counts and convergence
flags bit for bit, and the sweep must write the same CSV bytes with it.
"""

import numpy as np
import pytest

import quantlink.harness as harness
from quantlink import (
    AnalogPrecoderPair,
    ClusteredChannelConfig,
    DegenerateIterateError,
    ExperimentConfig,
    alternating_projection,
    emit_csv,
    generate_channel,
    run_experiment,
)
from quantlink.analog import _frobenius_norms, _nearest_semi_unitary, alternating_projections


def oracle_phase_project(a, modulus):
    return modulus * np.exp(1j * np.angle(a))


def oracle_nearest_semi_unitary(a):
    p, s, qh = np.linalg.svd(a, full_matrices=False)
    if s[-1] <= max(a.shape) * np.finfo(float).eps * s[0]:
        raise DegenerateIterateError("rank deficient")
    return p @ qh


def oracle_alternating_projection(h, n_rf_tx, n_rf_rx, epsilon=1e-5, max_iter=1000):
    entries = np.asarray(getattr(h, "entries", h), dtype=complex)
    n_rx, n_tx = entries.shape
    u, _, vh = np.linalg.svd(entries, full_matrices=True)
    v = vh.conj().T
    w_hat = u[:, :n_rf_rx]
    f_hat = v[:, :n_rf_tx]

    mod_w = 1.0 / np.sqrt(n_rx)
    mod_f = 1.0 / np.sqrt(n_tx)
    first_residual = None
    converged = False
    for k in range(1, max_iter + 1):
        w_tilde = oracle_phase_project(w_hat, mod_w)
        f_tilde = oracle_phase_project(f_hat, mod_f)
        w_hat = oracle_nearest_semi_unitary(w_tilde)
        f_hat = oracle_nearest_semi_unitary(f_tilde)
        res_w = np.linalg.norm(w_hat - w_tilde) / np.sqrt(n_rf_rx)
        res_f = np.linalg.norm(f_hat - f_tilde) / np.sqrt(n_rf_tx)
        if first_residual is None:
            first_residual = max(res_w, res_f)
        if res_w < epsilon and res_f < epsilon:
            converged = True
            break

    if not max(res_w, res_f) <= first_residual * (1.0 + 1e-9) + 1e-15:
        raise RuntimeError("projection distance increased across iterations")
    return AnalogPrecoderPair(
        f_rf=f_tilde,
        w_rf=w_tilde,
        residual_f=float(res_f),
        residual_w=float(res_w),
        iterations=k,
        converged=converged,
    )


def clustered_channels(count, n_tx=64, n_rx=8, first_seed=100):
    return [
        generate_channel(ClusteredChannelConfig(n_tx, n_rx, 4, 5, 7.5, seed=first_seed + i))
        for i in range(count)
    ]


def assert_same_pair(got, want):
    assert np.array_equal(got.f_rf, want.f_rf)
    assert np.array_equal(got.w_rf, want.w_rf)
    # the layout reaches the BLAS calls of effective_channel
    assert got.f_rf.strides == want.f_rf.strides
    assert got.w_rf.strides == want.w_rf.strides
    assert got.residual_f == want.residual_f
    assert got.residual_w == want.residual_w
    assert got.iterations == want.iterations
    assert got.converged == want.converged


WIDTHS = tuple(range(1, 9))
# A cap at which about half of the (channel, width) pairs below converge and
# the rest stop at the cap; it keeps the oracle loop fast.
MAX_ITER = 150


@pytest.mark.parametrize("n_rf_tx", (4, 8, 12))
def test_batch_matches_single_channel_loop(n_rf_tx):
    """24 channels x widths 1..8; n_rf_tx = 12 exceeds n_rx = 8, so the
    precoder starts from null-space columns of V."""
    channels = clustered_channels(24)
    got = alternating_projections(channels, n_rf_tx, WIDTHS, max_iter=MAX_ITER)
    assert sorted(got) == list(WIDTHS)
    iterations, converged = set(), 0
    for n_rf_rx in WIDTHS:
        assert len(got[n_rf_rx]) == len(channels)
        for h, pair in zip(channels, got[n_rf_rx]):
            want = oracle_alternating_projection(h, n_rf_tx, n_rf_rx, max_iter=MAX_ITER)
            assert_same_pair(pair, want)
            iterations.add(want.iterations)
            converged += want.converged
    # pairs stop at many different iterations, so the stacks compact often
    assert len(iterations) > 20
    assert 0 < converged < len(WIDTHS) * len(channels)


def test_batch_matches_loop_at_iteration_cap():
    channels = clustered_channels(24, first_seed=300)
    got = alternating_projections(channels, 8, WIDTHS, epsilon=1e-9, max_iter=3)
    for n_rf_rx in WIDTHS:
        for h, pair in zip(channels, got[n_rf_rx]):
            want = oracle_alternating_projection(h, 8, n_rf_rx, epsilon=1e-9, max_iter=3)
            assert_same_pair(pair, want)
            assert pair.iterations == 3 and not pair.converged


def test_batch_matches_loop_with_tight_threshold():
    channels = clustered_channels(12, first_seed=500)
    got = alternating_projections(channels, 8, WIDTHS, epsilon=1e-9, max_iter=MAX_ITER)
    for n_rf_rx in WIDTHS:
        for h, pair in zip(channels, got[n_rf_rx]):
            want = oracle_alternating_projection(h, 8, n_rf_rx, epsilon=1e-9, max_iter=MAX_ITER)
            assert_same_pair(pair, want)


def test_first_iteration_stop_matches_loop():
    """Channels whose singular vectors are DFT columns start inside both
    constraint sets, so every pair stops at the first iteration."""
    n = 8
    d = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    channels = [d @ np.diag(np.arange(n, 0, -1) + shift) @ d.conj().T for shift in (0.0, 0.5)]
    got = alternating_projections(channels, 4, (1, 3))
    for n_rf_rx in (1, 3):
        for h, pair in zip(channels, got[n_rf_rx]):
            assert pair.iterations == 1
            assert_same_pair(pair, oracle_alternating_projection(h, 4, n_rf_rx))


def test_single_channel_wrapper_is_the_batch_kernel():
    h = clustered_channels(1)[0]
    assert_same_pair(alternating_projection(h, 8, 4), oracle_alternating_projection(h, 8, 4))


def test_duplicate_widths_give_one_entry():
    channels = clustered_channels(2)
    got = alternating_projections(channels, 8, (4, 2, 4))
    assert list(got) == [4, 2]


def test_width_validation_covers_every_width():
    with pytest.raises(ValueError, match="n_rf_rx"):
        alternating_projections(clustered_channels(2), 8, (2, 9))


def test_degenerate_member_of_a_stack_raises():
    rng = np.random.default_rng(0)
    good = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    duplicated = np.ones((4, 2), dtype=complex) / 2.0
    assert _nearest_semi_unitary(np.stack([good, good])).shape == (2, 4, 2)
    with pytest.raises(DegenerateIterateError):
        _nearest_semi_unitary(np.stack([good, duplicated, good]))


def test_frobenius_norms_match_linalg_norm_bitwise():
    rng = np.random.default_rng(1)
    for shape in ((300, 64, 8), (300, 8, 3), (50, 8, 1), (7, 2, 1)):
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack *= 10.0 ** rng.uniform(-8, 8, (shape[0], 1, 1))
        for layout in (stack, stack.swapaxes(1, 2), stack[:, ::2]):
            norms = _frobenius_norms(layout)
            assert norms.shape == (shape[0],)
            for m, norm in zip(layout, norms):
                assert norm == np.linalg.norm(m)


def test_sweep_csv_bytes_match_single_channel_loop(tmp_path, monkeypatch):
    """Width 8 is wider than n_rf_tx = 6, so its rows are NaN without AP, and
    width 2 appears twice."""
    config = ExperimentConfig(
        experiment="rate_vs_nrf",
        n_tx=32,
        n_rx=8,
        n_rf_tx=6,
        n_rf_rx=(1, 2, 4, 8, 2),
        snr_grid_db=(-10.0, 0.0, 10.0),
        bits_grid=(1, 3),
        n_realizations=5,
        methods=("ci_exact", "ci_onebit", "aqnm_svd", "ub_onebit_tight", "ub_infinite", "hybrid"),
        master_seed=11,
    )
    shipped = tmp_path / "shipped.csv"
    emit_csv(run_experiment(config), shipped)

    calls = []

    def oracle_batch(hs, n_rf_tx, n_rf_rxs, epsilon=1e-5, max_iter=1000):
        calls.append(tuple(n_rf_rxs))
        for n in n_rf_rxs:
            for i, h in enumerate(hs):
                yield n, i, oracle_alternating_projection(h, n_rf_tx, n, epsilon, max_iter)

    monkeypatch.setattr(harness, "_projection_stream", oracle_batch)
    reference = tmp_path / "reference.csv"
    emit_csv(run_experiment(config), reference)

    assert calls == [(1, 2, 4)]
    assert shipped.read_bytes() == reference.read_bytes()

