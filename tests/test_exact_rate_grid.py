"""The batched exact channel-inversion rate against the scalar O(4^b) oracle.

The sweep evaluates ``ci_exact`` through ``rate_ci_exact_grid``; these tests
pin it to ``discrete_mi(uniform, build_transition_matrix(...))`` bit for bit,
and the sweep's CSV to the bytes that the scalar oracle produces.
"""

import numpy as np
import pytest

import quantlink.harness as harness
import quantlink.rates as rates
from quantlink import (
    ExperimentConfig,
    binary_entropy,
    build_transition_matrices,
    build_transition_matrix,
    discrete_mi,
    emit_csv,
    qfunc,
    rate_ci_exact,
    rate_ci_exact_grid,
    run_experiment,
)

# Spans the underflowing tails at both ends: at 1e6 most transition entries
# of the 8-bit matrix are exactly 0, at 1e-6 every row is nearly uniform.
SNR_GRID = np.logspace(-6.0, 6.0, 21)


def oracle_rate(bits, snr, n_streams):
    """The scalar exact rate: one-bit closed form, else MI of the full matrix."""
    if bits == 1:
        return 2.0 * n_streams * (1.0 - binary_entropy(float(qfunc(np.sqrt(snr)))))
    m = 2**bits
    return 2.0 * n_streams * discrete_mi(np.full(m, 1.0 / m), build_transition_matrix(bits, snr))


class TestBatchedTransitionMatrices:
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_matches_row_loop_bitwise(self, bits):
        stack = build_transition_matrices(bits, SNR_GRID[::4])
        for k, snr in enumerate(SNR_GRID[::4]):
            assert np.array_equal(stack[k], build_transition_matrix(bits, float(snr)).entries)

    def test_validation(self):
        with pytest.raises(ValueError, match="bits"):
            build_transition_matrices(9, [1.0])
        with pytest.raises(ValueError, match="snr must be positive"):
            build_transition_matrices(2, [1.0, 0.0])
        with pytest.raises(ValueError, match="one-dimensional"):
            build_transition_matrices(2, 1.0)


class TestRateCiExactGrid:
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_equals_oracle_bitwise(self, bits):
        expected = np.array([oracle_rate(bits, float(s), 3) for s in SNR_GRID])
        assert np.array_equal(rate_ci_exact_grid(bits, SNR_GRID, 3), expected)

    @pytest.mark.parametrize("bits", (7, 8))
    def test_grid_crosses_batch_boundary(self, bits):
        per_batch = max(1, rates._BATCH_ENTRIES // 4**bits)
        assert SNR_GRID.size > per_batch
        shuffled = np.random.default_rng(bits).permutation(SNR_GRID)
        expected = np.array([oracle_rate(bits, float(s), 2) for s in shuffled])
        assert np.array_equal(rate_ci_exact_grid(bits, shuffled, 2), expected)

    def test_empty_grid(self):
        assert rate_ci_exact_grid(5, [], 2).shape == (0,)

    @pytest.mark.parametrize("bits", (0, 9))
    def test_bad_bits_raise_like_scalar_path(self, bits):
        with pytest.raises(ValueError, match="bits must be an integer"):
            rate_ci_exact(bits, 1.0, 1)
        with pytest.raises(ValueError, match="bits must be an integer"):
            rate_ci_exact_grid(bits, [1.0], 1)

    @pytest.mark.parametrize("bits", range(1, 9))
    @pytest.mark.parametrize("bad", (0.0, -1.0, float("nan")))
    def test_nonpositive_snr_raises_like_scalar_path(self, bits, bad):
        with pytest.raises(ValueError, match="snr must be positive"):
            rate_ci_exact_grid(bits, [1.0, bad], 1)
        if bits > 1:
            with pytest.raises(ValueError, match="snr must be positive"):
                build_transition_matrix(bits, bad)


def test_sweep_csv_bytes_match_scalar_oracle(tmp_path, monkeypatch):
    """Realization 2 of this config is CI-infeasible (Gram condition number
    above 1e12), so the aggregation also drops a NaN sample."""
    config = ExperimentConfig(
        n_tx=16,
        n_rx=4,
        n_rf_tx=4,
        n_rf_rx=(2,),
        n_clusters=1,
        n_rays=2,
        angle_spread_deg=0.1,
        snr_grid_db=(-10.0, 0.0, 10.0, 30.0),
        bits_grid=(1, 2, 3, 4, 5, 6, 7, 8),
        n_realizations=4,
        methods=("ci_exact", "ci_fano", "aqnm_svd", "hybrid"),
        master_seed=2,
    )
    feasible = [state.ci_feasible for state in harness._realize_all(config, [2], harness._grid(config))[2]]
    assert feasible == [True, True, False, True]

    shipped = tmp_path / "shipped.csv"
    emit_csv(run_experiment(config), shipped)

    calls = []

    def scalar_loop(bits, snr_ci, n_streams):
        calls.append(bits)
        return np.array([oracle_rate(bits, s, n_streams) for s in snr_ci])

    monkeypatch.setattr(harness, "rate_ci_exact_grid", scalar_loop)
    reference = tmp_path / "reference.csv"
    emit_csv(run_experiment(config), reference)

    assert len(calls) == 3 * 8
    assert shipped.read_bytes() == reference.read_bytes()
