"""Config parsing, seeded sweeps, CSV output, and reproducibility guarantees."""

import math
from pathlib import Path

import numpy as np
import pytest

from quantlink import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    emit_csv,
    parse_config,
    realization_seed,
    run_experiment,
)
from quantlink.harness import CSV_HEADER

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_small.csv"

GOLDEN_CONFIG = """
# pinned miniature run for byte-exact regression
experiment = rate_vs_snr
snr_grid_db = -10,10
bits_grid = 2
n_rf_rx = 2
n_realizations = 2
methods = ci_exact,ci_fano,aqnm_svd,hybrid,ci_onebit,ub_onebit_tight,ub_onebit_loose,ub_infinite
master_seed = 2024
"""


def tiny_config(**overrides):
    base = dict(
        experiment="rate_vs_snr",
        snr_grid_db=(0.0,),
        bits_grid=(1,),
        n_rf_rx=(2,),
        n_realizations=2,
        methods=("ci_exact", "aqnm_svd"),
        master_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.n_tx == 64 and cfg.n_rx == 8 and cfg.n_rf_tx == 8
        assert cfg.n_clusters == 4 and cfg.n_rays == 5
        assert cfg.angle_spread_deg == 7.5
        assert cfg.n_realizations == 100
        assert cfg.power.p_lna_mw == 20.0 and cfg.power.fom_w_fj == 500.0
        assert cfg.snr_grid_db[0] == -20.0 and cfg.snr_grid_db[-1] == 20.0

    def test_integer_list(self):
        cfg = parse_config("bits_grid = 1,2,3")
        assert cfg.bits_grid == (1, 2, 3)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full comment\n\nn_realizations = 5  # trailing\n")
        assert cfg.n_realizations == 5

    def test_negative_realizations_names_key(self):
        with pytest.raises(ConfigError, match="n_realizations"):
            parse_config("n_realizations = -1")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown"):
            parse_config("n_tx = 64\nbogus = 1\n")

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="n_tx"):
            parse_config("n_tx = sixty-four")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n_tx = 64\nn_tx = 32\n")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config("methods = ci_exact,psycho")

    def test_power_keys_route_to_power_params(self):
        cfg = parse_config("p_bb_mw = 123\nbandwidth_hz = 2e9")
        assert cfg.power.p_bb_mw == 123.0
        assert cfg.power.bandwidth_hz == 2e9


class TestSeedFanOut:
    def test_documented_split(self):
        expected = int(np.random.SeedSequence([9, 4]).generate_state(1, np.uint64)[0])
        assert realization_seed(9, 4) == expected

    def test_distinct_across_indices(self):
        seeds = {realization_seed(1, i) for i in range(64)}
        assert len(seeds) == 64


class TestRunExperiment:
    def test_deterministic_across_runs(self):
        cfg = tiny_config()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1 == r2

    def test_grid_order_does_not_change_values(self):
        cfg_fwd = tiny_config(snr_grid_db=(-10.0, 10.0))
        cfg_rev = tiny_config(snr_grid_db=(10.0, -10.0))
        by_key_fwd = {(r.method, r.snr_db, r.bits): r for r in run_experiment(cfg_fwd)}
        by_key_rev = {(r.method, r.snr_db, r.bits): r for r in run_experiment(cfg_rev)}
        assert by_key_fwd == by_key_rev

    def test_serial_parallel_equivalence(self, tmp_path):
        cfg = tiny_config(n_realizations=4, snr_grid_db=(-5.0, 5.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg, threads=1), a)
        emit_csv(run_experiment(cfg, threads=3), b)
        assert a.read_bytes() == b.read_bytes()

    def test_rate_caps_respected(self):
        cfg = tiny_config(bits_grid=(1, 3), snr_grid_db=(-10.0, 20.0),
                          methods=("ci_exact", "ci_fano", "aqnm_svd", "hybrid"))
        for r in run_experiment(cfg):
            cap = 2 * r.n_rf_rx * r.bits
            assert r.mean_rate_bpshz <= cap + 1e-9

    def test_infeasible_stream_count_emits_nan_rows(self):
        cfg = tiny_config(n_rf_rx=(2, 6), n_rf_tx=4, n_rx=8)
        records = run_experiment(cfg)
        bad = [r for r in records if r.n_rf_rx == 6]
        good = [r for r in records if r.n_rf_rx == 2]
        assert bad and good
        assert all(math.isnan(r.mean_rate_bpshz) for r in bad)
        assert all(math.isfinite(r.mean_rate_bpshz) for r in good)

    def test_one_bit_rows_emitted_once_per_snr(self):
        cfg = tiny_config(bits_grid=(2, 3), methods=("ub_onebit_tight", "ub_infinite"))
        records = run_experiment(cfg)
        tight = [r for r in records if r.method == "ub_onebit_tight"]
        infinite = [r for r in records if r.method == "ub_infinite"]
        assert len(tight) == 1 and tight[0].bits == 1
        assert len(infinite) == 1 and infinite[0].bits == 0
        assert infinite[0].power_mw == 0.0

    def test_hybrid_is_per_realization_maximum(self):
        cfg = tiny_config(n_realizations=1, methods=("ci_exact", "aqnm_svd", "hybrid"))
        by_method = {r.method: r.mean_rate_bpshz for r in run_experiment(cfg)}
        assert by_method["hybrid"] == pytest.approx(
            max(by_method["ci_exact"], by_method["aqnm_svd"]), rel=1e-12
        )


class TestEmitCsv:
    def test_zero_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_record_two_lines(self, tmp_path):
        rec = ResultRecord("rate_vs_snr", 0.0, 1, 2, "ci_exact", 1.5, 0.1, 604.0, 2.48e9, 2, 3)
        path = tmp_path / "one.csv"
        emit_csv([rec], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("rate_vs_snr,0,1,2,ci_exact,1.5,0.1,604,")

    def test_rows_sorted(self, tmp_path):
        cfg = tiny_config(snr_grid_db=(10.0, -10.0), bits_grid=(2, 1))
        path = tmp_path / "sorted.csv"
        emit_csv(run_experiment(cfg), path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        keys = [(float(r[1]), int(r[2]), int(r[3]), r[4]) for r in rows]
        assert keys == sorted(keys)

    def test_mixed_experiments_rejected(self, tmp_path):
        a = ResultRecord("rate_vs_snr", 0.0, 1, 2, "ci_exact", 1.0, 0.0, 604.0, 1e9, 1, 1)
        b = ResultRecord("ee_vs_bits", 0.0, 1, 2, "ci_exact", 1.0, 0.0, 604.0, 1e9, 1, 1)
        with pytest.raises(ValueError, match="experiment"):
            emit_csv([a, b], tmp_path / "mixed.csv")

    def test_golden_file_byte_identical(self, tmp_path):
        """Regenerating the pinned miniature run must reproduce the committed
        CSV byte for byte."""
        cfg = parse_config(GOLDEN_CONFIG)
        path = tmp_path / "golden.csv"
        emit_csv(run_experiment(cfg), path)
        assert path.read_bytes() == GOLDEN_PATH.read_bytes()


class TestMethodOrderingAcrossResolutions:
    def test_channel_inversion_wins_coarse_svd_wins_fine(self):
        """At -10 dB with four chains the channel-inversion mean rate leads at
        one bit and trails at eight bits."""
        cfg = ExperimentConfig(
            experiment="rate_vs_bits",
            snr_grid_db=(-10.0,),
            bits_grid=(1, 8),
            n_rf_rx=(4,),
            n_realizations=40,
            methods=("ci_exact", "aqnm_svd"),
            master_seed=1,
        )
        by_key = {(r.method, r.bits): r.mean_rate_bpshz for r in run_experiment(cfg, threads=2)}
        assert by_key[("ci_exact", 1)] > by_key[("aqnm_svd", 1)]
        assert by_key[("aqnm_svd", 8)] > by_key[("ci_exact", 8)]


class TestRankDeficientChannel:
    def test_single_path_channel_does_not_abort_the_sweep(self):
        """One path gives a rank-1 channel, so neither channel inversion nor
        two SVD streams exist; the sweep reports NaN instead of raising."""
        cfg = ExperimentConfig(
            n_clusters=1,
            n_rays=1,
            n_rf_rx=(2,),
            snr_grid_db=(0.0, 10.0),
            bits_grid=(1, 4),
            n_realizations=3,
        )
        records = run_experiment(cfg)
        assert {r.method for r in records} == {"ci_exact", "aqnm_svd", "hybrid"}
        assert all(math.isnan(r.mean_rate_bpshz) for r in records)

    def test_svd_failure_makes_hybrid_nan_too(self, monkeypatch):
        import quantlink.harness as harness
        from quantlink import RankDeficientChannelError

        def refuse(g, rho, n_streams):
            raise RankDeficientChannelError("rank below the requested streams")

        monkeypatch.setattr(harness, "svd_precoder", refuse)
        by_method = {r.method: r.mean_rate_bpshz for r in run_experiment(tiny_config(
            methods=("ci_exact", "aqnm_svd", "hybrid")))}
        assert math.isfinite(by_method["ci_exact"])
        assert math.isnan(by_method["aqnm_svd"])
        assert math.isnan(by_method["hybrid"])
