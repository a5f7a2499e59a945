"""The exact-rate table pool: ``threads`` overlaps the tables with alternating projection.

``run_experiment`` streams the alternating-projection (AP) pairs as they
finish and queues one table job per analog design.  ``min(threads, CPUs) - 1``
worker threads run the queue while AP goes on; the calling thread runs what
is left.  These tests pin that the CSV bytes never depend on the thread
count, that the pool really runs calls beside AP, that it starts no thread it
does not need, and that every failure leaves no thread behind.
"""

import os
import sys
import threading

import numpy as np
import pytest

import quantlink.analog as analog
import quantlink.harness as harness
from quantlink import DegenerateIterateError, ExperimentConfig, alternating_projection, emit_csv, run_experiment
from quantlink.analog import _projection_stream

from conftest import make_channel

ALL_METHODS = (
    "ci_exact", "ci_fano", "ci_onebit", "aqnm_svd",
    "ub_onebit_tight", "ub_onebit_loose", "ub_infinite", "hybrid",
)
SNRS = (-10.0, 0.0, 10.0, 20.0)

CONFIGS = {
    # width 8 exceeds n_rf_tx = 6: its rows are NaN and AP never runs for it
    "all_methods": ExperimentConfig(
        experiment="rate_vs_nrf", n_rf_tx=6, n_rf_rx=(1, 2, 4, 8), snr_grid_db=SNRS,
        n_realizations=3, methods=ALL_METHODS, master_seed=5,
    ),
    # realization 2 is CI-infeasible (the config of test_exact_rate_grid.py)
    "ci_infeasible": ExperimentConfig(
        n_tx=16, n_rx=4, n_rf_tx=4, n_rf_rx=(2,), n_clusters=1, n_rays=2,
        angle_spread_deg=0.1, snr_grid_db=(-10.0, 0.0, 10.0, 30.0),
        bits_grid=(1, 2, 3, 4, 5, 6, 7, 8), n_realizations=4,
        methods=("ci_exact", "ci_fano", "aqnm_svd", "hybrid"), master_seed=2,
    ),
    "one_realization": ExperimentConfig(
        n_rf_rx=(2, 4), snr_grid_db=SNRS, n_realizations=1,
        methods=("ci_exact", "aqnm_svd", "hybrid"), master_seed=9,
    ),
    "one_bit": ExperimentConfig(
        n_rf_rx=(1, 4), snr_grid_db=SNRS, bits_grid=(1,), n_realizations=3,
        methods=("ci_exact", "hybrid", "ci_onebit", "ub_onebit_tight"), master_seed=3,
    ),
}
SMALL = ExperimentConfig(
    n_rf_rx=(1, 2, 4), snr_grid_db=(-10.0, 10.0), n_realizations=3, methods=("ci_exact",)
)


def csv_bytes(config, threads, path):
    emit_csv(run_experiment(config, threads=threads), path)
    return path.read_bytes()


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the pool is capped by."""
    return lambda n: monkeypatch.setattr(os, "cpu_count", lambda: n)


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs."""
    out = []
    start = threading.Thread.start

    def recording_start(self):
        out.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return out


def wrap_tables(monkeypatch, hook):
    """Run ``hook(bits)`` before every exact-rate table call of the sweep."""
    original = harness.rate_ci_exact_grid

    def wrapped(bits, snr_ci, n_streams):
        hook(bits)
        return original(bits, snr_ci, n_streams)

    monkeypatch.setattr(harness, "rate_ci_exact_grid", wrapped)


@pytest.mark.parametrize("name", CONFIGS)
def test_csv_bytes_do_not_depend_on_threads(name, tmp_path, cpus):
    cpus(4)
    config = CONFIGS[name]
    one = csv_bytes(config, 1, tmp_path / "t1.csv")
    for threads in (2, 3, 4):
        assert csv_bytes(config, threads, tmp_path / f"t{threads}.csv") == one, threads


def test_bytes_hold_with_more_workers_than_cores_and_fast_switching(tmp_path, cpus):
    cpus(8)
    config = CONFIGS["all_methods"]
    one = csv_bytes(config, 1, tmp_path / "t1.csv")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        many = csv_bytes(config, 8, tmp_path / "t8.csv")
    finally:
        sys.setswitchinterval(interval)
    assert many == one


def test_a_worker_computes_tables_while_ap_runs(monkeypatch, cpus):
    cpus(2)
    projections = [0]
    project = analog._nearest_semi_unitary

    def counting(a):
        projections[0] += 1
        return project(a)

    monkeypatch.setattr(analog, "_nearest_semi_unitary", counting)
    calls = []
    worker_ran = threading.Event()

    def record(bits):
        main = threading.current_thread() is threading.main_thread()
        calls.append((main, projections[0]))
        if main:
            # let the worker take a call before this thread drains the queue
            worker_ran.wait(10.0)
        else:
            worker_ran.set()

    wrap_tables(monkeypatch, record)
    run_experiment(SMALL, threads=2)
    assert len(calls) == 3 * 3 * 8
    worker_calls = [n for main, n in calls if not main]
    assert worker_calls
    # the first pairs finish early, so their tables start long before AP ends
    assert min(worker_calls) < projections[0]


def test_one_thread_starts_no_thread(started):
    run_experiment(SMALL, threads=1)
    assert started == []


def test_no_thread_without_an_exact_rate_method(started, cpus):
    cpus(4)
    config = ExperimentConfig(
        n_rf_rx=(1, 4), snr_grid_db=SNRS, n_realizations=2,
        methods=("ci_fano", "aqnm_svd", "ub_infinite", "ci_onebit"),
    )
    run_experiment(config, threads=4)
    assert started == []


def test_pool_is_capped_by_the_cpu_count(monkeypatch, started, cpus):
    cpus(2)
    baseline = threading.active_count()
    alive = []
    wrap_tables(monkeypatch, lambda bits: alive.append(threading.active_count()))
    run_experiment(SMALL, threads=16)
    assert len(started) == 1
    assert max(alive) <= baseline + 1
    assert threading.active_count() == baseline  # the pool is joined on exit


@pytest.mark.parametrize("threads", [1, 2])
def test_table_error_surfaces_unchanged_and_leaves_no_thread(threads, monkeypatch, cpus):
    cpus(2)
    baseline = threading.active_count()
    raised = []

    def fail_at_seven(bits):
        if bits == 7:
            raised.append(ValueError("no table at 7 bits"))
            raise raised[-1]

    wrap_tables(monkeypatch, fail_at_seven)
    with pytest.raises(ValueError, match="^no table at 7 bits$") as excinfo:
        run_experiment(SMALL, threads=threads)
    assert any(excinfo.value is error for error in raised)
    assert threading.active_count() == baseline  # the pool is joined on exit


def test_ap_failure_midway_leaves_no_thread(monkeypatch, started, cpus):
    cpus(2)
    baseline = threading.active_count()
    project = analog._nearest_semi_unitary
    calls = [0]

    def fail_later(a):
        calls[0] += 1
        if calls[0] == 400:  # AP runs about 830 projections on SMALL; pairs finish from about 100
            raise DegenerateIterateError("injected rank loss")
        return project(a)

    monkeypatch.setattr(analog, "_nearest_semi_unitary", fail_later)
    with pytest.raises(DegenerateIterateError, match="^injected rank loss$"):
        run_experiment(SMALL, threads=2)
    assert len(started) == 1  # tables were queued before AP failed
    assert threading.active_count() == baseline  # the pool is joined on exit


def test_stream_yields_each_pair_once_as_the_single_pair_design():
    hs = [make_channel(seed) for seed in range(4)]
    widths = (1, 4, 2, 4)
    stream = list(_projection_stream(hs, 8, widths))
    keys = [(n, i) for n, i, _ in stream]
    assert sorted(keys) == sorted({(n, i) for n in widths for i in range(len(hs))})
    assert len(keys) == len(set(keys))
    iterations = [pair.iterations for _, _, pair in stream]
    assert iterations == sorted(iterations)  # pairs come out as they finish

    for n, i, pair in stream:
        want = alternating_projection(hs[i], 8, n)
        assert np.array_equal(pair.f_rf, want.f_rf) and np.array_equal(pair.w_rf, want.w_rf)
        assert (pair.residual_f, pair.residual_w, pair.iterations, pair.converged) == (
            want.residual_f, want.residual_w, want.iterations, want.converged
        )
