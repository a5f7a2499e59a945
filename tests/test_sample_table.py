"""The sweep's one intermediate: a sample table with an outcome per realization.

``harness._sample_table`` holds, per (width, method), the cells, a C-ordered
(cells, R) array of rates and an (R,) array of outcomes.  Every sample
without a rate is NaN and names its cause, and the record step reduces every
entry on the same path.
"""

import ast
import inspect
import textwrap
from collections import Counter

import numpy as np
import pytest

import quantlink.harness as harness
from quantlink import ExperimentConfig, run_experiment
from quantlink.rates import METHODS, RateMethod

from test_sweep_core import ALL_METHODS, ILL_CONDITIONED, WIDE

# A one-ray, one-cluster channel has rank one: width 2 can carry neither
# channel inversion nor the SVD precoder's two streams.
RANK_ONE = ExperimentConfig(
    n_tx=16,
    n_rx=4,
    n_rf_tx=4,
    n_rf_rx=(1, 2),
    n_clusters=1,
    n_rays=1,
    snr_grid_db=(-10.0, 0.0, 10.0),
    bits_grid=(1, 3, 5),
    n_realizations=5,
    methods=ALL_METHODS,
    master_seed=3,
)
CONFIGS = {"wide": WIDE, "ill_conditioned": ILL_CONDITIONED, "rank_one": RANK_ONE}
BOUNDS = ("ub_onebit_tight", "ub_onebit_loose", "ub_infinite")


@pytest.fixture(scope="module", params=list(CONFIGS))
def case(request):
    config = CONFIGS[request.param]
    return request.param, config, harness._sample_table(config, 1)


def test_one_entry_per_width_and_method_in_record_order(case):
    _, config, table = case
    assert list(table) == [(n, m) for n in config.n_rf_rx for m in config.methods]


def test_every_entry_has_its_cells_and_one_outcome_per_realization(case):
    _, config, table = case
    r = config.n_realizations
    for (n_rf_rx, method), (cells, samples, outcomes) in table.items():
        bits = METHODS[method].cell_bits(config.bits_grid)
        assert cells == [(s, b) for s in config.snr_grid_db for b in bits]
        assert samples.shape == (len(cells), r) and samples.flags.c_contiguous
        assert outcomes.shape == (r,)
        counts = Counter(outcomes.tolist())
        assert set(counts) <= set(harness.OUTCOMES)
        assert sum(counts.values()) == r


def test_nan_columns_are_exactly_the_ones_without_an_ok_outcome(case):
    _, _, table = case
    for cells, samples, outcomes in table.values():
        ok = outcomes == "ok"
        assert not np.isnan(samples[:, ok]).any()
        assert np.isnan(samples[:, ~ok]).all()


def test_each_outcome_names_its_cause(case):
    name, config, table = case
    outcomes = {key: Counter(entry[2].tolist()) for key, entry in table.items()}
    r = config.n_realizations
    for (n_rf_rx, method), counts in outcomes.items():
        if n_rf_rx > config.n_rf_tx:
            assert counts == {"infeasible_width": r}
        elif method in BOUNDS:
            assert counts == {"ok": r}
    if name == "wide":
        assert all(outcomes[8, m] == {"infeasible_width": r} for m in ALL_METHODS)
        assert all(outcomes[n, m] == {"ok": r} for n in (1, 2, 4) for m in ALL_METHODS)
    if name == "ill_conditioned":
        # realization 2 is CI-infeasible; the SVD precoder still runs on it
        for method in ("ci_exact", "ci_fano", "ci_onebit"):
            assert np.flatnonzero(table[2, method][2] != "ok").tolist() == [2]
            assert outcomes[2, method] == {"ok": r - 1, "ci_ill_conditioned": 1}
        assert outcomes[2, "aqnm_svd"] == outcomes[2, "hybrid"] == {"ok": r}
    if name == "rank_one":
        assert all(outcomes[1, m] == {"ok": r} for m in ALL_METHODS)
        for method in ("ci_exact", "ci_fano", "ci_onebit"):
            assert outcomes[2, method] == {"ci_ill_conditioned": r}
        for method in ("aqnm_svd", "hybrid"):
            assert outcomes[2, method] == {"rank_deficient": r}


def test_the_outcome_rule_agrees_with_the_kernels(case):
    """A kernel run on every designed state gives NaN exactly where the table's outcome is not ok."""
    _, config, table = case
    widths = [n for n in config.n_rf_rx if n <= config.n_rf_tx]
    states = harness._realize_all(config, widths, harness._grid(config))
    for n_rf_rx in widths:
        for method in config.methods:
            outcomes = table[n_rf_rx, method][2]
            for state, outcome in zip(states[n_rf_rx], outcomes):
                rates = METHODS[method].kernel(state)
                assert np.isnan(rates).all() if outcome != "ok" else not np.isnan(rates).any()


def test_records_reduce_every_entry_of_the_table(case):
    _, config, table = case
    records = run_experiment(config)
    assert len(records) == sum(len(entry[0]) for entry in table.values())
    expected = []
    for (n_rf_rx, method), (cells, samples, _) in table.items():
        means, stderrs = harness._aggregate_rows(samples)
        expected += [(n_rf_rx, method, cell, m, s) for cell, m, s in zip(cells, means, stderrs)]
    got = [(r.n_rf_rx, r.method, (r.snr_db, r.bits), r.mean_rate_bpshz, r.rate_stderr) for r in records]
    assert np.array_equal(np.array([g[3:] for g in got]), np.array([e[3:] for e in expected]), equal_nan=True)
    assert [g[:3] for g in got] == [e[:3] for e in expected]


def test_a_method_needs_nothing_unless_it_says_so():
    assert RateMethod("unquantized", lambda x: x).needs == "none"
    needs = {name: spec.needs for name, spec in METHODS.items()}
    assert needs == {
        "ci_exact": "ci_feasible", "ci_fano": "ci_feasible", "ci_onebit": "ci_feasible",
        "aqnm_svd": "full_rank", "hybrid": "full_rank",
        "ub_onebit_tight": "none", "ub_onebit_loose": "none", "ub_infinite": "none",
    }


def test_run_experiment_has_one_fill_and_reduce_path():
    tree = ast.parse(textwrap.dedent(inspect.getsource(harness.run_experiment)))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_sample_table" in names and "_aggregate_rows" in names
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Compare)
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in n.ops)]
    source = inspect.getsource(harness)
    assert "ci_exact_grid(" not in source and "np.stack" not in source


def test_each_state_runs_the_svd_precoder_once_per_snr_and_keeps_only_its_table(monkeypatch):
    calls = Counter()
    precoder = harness.svd_precoder

    def counted(g, rho, n_streams):
        calls[id(g), rho] += 1
        return precoder(g, rho, n_streams)

    monkeypatch.setattr(harness, "svd_precoder", counted)
    config = RANK_ONE
    harness._sample_table(config, 1)
    # both widths, every realization and SNR; width 2 raises at its first SNR
    assert set(calls.values()) == {1}
    assert len(calls) == config.n_realizations * (len(config.snr_grid_db) + 1)
    states = harness._realize_all(config, [1], harness._grid(config))[1]
    for state in states:
        assert state.full_rank and METHODS["hybrid"].kernel(state).shape == (3, 3)
        assert "f_bbs" not in vars(state) and "aqnm" in vars(state)
