"""The array sweep core against the per-cell sweep it replaces.

The oracles below are the package's per-cell code as it was before the rate
methods moved into one registry of array kernels: the per-realization dict of
``_per_realization_values``, ``_method_grid``, ``_aggregate`` and the scalar
rate formulas, kept here verbatim.  The sweep must write the same CSV bytes,
the row reduction must equal ``_aggregate`` bit for bit, and the stacked AQNM
kernel must equal the per-cell ``svd_precoder`` + ``rate_aqnm`` loop.
"""

import math

import numpy as np
import pytest

import quantlink.harness as harness
import quantlink.rates as rates
from quantlink import (
    HARNESS_METHODS,
    RATE_METHODS,
    ChannelMatrix,
    ConfigError,
    ExperimentConfig,
    RankDeficientChannelError,
    RateQuery,
    build_transition_matrix,
    discrete_mi,
    emit_csv,
    energy_efficiency,
    evaluate,
    lloyd_max,
    qfunc,
    run_experiment,
    svd_precoder,
    total_power,
)
from quantlink.analog import EffectiveChannel
from quantlink.digital import ci_feasible
from quantlink.rates import METHODS, ChannelRates, RateMethod

ALL_METHODS = (
    "ci_exact", "ci_fano", "ci_onebit", "aqnm_svd",
    "ub_onebit_tight", "ub_onebit_loose", "ub_infinite", "hybrid",
)
DEFAULT_SNR_DB = ExperimentConfig().snr_grid_db


# --- the per-cell code before the registry, verbatim -------------------------

def oracle_binary_entropy(p):
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def oracle_onebit_rate(snr, n):
    return 2.0 * n * (1.0 - oracle_binary_entropy(float(qfunc(np.sqrt(snr)))))


def oracle_ci_exact(bits, snr, n_streams):
    if bits == 1:
        return oracle_onebit_rate(float(snr), n_streams)
    m = 2**bits
    return 2.0 * n_streams * discrete_mi(np.full(m, 1.0 / m), build_transition_matrix(bits, snr))


def oracle_ci_fano(bits, snr_ci, n_streams):
    pe = float(2.0 * (1.0 - 2.0**-bits) * qfunc(np.sqrt(3.0 * snr_ci / (4.0**bits - 1.0))))
    penalty = oracle_binary_entropy(pe) + pe * np.log2(2.0**bits - 1.0)
    return float(2.0 * n_streams * (bits - penalty))


def oracle_ci_onebit(g, rho, n_streams):
    gram = g.entries @ g.entries.conj().T
    return oracle_onebit_rate(rho / float(np.trace(np.linalg.inv(gram)).real), n_streams)


def oracle_rate_aqnm(g, f_bb, rho, eta):
    g_mat = np.asarray(getattr(g, "entries", g), dtype=complex)
    f_mat = np.asarray(getattr(f_bb, "f_bb", f_bb), dtype=complex)
    n_streams = f_mat.shape[1]
    a = g_mat @ f_mat
    denom = 1.0 + eta * (rho / n_streams) * np.einsum("ij,ij->i", a, a.conj()).real
    m = np.eye(n_streams) + (1.0 - eta) * (rho / n_streams) * (a.conj().T @ (a / denom[:, None]))
    chol = np.linalg.cholesky(m)
    return float(2.0 * np.sum(np.log2(np.abs(np.diag(chol)))))


def oracle_onebit_bound(sigma1, rho, n):
    return oracle_onebit_rate(rho * sigma1**2 / n, n)


def oracle_infinite_bound(nu1, rho, n):
    return float(n * np.log2(1.0 + rho * nu1**2 / n))


def oracle_aggregate(samples):
    valid = samples[~np.isnan(samples)]
    if valid.size == 0:
        return math.nan, math.nan
    mean = float(valid.mean())
    stderr = float(valid.std(ddof=1) / np.sqrt(valid.size)) if valid.size > 1 else 0.0
    return mean, stderr


def oracle_method_grid(config, method):
    if method in ("ci_exact", "ci_fano", "aqnm_svd", "hybrid"):
        return [(snr, b) for snr in config.snr_grid_db for b in config.bits_grid]
    if method in ("ci_onebit", "ub_onebit_tight", "ub_onebit_loose"):
        return [(snr, 1) for snr in config.snr_grid_db]
    return [(snr, 0) for snr in config.snr_grid_db]


def oracle_per_realization_values(config, n_rf_rx, g, h, feasible):
    n_streams = n_rf_rx
    nu = g.singular_values
    rhos = [10.0 ** (snr_db / 10.0) for snr_db in config.snr_grid_db]
    snr_subs = None
    ci_table = {}
    if feasible:
        beta = float(np.sum(nu**-2.0))
        snr_subs = [rho / beta for rho in rhos]
        ci_table = {
            bits: [oracle_ci_exact(bits, s, n_streams) for s in snr_subs]
            for bits in config.bits_grid
        }
    etas = {bits: lloyd_max(bits)[1].eta for bits in config.bits_grid}
    try:
        f_bbs = [svd_precoder(g, rho, n_streams) for rho in rhos]
    except RankDeficientChannelError:
        f_bbs = None
    out = {}
    for s, snr_db in enumerate(config.snr_grid_db):
        rho = rhos[s]
        for bits in config.bits_grid:
            ci_val = ci_table[bits][s] if ci_table else math.nan
            svd_val = (
                oracle_rate_aqnm(g, f_bbs[s], rho, etas[bits]) if f_bbs is not None else math.nan
            )
            out[("ci_exact", snr_db, bits)] = ci_val
            out[("ci_fano", snr_db, bits)] = (
                oracle_ci_fano(bits, snr_subs[s], n_streams) if snr_subs is not None else math.nan
            )
            out[("aqnm_svd", snr_db, bits)] = svd_val
            out[("hybrid", snr_db, bits)] = (
                svd_val if math.isnan(ci_val) or math.isnan(svd_val) else max(ci_val, svd_val)
            )
        out[("ci_onebit", snr_db, 1)] = (
            oracle_ci_onebit(g, rho, n_streams) if feasible else math.nan
        )
        out[("ub_onebit_tight", snr_db, 1)] = oracle_onebit_bound(nu[0], rho, n_rf_rx)
        out[("ub_onebit_loose", snr_db, 1)] = oracle_onebit_bound(
            h.singular_values[0], rho, n_rf_rx
        )
        out[("ub_infinite", snr_db, 0)] = oracle_infinite_bound(nu[0], rho, n_rf_rx)
    return out


def oracle_sweep(config):
    """The per-cell sweep on the same channels and analog designs as the package."""
    widths = [n for n in config.n_rf_rx if n <= min(config.n_rf_tx, config.n_rx)]
    states = harness._realize_all(config, widths, harness._grid(config))
    records = []
    for n_rf_rx in config.n_rf_rx:
        feasible = n_rf_rx in states
        if feasible:
            values = [
                oracle_per_realization_values(
                    config, n_rf_rx, st.g, st.h, ci_feasible(st.g.singular_values, n_rf_rx)
                )
                for st in states[n_rf_rx]
            ]
        for method in config.methods:
            for snr_db, bits in oracle_method_grid(config, method):
                if feasible:
                    mean, stderr = oracle_aggregate(
                        np.array([v[(method, snr_db, bits)] for v in values])
                    )
                else:
                    mean, stderr = math.nan, math.nan
                if bits >= 1:
                    p_mw = total_power(config.power, config.n_rx, n_rf_rx, bits)
                    ee = (
                        energy_efficiency(mean, config.power.bandwidth_hz, p_mw)
                        if not math.isnan(mean)
                        else math.nan
                    )
                else:
                    p_mw, ee = 0.0, 0.0
                records.append(
                    harness.ResultRecord(
                        config.experiment, float(snr_db), int(bits), int(n_rf_rx), method,
                        mean, stderr, p_mw, ee, config.n_realizations, config.master_seed,
                    )
                )
    return records


# --- the sweep ---------------------------------------------------------------

# Width 8 is wider than n_rf_tx = 6, so its rows are NaN without a design;
# five SNRs cross the four-SNR batch boundary of the exact rate at b=7.
WIDE = ExperimentConfig(
    experiment="rate_vs_nrf",
    n_tx=32,
    n_rx=8,
    n_rf_tx=6,
    n_rf_rx=(1, 2, 4, 8),
    snr_grid_db=(-10.0, -2.0, 5.0, 12.0, 25.0),
    bits_grid=(1, 2, 3, 6, 7, 8),
    n_realizations=9,
    methods=ALL_METHODS,
    master_seed=5,
)

# The config of test_exact_rate_grid.py: realization 2 is CI-infeasible.
ILL_CONDITIONED = ExperimentConfig(
    n_tx=16,
    n_rx=4,
    n_rf_tx=4,
    n_rf_rx=(2,),
    n_clusters=1,
    n_rays=2,
    angle_spread_deg=0.1,
    snr_grid_db=(-10.0, 0.0, 10.0, 30.0),
    bits_grid=(1, 2, 3, 4, 5, 6, 7, 8),
    n_realizations=9,
    methods=ALL_METHODS,
    master_seed=2,
)


@pytest.mark.parametrize("config", [WIDE, ILL_CONDITIONED], ids=["wide", "ill_conditioned"])
def test_sweep_csv_bytes_match_per_cell_oracle(config, tmp_path):
    shipped, reference = tmp_path / "shipped.csv", tmp_path / "reference.csv"
    emit_csv(run_experiment(config), shipped)
    emit_csv(oracle_sweep(config), reference)
    assert shipped.read_bytes() == reference.read_bytes()


def test_ill_conditioned_config_has_an_infeasible_realization():
    states = harness._realize_all(ILL_CONDITIONED, [2], harness._grid(ILL_CONDITIONED))[2]
    feasible = [state.ci_feasible for state in states[:4]]
    assert feasible == [True, True, False, True]


def test_repeated_width_is_emitted_once(tmp_path):
    base = dict(snr_grid_db=(0.0, 10.0), bits_grid=(1, 3), n_realizations=3,
                methods=("ci_exact", "aqnm_svd", "ub_infinite"), master_seed=4)
    once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
    emit_csv(run_experiment(ExperimentConfig(n_rf_rx=(2,), **base)), once)
    emit_csv(run_experiment(ExperimentConfig(n_rf_rx=(2, 2), **base)), twice)
    assert twice.read_bytes() == once.read_bytes()


def test_repeated_method_is_emitted_once():
    base = dict(snr_grid_db=(0.0,), bits_grid=(2,), n_rf_rx=(2,), n_realizations=2)
    once = run_experiment(ExperimentConfig(methods=("ci_exact", "hybrid"), **base))
    twice = run_experiment(ExperimentConfig(methods=("ci_exact", "hybrid", "ci_exact"), **base))
    assert twice == once


# --- the row reduction -------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 30, 100])
def test_row_reduction_equals_aggregate_bitwise(n):
    rng = np.random.default_rng(n)
    samples = rng.uniform(0.0, 40.0, (60, n)) * 10.0 ** rng.uniform(-6, 3, (60, 1))
    samples[5, 0] = math.nan  # one missing sample
    samples[6, :] = math.nan  # all missing
    samples[7, 1:] = math.nan  # one sample left (when n > 1)
    samples[8, rng.integers(n, size=max(1, n // 3))] = math.nan
    means, stderrs = harness._aggregate_rows(samples)
    for row, mean, stderr in zip(samples, means, stderrs):
        expected = oracle_aggregate(row)
        assert np.array_equal([mean, stderr], expected, equal_nan=True)
        assert type(mean) is float and type(stderr) is float


# --- the stacked AQNM kernel -------------------------------------------------

def channel_rates(g, n_streams, bits=tuple(range(1, 9)), snr_db=DEFAULT_SNR_DB):
    g = EffectiveChannel.from_matrix(g)
    grid = harness._grid(ExperimentConfig(snr_grid_db=snr_db, bits_grid=bits))
    return ChannelRates(g, None, n_streams, ci_feasible(g.singular_values, n_streams), grid)


def oracle_aqnm_table(g, n_streams, bits=tuple(range(1, 9)), snr_db=DEFAULT_SNR_DB):
    g = EffectiveChannel.from_matrix(g)
    table = np.empty((len(snr_db), len(bits)))
    for s, snr in enumerate(snr_db):
        rho = 10.0 ** (snr / 10.0)
        f_bb = svd_precoder(g, rho, n_streams)
        for k, b in enumerate(bits):
            table[s, k] = oracle_rate_aqnm(g, f_bb, rho, lloyd_max(b)[1].eta)
    return table


@pytest.mark.parametrize("width", range(1, 9))
def test_stacked_aqnm_equals_per_cell_loop(width):
    rng = np.random.default_rng(width)
    for scale in (1.0, 1e-3):
        g = rng.standard_normal((width, 8)) + 1j * rng.standard_normal((width, 8))
        g[:, 0] *= 1e2  # a dominant stream, so waterfilling drops weak ones at low SNR
        g *= scale
        assert np.array_equal(channel_rates(g, width).aqnm, oracle_aqnm_table(g, width))


def test_rank_deficient_channel_gives_nan_svd_and_hybrid():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    v = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    with pytest.raises(RankDeficientChannelError):
        svd_precoder(u @ v, 1.0, 3)
    state = channel_rates(u @ v, 3)
    assert np.isnan(METHODS["aqnm_svd"].kernel(state)).all()
    assert np.isnan(METHODS["hybrid"].kernel(state)).all()


def test_scalar_rate_aqnm_is_the_kernel():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    for rho in (0.01, 1.0, 300.0):
        f_bb = svd_precoder(g, rho, 4)
        for eta in (0.0, lloyd_max(1)[1], 0.3):
            expected = oracle_rate_aqnm(g, f_bb, rho, getattr(eta, "eta", eta))
            assert rates.rate_aqnm(g, f_bb, rho, eta).bits_per_channel_use == expected


# --- the registry ------------------------------------------------------------

def test_method_lists_come_from_the_table():
    assert RATE_METHODS == HARNESS_METHODS == tuple(METHODS) == ALL_METHODS
    assert {m: METHODS[m].cell_bits((2, 5)) for m in ALL_METHODS} == {
        "ci_exact": (2, 5), "ci_fano": (2, 5), "aqnm_svd": (2, 5), "hybrid": (2, 5),
        "ci_onebit": (1,), "ub_onebit_tight": (1,), "ub_onebit_loose": (1,),
        "ub_infinite": (0,),
    }


@pytest.mark.parametrize("method", ALL_METHODS)
def test_every_method_runs_through_evaluate_and_the_sweep(method):
    """With one realization the sweep's mean is the value evaluate() gives
    for that realization's channel."""
    config = ExperimentConfig(snr_grid_db=(-5.0, 10.0), bits_grid=(2, 5), n_rf_rx=(2,),
                              n_realizations=1, methods=(method,), master_seed=8)
    records = run_experiment(config)
    assert {r.bits for r in records} == set(METHODS[method].cell_bits(config.bits_grid))
    assert len(records) == 2 * len(METHODS[method].cell_bits(config.bits_grid))
    state = harness._realize_all(config, [2], harness._grid(config))[2][0]
    for r in records:
        query = RateQuery(10.0 ** (r.snr_db / 10.0), 2, max(r.bits, 1), method)
        result = evaluate(query, state.g, h=state.h)
        assert result.method == method
        assert result.bits_per_channel_use == r.mean_rate_bpshz


def test_a_new_method_takes_one_table_entry(monkeypatch):
    def unit_rate(x):
        return np.ones((len(x.grid.rhos), 1))

    monkeypatch.setitem(METHODS, "unit_rate", RateMethod("unquantized", unit_rate))
    config = ExperimentConfig(snr_grid_db=(0.0, 3.0), n_rf_rx=(2,), n_realizations=2,
                              methods=("unit_rate", "ci_exact"))
    rows = [r for r in run_experiment(config) if r.method == "unit_rate"]
    assert [(r.snr_db, r.bits, r.mean_rate_bpshz, r.rate_stderr) for r in rows] == [
        (0.0, 0, 1.0, 0.0), (3.0, 0, 1.0, 0.0)
    ]
    g = np.eye(2, 4, dtype=complex)
    assert evaluate(RateQuery(1.0, 2, 1, "unit_rate"), g).bits_per_channel_use == 1.0


def test_unknown_method_is_rejected_by_the_table():
    with pytest.raises(ConfigError, match="unknown method"):
        ExperimentConfig(methods=("nonsense",))


def test_evaluate_reports_a_method_the_channel_cannot_carry():
    g = np.diag([1.0, 1e-7]).astype(complex)  # squared condition number 1e14
    with pytest.raises(RankDeficientChannelError, match="ci_exact"):
        evaluate(RateQuery(1.0, 2, 3, "ci_exact"), g)
    assert float(evaluate(RateQuery(1.0, 2, 3, "aqnm_svd"), g)) > 0.0


@pytest.mark.parametrize("method", ["ci_exact", "ub_infinite"])
@pytest.mark.parametrize("n_streams", [1, 3])
def test_evaluate_needs_one_stream_per_receive_chain(method, n_streams):
    g = np.eye(2, 4, dtype=complex)
    with pytest.raises(ValueError, match=rf"n_streams \({n_streams}\).*count \(2\)"):
        evaluate(RateQuery(10.0, n_streams, 3, method), g)
    assert float(evaluate(RateQuery(10.0, 2, 3, method), g)) > 0.0


def test_loose_bound_needs_the_full_channel_in_the_kernel():
    state = channel_rates(np.eye(2, 4), 2)
    with pytest.raises(ValueError, match="full channel"):
        METHODS["ub_onebit_loose"].kernel(state)
    h = ChannelMatrix.from_entries(np.eye(2, 4))
    assert float(evaluate(RateQuery(1.0, 2, 1, "ub_onebit_loose"), np.eye(2), h=h)) > 0.0
