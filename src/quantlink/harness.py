"""Monte-Carlo experiment driver: config parsing, seeded sweeps, CSV emission.

An experiment averages the selected rate methods over independently seeded
channel realizations on a grid of SNR points, ADC resolutions, and receive
chain counts.  Realization ``i`` always draws its channel from the seed
derived as the first 64-bit word of ``numpy.random.SeedSequence([master_seed,
i])``, so results are independent of grid order and of the degree of
parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# alternating_projection runs only through _realize; it stays a module global
# because perfbench's tracer wraps it by name.
from .analog import alternating_projection, alternating_projections, effective_channel
from .channel import ClusteredChannelConfig, generate_channel
from .digital import RankDeficientChannelError, ci_feasible, svd_precoder
from .power import PowerModelParams, energy_efficiency, total_power
from .quantizers import lloyd_max
# rate_ci_exact is not called here; it stays a module global because
# perfbench's tracer wraps it by name.
from .rates import (
    RATE_METHODS,
    rate_aqnm,
    rate_ci_exact,
    rate_ci_exact_grid,
    rate_ci_fano,
    rate_ci_onebit,
    ub_infinite,
    ub_onebit_loose,
    ub_onebit_tight,
)

__all__ = [
    "ConfigError",
    "EXPERIMENTS",
    "HARNESS_METHODS",
    "CSV_HEADER",
    "ExperimentConfig",
    "ResultRecord",
    "parse_config",
    "load_config",
    "realization_seed",
    "run_experiment",
    "emit_csv",
]

EXPERIMENTS = (
    "rate_vs_snr",
    "rate_vs_bits",
    "rate_vs_nrf",
    "power_rate_tradeoff",
    "ee_vs_bits",
)

# "hybrid" is a composite: per realization, the larger of the channel-inversion
# and SVD rates at the same resolution.
HARNESS_METHODS = RATE_METHODS + ("hybrid",)

CSV_HEADER = (
    "experiment,snr_db,bits,n_rf_rx,method,mean_rate_bpshz,rate_stderr,"
    "power_mw,ee_bits_per_joule,n_realizations,master_seed"
)


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run.

    Defaults reproduce the reference setup: a 64-antenna, 8-chain transmitter
    and an 8-antenna receiver with a 4-cluster, 5-rays-per-cluster channel of
    7.5 degree angle spread, averaged over 100 realizations.
    """

    experiment: str = "rate_vs_snr"
    n_tx: int = 64
    n_rx: int = 8
    n_rf_tx: int = 8
    n_rf_rx: tuple[int, ...] = (4,)
    n_clusters: int = 4
    n_rays: int = 5
    angle_spread_deg: float = 7.5
    snr_grid_db: tuple[float, ...] = tuple(float(s) for s in range(-20, 21, 2))
    bits_grid: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    n_realizations: int = 100
    methods: tuple[str, ...] = ("ci_exact", "aqnm_svd", "hybrid")
    power: PowerModelParams = field(default_factory=PowerModelParams)
    output_path: str = "results.csv"
    master_seed: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        for name in ("n_tx", "n_rx", "n_rf_tx", "n_clusters", "n_rays"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.n_rf_tx > self.n_tx:
            raise ConfigError("n_rf_tx cannot exceed n_tx")
        if not self.n_rf_rx or any(n < 1 for n in self.n_rf_rx):
            raise ConfigError("n_rf_rx must list positive integers")
        if any(n > self.n_rx for n in self.n_rf_rx):
            raise ConfigError("n_rf_rx cannot exceed n_rx")
        if not self.angle_spread_deg > 0:
            raise ConfigError("angle_spread_deg must be positive")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must be nonempty")
        if not self.bits_grid or any(not 1 <= b <= 8 for b in self.bits_grid):
            raise ConfigError("bits_grid entries must lie in [1, 8]")
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be at least 1")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        for m in self.methods:
            if m not in HARNESS_METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {HARNESS_METHODS}")
        if not 0 <= self.master_seed < 2**63:
            raise ConfigError("master_seed must be a nonnegative 63-bit integer")


@dataclass(frozen=True)
class ResultRecord:
    """One aggregated grid point of an experiment."""

    experiment: str
    snr_db: float
    bits: int
    n_rf_rx: int
    method: str
    mean_rate_bpshz: float
    rate_stderr: float
    power_mw: float
    ee_bits_per_joule: float
    n_realizations: int
    master_seed: int


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {text!r}") from None


def _parse_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {text!r}") from None


def _parse_int_list(key, text):
    return tuple(_parse_int(key, tok.strip()) for tok in text.split(","))


def _parse_float_list(key, text):
    return tuple(_parse_float(key, tok.strip()) for tok in text.split(","))


def _parse_str_list(key, text):
    return tuple(tok.strip() for tok in text.split(","))


_KEY_PARSERS = {
    "experiment": lambda k, v: v,
    "n_tx": _parse_int,
    "n_rx": _parse_int,
    "n_rf_tx": _parse_int,
    "n_rf_rx": _parse_int_list,
    "n_clusters": _parse_int,
    "n_rays": _parse_int,
    "angle_spread_deg": _parse_float,
    "snr_grid_db": _parse_float_list,
    "bits_grid": _parse_int_list,
    "n_realizations": _parse_int,
    "methods": _parse_str_list,
    "p_lna_mw": _parse_float,
    "p_ps_mw": _parse_float,
    "p_rf_chain_mw": _parse_float,
    "p_bb_mw": _parse_float,
    "fom_w_fj": _parse_float,
    "f_s_hz": _parse_float,
    "bandwidth_hz": _parse_float,
    "output_path": lambda k, v: v,
    "master_seed": _parse_int,
}

_POWER_KEYS = {"p_lna_mw", "p_ps_mw", "p_rf_chain_mw", "p_bb_mw", "fom_w_fj", "f_s_hz", "bandwidth_hz"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a line-oriented ``key = value`` document into an ExperimentConfig.

    ``#`` starts a comment, lists are comma separated, omitted keys take the
    defaults.  Unknown keys, duplicate keys, malformed lines and type
    mismatches raise :class:`ConfigError` with the offending line number.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        values[key] = _KEY_PARSERS[key](key, value)

    power_kwargs = {k: values.pop(k) for k in list(values) if k in _POWER_KEYS}
    try:
        power = PowerModelParams(**power_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(power=power, **values)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def realization_seed(master_seed: int, index: int) -> int:
    """Per-realization channel seed: first 64-bit word of SeedSequence([master_seed, index])."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


@dataclass(eq=False)
class _ChannelState:
    """Per-realization quantities reused across the SNR/bits grid."""

    h: object
    g: object
    nu: np.ndarray
    ci_feasible: bool


def _channel(config: ExperimentConfig, index: int):
    return generate_channel(
        ClusteredChannelConfig(
            n_tx_antennas=config.n_tx,
            n_rx_antennas=config.n_rx,
            n_clusters=config.n_clusters,
            n_rays_per_cluster=config.n_rays,
            angle_spread_deg=config.angle_spread_deg,
            seed=realization_seed(config.master_seed, index),
        )
    )


def _state(h, pair, n_rf_rx: int) -> _ChannelState:
    g = effective_channel(h, pair)
    nu = g.singular_values
    return _ChannelState(h, g, nu, ci_feasible(nu, n_rf_rx))


def _realize(config: ExperimentConfig, n_rf_rx: int, index: int) -> _ChannelState:
    h = _channel(config, index)
    return _state(h, alternating_projection(h, config.n_rf_tx, n_rf_rx), n_rf_rx)


def _realize_all(config: ExperimentConfig, widths) -> dict[int, list[_ChannelState]]:
    """Channel states of every realization for each receive-chain count in ``widths``.

    Each channel is drawn once, and one alternating-projection batch designs
    the analog precoders of all widths for all realizations.
    """
    if not widths:
        return {}
    hs = [_channel(config, i) for i in range(config.n_realizations)]
    pairs = alternating_projections(hs, config.n_rf_tx, widths)
    return {n: [_state(h, pair, n) for h, pair in zip(hs, pairs[n])] for n in widths}


def _method_grid(config: ExperimentConfig, method: str):
    """(snr_db, bits) cells a method emits records for.

    Closed-form one-bit quantities appear once per SNR at bits=1; the
    unquantized bound is tagged bits=0 since resolution plays no role there.
    """
    if method in ("ci_exact", "ci_fano", "aqnm_svd", "hybrid"):
        return [(snr, b) for snr in config.snr_grid_db for b in config.bits_grid]
    if method in ("ci_onebit", "ub_onebit_tight", "ub_onebit_loose"):
        return [(snr, 1) for snr in config.snr_grid_db]
    if method == "ub_infinite":
        return [(snr, 0) for snr in config.snr_grid_db]
    raise ValueError(f"unknown method {method!r}")


def _per_realization_values(config: ExperimentConfig, n_rf_rx: int, state: _ChannelState):
    """Rates of every requested method at every grid cell for one realization.

    The exact channel-inversion rate is evaluated once per bit depth over the
    whole SNR grid.  If the effective channel cannot carry ``n_rf_rx`` SVD
    streams, ``aqnm_svd`` and ``hybrid`` are NaN for this realization.
    """
    n_streams = n_rf_rx
    need_ci = any(m in ("ci_exact", "ci_fano", "hybrid") for m in config.methods)
    need_svd = any(m in ("aqnm_svd", "hybrid") for m in config.methods)
    rhos = [10.0 ** (snr_db / 10.0) for snr_db in config.snr_grid_db]
    snr_subs = None
    ci_table = {}
    if need_ci and state.ci_feasible:
        beta = float(np.sum(state.nu**-2.0))
        snr_subs = [rho / beta for rho in rhos]
        if "ci_exact" in config.methods or "hybrid" in config.methods:
            ci_table = {
                bits: rate_ci_exact_grid(bits, snr_subs, n_streams).tolist()
                for bits in config.bits_grid
            }
    f_bbs = etas = None
    if need_svd:
        etas = {bits: lloyd_max(bits)[1] for bits in config.bits_grid}
        try:
            f_bbs = [svd_precoder(state.g, rho, n_streams) for rho in rhos]
        except RankDeficientChannelError:
            f_bbs = None  # the rank test does not depend on rho: no SVD rate at any SNR
    out = {}
    for s, snr_db in enumerate(config.snr_grid_db):
        rho = rhos[s]
        for bits in config.bits_grid:
            ci_val = ci_table[bits][s] if ci_table else math.nan
            svd_val = (
                rate_aqnm(state.g, f_bbs[s], rho, etas[bits]).bits_per_channel_use
                if f_bbs is not None
                else math.nan
            )
            if "ci_exact" in config.methods:
                out[("ci_exact", snr_db, bits)] = ci_val
            if "ci_fano" in config.methods:
                out[("ci_fano", snr_db, bits)] = (
                    rate_ci_fano(bits, snr_subs[s], n_streams).bits_per_channel_use
                    if snr_subs is not None
                    else math.nan
                )
            if "aqnm_svd" in config.methods:
                out[("aqnm_svd", snr_db, bits)] = svd_val
            if "hybrid" in config.methods:
                # NaN whenever the SVD rate is, so hybrid >= aqnm_svd survives averaging
                out[("hybrid", snr_db, bits)] = (
                    svd_val if math.isnan(ci_val) or math.isnan(svd_val) else max(ci_val, svd_val)
                )
        if "ci_onebit" in config.methods:
            out[("ci_onebit", snr_db, 1)] = (
                rate_ci_onebit(state.g, rho, n_streams).bits_per_channel_use
                if state.ci_feasible
                else math.nan
            )
        if "ub_onebit_tight" in config.methods:
            out[("ub_onebit_tight", snr_db, 1)] = ub_onebit_tight(
                state.g, rho, n_rf_rx
            ).bits_per_channel_use
        if "ub_onebit_loose" in config.methods:
            out[("ub_onebit_loose", snr_db, 1)] = ub_onebit_loose(
                state.h, rho, n_rf_rx
            ).bits_per_channel_use
        if "ub_infinite" in config.methods:
            out[("ub_infinite", snr_db, 0)] = ub_infinite(
                state.g, rho, n_rf_rx
            ).bits_per_channel_use
    return out


def _aggregate(samples: np.ndarray) -> tuple[float, float]:
    """Mean and standard error over the realizations that produced a value."""
    valid = samples[~np.isnan(samples)]
    if valid.size == 0:
        return math.nan, math.nan
    mean = float(valid.mean())
    stderr = float(valid.std(ddof=1) / np.sqrt(valid.size)) if valid.size > 1 else 0.0
    return mean, stderr


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[ResultRecord]:
    """Run the configured sweep and return one record per grid cell.

    Each realization's channel is drawn once, and alternating projection runs
    once per realization for all receive-chain counts; aggregation reduces in
    realization order.  Grid cells whose stream count is infeasible (n_rf_rx
    exceeding n_rf_tx) are emitted with NaN rates so a sweep never aborts.

    ``threads`` must be at least 1 but does not change how the sweep runs:
    it runs in the calling thread, so the records are bit-identical for any
    thread count.  A pool of worker threads measured slower than one thread
    on a 2-core machine, because the batched LAPACK calls are too small to
    gain from releasing the GIL.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    widths = [n for n in dict.fromkeys(config.n_rf_rx) if n <= min(config.n_rf_tx, config.n_rx)]
    states = _realize_all(config, widths)
    records = []
    for n_rf_rx in config.n_rf_rx:
        feasible = n_rf_rx in states
        if feasible:
            values = [_per_realization_values(config, n_rf_rx, st) for st in states[n_rf_rx]]
        for method in config.methods:
            for snr_db, bits in _method_grid(config, method):
                if feasible:
                    samples = np.array([v[(method, snr_db, bits)] for v in values])
                    mean, stderr = _aggregate(samples)
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
                    ResultRecord(
                        experiment=config.experiment,
                        snr_db=float(snr_db),
                        bits=int(bits),
                        n_rf_rx=int(n_rf_rx),
                        method=method,
                        mean_rate_bpshz=mean,
                        rate_stderr=stderr,
                        power_mw=p_mw,
                        ee_bits_per_joule=ee,
                        n_realizations=config.n_realizations,
                        master_seed=config.master_seed,
                    )
                )
    return records


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def emit_csv(records, path) -> None:
    """Write records as CSV, sorted by (snr_db, bits, n_rf_rx, method).

    Floats carry 10 significant digits.  All records must share one
    experiment tag; zero records produce a header-only file.
    """
    records = list(records)
    tags = {r.experiment for r in records}
    if len(tags) > 1:
        raise ValueError(f"records mix experiment tags {sorted(tags)}")
    ordered = sorted(records, key=lambda r: (r.snr_db, r.bits, r.n_rf_rx, r.method))
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in ordered:
                row = (
                    r.experiment,
                    _format_value(r.snr_db),
                    str(r.bits),
                    str(r.n_rf_rx),
                    r.method,
                    _format_value(r.mean_rate_bpshz),
                    _format_value(r.rate_stderr),
                    _format_value(r.power_mw),
                    _format_value(r.ee_bits_per_joule),
                    str(r.n_realizations),
                    str(r.master_seed),
                )
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
