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
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import get_type_hints

import numpy as np

# alternating_projection runs only through _realize; it stays a module global
# because perfbench's tracer wraps it by name.
from .analog import alternating_projection, alternating_projections, effective_channel
from .channel import ClusteredChannelConfig, generate_channel
from .digital import ci_feasible, svd_precoder
from .power import PowerModelParams, energy_efficiency, total_power
from .quantizers import lloyd_max
# The scalar rate functions are not called here: the sweep runs the array
# kernels of rates.METHODS.  They stay module globals because perfbench's
# tracer wraps them by name.
from .rates import (
    METHODS,
    RATE_METHODS,
    ChannelRates,
    RateGrid,
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

# The methods a config may name: every entry of rates.METHODS.
HARNESS_METHODS = RATE_METHODS


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
        if not math.isfinite(self.angle_spread_deg):
            raise ConfigError("angle_spread_deg must be finite")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must be nonempty")
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ConfigError("snr_grid_db entries must be finite")
        if not self.bits_grid or any(not 1 <= b <= 8 for b in self.bits_grid):
            raise ConfigError("bits_grid entries must lie in [1, 8]")
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be at least 1")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
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


# The CSV columns are the fields of ResultRecord: floats with 10 significant
# digits, everything else as str() gives it.  One %-format of each record's
# field tuple writes a row faster than formatting the fields one by one.
CSV_HEADER = ",".join(f.name for f in fields(ResultRecord))
_CSV_ROW = ",".join(
    "%.10g" if kind is float else "%s" for kind in get_type_hints(ResultRecord).values()
) + "\n"
_csv_values = attrgetter(*(f.name for f in fields(ResultRecord)))


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


def _parse_str(key, text):
    return text


def _list_of(parse):
    return lambda key, text: tuple(parse(key, tok.strip()) for tok in text.split(","))


# One parser per declared field type; a list type parses each comma-separated item.
_SCALAR_PARSERS = {str: _parse_str, int: _parse_int, float: _parse_float}
_TYPE_PARSERS = {
    **_SCALAR_PARSERS,
    **{tuple[kind, ...]: _list_of(parse) for kind, parse in _SCALAR_PARSERS.items()},
}

# The config keys are the fields of ExperimentConfig, with the nested power
# model replaced by the fields of PowerModelParams.
_FIELD_TYPES = {**get_type_hints(ExperimentConfig), **get_type_hints(PowerModelParams)}
_POWER_KEYS = frozenset(f.name for f in fields(PowerModelParams))
_KEY_PARSERS = {
    f.name: _TYPE_PARSERS[_FIELD_TYPES[f.name]]
    for f in fields(ExperimentConfig) + fields(PowerModelParams)
    if f.name != "power"
}


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


def _state(h, pair, n_rf_rx: int, grid: RateGrid) -> ChannelRates:
    g = effective_channel(h, pair)
    feasible = ci_feasible(g.singular_values, n_rf_rx)
    return ChannelRates(g, h, n_rf_rx, feasible, grid, rate_ci_exact_grid, svd_precoder)


def _grid(config: ExperimentConfig) -> RateGrid:
    rhos = np.array([10.0 ** (snr_db / 10.0) for snr_db in config.snr_grid_db])
    etas = np.array([lloyd_max(bits)[1].eta for bits in config.bits_grid])
    return RateGrid(rhos, config.bits_grid, etas)


def _realize(config: ExperimentConfig, n_rf_rx: int, index: int) -> ChannelRates:
    h = _channel(config, index)
    pair = alternating_projection(h, config.n_rf_tx, n_rf_rx)
    return _state(h, pair, n_rf_rx, _grid(config))


def _realize_all(config: ExperimentConfig, widths, grid: RateGrid) -> dict[int, list[ChannelRates]]:
    """Channel states of every realization for each receive-chain count in ``widths``.

    Each channel is drawn once, and one alternating-projection batch designs
    the analog precoders of all widths for all realizations.
    """
    if not widths:
        return {}
    hs = [_channel(config, i) for i in range(config.n_realizations)]
    pairs = alternating_projections(hs, config.n_rf_tx, widths)
    return {n: [_state(h, pair, n, grid) for h, pair in zip(hs, pairs[n])] for n in widths}


def _aggregate(samples: np.ndarray) -> tuple[float, float]:
    """Mean and standard error over the realizations that produced a value."""
    valid = samples[~np.isnan(samples)]
    if valid.size == 0:
        return math.nan, math.nan
    mean = float(valid.mean())
    stderr = float(valid.std(ddof=1) / np.sqrt(valid.size)) if valid.size > 1 else 0.0
    return mean, stderr


def _aggregate_rows(samples: np.ndarray) -> tuple[list[float], list[float]]:
    """:func:`_aggregate` of every row of a C-ordered (cells, R) array.

    Rows without NaN are reduced along the contiguous realization axis at
    once, which sums in the same pairwise order as the one-row reduction, so
    the results are bit for bit those of :func:`_aggregate`; rows with a NaN
    go through it.
    """
    n = samples.shape[1]
    means = samples.mean(axis=1)
    stderrs = samples.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(len(samples))
    for i in np.flatnonzero(np.isnan(samples).any(axis=1)):
        means[i], stderrs[i] = _aggregate(samples[i])
    return means.tolist(), stderrs.tolist()


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[ResultRecord]:
    """Run the configured sweep and return one record per grid cell.

    Each realization's channel is drawn once, and alternating projection runs
    once per realization for all receive-chain counts.  For every width and
    method, the method's kernel from ``rates.METHODS`` fills a (cells,
    realizations) array, which is reduced along the realization axis.  Grid
    cells whose stream count is infeasible (n_rf_rx exceeding n_rf_tx) are
    emitted with NaN rates so a sweep never aborts.  A width or method listed
    twice is evaluated and emitted once.

    ``threads`` must be at least 1 but does not change how the sweep runs:
    it runs in the calling thread, so the records are bit-identical for any
    thread count.  A pool of worker threads measured slower than one thread
    on a 2-core machine, because the batched LAPACK calls are too small to
    gain from releasing the GIL.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    widths = tuple(dict.fromkeys(config.n_rf_rx))
    methods = tuple(dict.fromkeys(config.methods))
    grid = _grid(config)
    states = _realize_all(config, [n for n in widths if n <= config.n_rf_tx], grid)
    records = []
    for n_rf_rx in widths:
        for method in methods:
            spec = METHODS[method]
            cell_bits = spec.cell_bits(config.bits_grid)
            cells = [(snr_db, bits) for snr_db in config.snr_grid_db for bits in cell_bits]
            if n_rf_rx in states:
                samples = np.empty((len(cells), config.n_realizations))
                for r, state in enumerate(states[n_rf_rx]):
                    samples[:, r] = spec.kernel(state).ravel()
                means, stderrs = _aggregate_rows(samples)
            else:
                means = stderrs = [math.nan] * len(cells)
            powers = {
                bits: total_power(config.power, config.n_rx, n_rf_rx, bits) if bits >= 1 else 0.0
                for bits in cell_bits
            }
            for (snr_db, bits), mean, stderr in zip(cells, means, stderrs):
                p_mw = powers[bits]
                if bits == 0:
                    ee = 0.0
                elif math.isnan(mean):
                    ee = math.nan
                else:
                    ee = energy_efficiency(mean, config.power.bandwidth_hz, p_mw)
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
            fh.writelines(_CSV_ROW % _csv_values(r) for r in ordered)
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
