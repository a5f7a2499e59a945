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
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, field, fields
from functools import partial
from operator import attrgetter
from typing import get_args, get_origin, get_type_hints

import numpy as np

# alternating_projection is not called here; it stays a module global because
# perfbench's tracer wraps it by name.
from .analog import (
    _projection_stream,
    alternating_projection,
    effective_channel,
)
from .channel import ClusteredChannelConfig, _check_count, _is_integer, generate_channel
from .digital import ci_feasible, svd_precoder
from .power import PowerModelParams, energy_efficiency, total_power
from .quantizers import MAX_BITS, lloyd_max
# The scalar rate functions are not called here: the sweep runs the array
# kernels of rates.METHODS.  They stay module globals because perfbench's
# tracer wraps them by name.
from .rates import (
    METHODS,
    OUTCOMES,
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
    "CSV_HEADER",
    "ExperimentConfig",
    "ResultRecord",
    "parse_config",
    "load_config",
    "realization_seed",
    "SweepResult",
    "sweep",
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

# SNRs lie in [-MAX_SNR_DB, MAX_SNR_DB] dB: rho in [1e-30, 1e30] keeps every rate finite.
MAX_SNR_DB = 300


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
        for f in fields(self):
            name, kind, value = f.name, _FIELD_TYPES[f.name], getattr(self, f.name)
            if name in _LIST_AXES:
                kind = get_args(kind)[0]
                if not isinstance(value, (list, tuple)) or not all(_is_a(kind, v) for v in value):
                    raise ConfigError(f"{name} entries must be {_NOUNS[kind][1]}")
                object.__setattr__(self, name, tuple(dict.fromkeys(_as(kind, v) for v in value)))
            elif not _is_a(kind, value):
                raise ConfigError(f"{name} must be {_NOUNS[kind][0]}")
            elif name != "power":  # a str, int or float, stored as its Python type
                object.__setattr__(self, name, _as(kind, value))
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
        if any(abs(s) > MAX_SNR_DB for s in self.snr_grid_db):
            raise ConfigError(f"snr_grid_db entries must lie in [-{MAX_SNR_DB}, {MAX_SNR_DB}]")
        if not self.bits_grid or any(not 1 <= b <= MAX_BITS for b in self.bits_grid):
            raise ConfigError(f"bits_grid entries must lie in [1, {MAX_BITS}]")
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be at least 1")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
        if not 0 <= self.master_seed < 2**63:
            raise ConfigError("master_seed must be a nonnegative 63-bit integer")


# The config keys are the fields of ExperimentConfig, with the nested power
# model replaced by the fields of PowerModelParams.
_FIELD_TYPES = {**get_type_hints(ExperimentConfig), **get_type_hints(PowerModelParams)}
# The list axes of a sweep are the tuple fields; an entry listed twice is
# evaluated and written once.
_LIST_AXES = tuple(f.name for f in fields(ExperimentConfig) if get_origin(_FIELD_TYPES[f.name]) is tuple)


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


# The noun and plural a type mismatch names for each type a field may declare.
_NOUNS = {str: ("a string", "strings"), int: ("an integer", "integers"), float: ("a number", "numbers"),
          PowerModelParams: ("a PowerModelParams", "PowerModelParams")}


def _is_a(kind, value) -> bool:
    """Whether ``value`` has the declared type ``kind``; an int is one :func:`_is_integer` accepts."""
    if kind is float:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    return _is_integer(value) if kind is int else isinstance(value, kind)


def _as(kind, value):
    """``value`` as ``kind``; an int beyond float range is ±inf, which the finite checks reject."""
    try:
        return kind(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse(kind, key, text):
    """``text`` as the declared type ``kind``; a ``tuple[T, ...]`` parses each
    comma-separated item as T."""
    if get_origin(kind) is tuple:
        return tuple(_parse(get_args(kind)[0], key, item.strip()) for item in text.split(","))
    noun = _NOUNS[kind][0]
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected {noun}, got {text!r}") from None


_POWER_KEYS = frozenset(f.name for f in fields(PowerModelParams))
_KEY_PARSERS = {name: partial(_parse, kind) for name, kind in _FIELD_TYPES.items() if name != "power"}


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
    """Read and parse a UTF-8 config file, BOM allowed; text that is not UTF-8 is a :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config(text)


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


def _grid(config: ExperimentConfig) -> RateGrid:
    rhos = np.array([10.0 ** (snr_db / 10.0) for snr_db in config.snr_grid_db])
    etas = np.array([lloyd_max(bits)[1].eta for bits in config.bits_grid])
    return RateGrid(rhos, config.bits_grid, etas)


def _realize_all(
    config: ExperimentConfig, widths, grid: RateGrid, threads: int = 1, ap: dict | None = None
) -> dict[int, list[ChannelRates]]:
    """Channel states of every realization for each receive-chain count in
    ``widths``; ``ap``, if given, receives :attr:`SweepResult.ap`'s entries.

    Each channel is drawn once, and one alternating-projection batch designs
    the analog precoders of all widths for all realizations.  The thread
    policy of a sweep: if a method reads the exact channel-inversion tables,
    ``min(threads, CPUs) - 1`` worker threads (if any) take table jobs,
    ``ChannelRates._ci_exact_table``, from the front of a queue that each
    analog design joins as soon as AP finishes it; after AP this thread runs
    the unstarted jobs from the back and stores each table as its state's
    ``ci_exact``.  Without workers no thread starts and nothing is queued:
    each table is computed once, when a kernel first reads ``ci_exact``.
    A worker slows AP (README, "Command line").  Every table comes from the
    same calls on the same inputs, so the states do not depend on ``threads``.
    """
    if not widths:
        return {}
    hs = [_channel(config, i) for i in range(config.n_realizations)]
    states = {n: [None] * len(hs) for n in widths}
    exact = any(METHODS[m].reads_ci_exact for m in config.methods)
    # The executor starts a worker only for a job that finds none idle, so
    # never more workers than jobs.
    workers = min(threads, os.cpu_count() or 1) - 1
    pool = ThreadPoolExecutor(workers) if exact and workers > 0 else None
    tables = []  # (state, future) in queue order
    try:
        for n, i, pair in _projection_stream(hs, config.n_rf_tx, widths):
            g = effective_channel(hs[i], pair)
            feasible = ci_feasible(g.singular_values, n)
            state = states[n][i] = ChannelRates(g, hs[i], n, feasible, grid, rate_ci_exact_grid, svd_precoder)
            if ap is not None:
                ap[n, i] = pair.iterations, pair.converged, pair.residual_f, pair.residual_w
            if pool is not None:
                # a worker runs the job in a copy of this thread's context,
                # numpy's error state included
                tables.append((state, pool.submit(copy_context().run, state._ci_exact_table)))
        # Workers take jobs from the front of the queue, so the started ones
        # are a prefix: once a job cannot be cancelled, every job before it
        # has started too, and waiting on it costs nothing.
        for state, job in reversed(tables):
            state.ci_exact = state._ci_exact_table() if job.cancel() else job.result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return states


def _aggregate_rows(samples: np.ndarray) -> tuple[list[float], list[float]]:
    """Mean and standard error of every row of a C-ordered (cells, R) array,
    over the realizations that produced a value (NaN for a row with none).

    Rows without NaN are reduced along the contiguous realization axis at
    once, which sums in the same pairwise order as reducing one row; a row
    with a NaN reduces its valid entries alone.
    """
    n = samples.shape[1]
    means = samples.mean(axis=1)
    stderrs = samples.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(len(samples))
    for i in np.flatnonzero(np.isnan(samples).any(axis=1)):
        valid = samples[i][~np.isnan(samples[i])]
        if valid.size == 0:
            means[i] = stderrs[i] = math.nan
            continue
        means[i] = valid.mean()
        stderrs[i] = valid.std(ddof=1) / np.sqrt(valid.size) if valid.size > 1 else 0.0
    return means.tolist(), stderrs.tolist()


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep computes, before any reduction.

    ``table`` maps ``(n_rf_rx, method)`` to ``(cells, samples, outcomes)``: the
    method's (snr_db, bits) cells, the C-ordered (cells, R) array of their
    rates and the (R,) array of each realization's outcome, one of
    ``rates.OUTCOMES`` by the one rule ``RateMethod.outcome``; both arrays are
    read-only, and a sample is NaN exactly where its outcome is not ``ok``.
    ``power_mw`` maps ``(n_rf_rx, bits)`` to the receiver power of each
    quantized cell, and ``ap`` maps ``(n_rf_rx, realization)`` to the AP
    pair's ``(iterations, converged, residual_f, residual_w)``; a width above
    ``n_rf_tx`` has no analog design, so no AP entry and NaN samples.
    """

    config: ExperimentConfig
    table: dict
    power_mw: dict
    ap: dict

    def records(self) -> list[ResultRecord]:
        """One record per cell, in table order: each row's mean and standard error
        over its non-NaN samples, its power and its energy efficiency."""
        config, records = self.config, []
        for (n_rf_rx, method), (cells, samples, _) in self.table.items():
            means, stderrs = _aggregate_rows(samples)
            for (snr_db, bits), mean, stderr in zip(cells, means, stderrs):
                if bits == 0:  # an unquantized cell: no ADC power and efficiency 0
                    p_mw, ee = 0.0, 0.0
                else:
                    p_mw = self.power_mw[n_rf_rx, bits]
                    ee = math.nan if math.isnan(mean) else energy_efficiency(mean, config.power.bandwidth_hz, p_mw)
                records.append(ResultRecord(
                    experiment=config.experiment, snr_db=snr_db, bits=bits, n_rf_rx=n_rf_rx, method=method,
                    mean_rate_bpshz=mean, rate_stderr=stderr, power_mw=p_mw, ee_bits_per_joule=ee,
                    n_realizations=config.n_realizations, master_seed=config.master_seed,
                ))
        return records


def sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Run the configured sweep and keep every sample, outcome, power and AP design it computes.

    Each realization's channel is drawn once, and alternating projection runs
    once per realization for all receive-chain counts.  A sample without a
    rate is NaN, not an abort.  ``threads``, an integer of at least 1, sizes
    the pool that computes the exact channel-inversion tables beside AP (see
    ``_realize_all``); the result is bit-identical for any count.
    """
    _check_count(threads, "threads")
    ap = {}
    states = _realize_all(config, [n for n in config.n_rf_rx if n <= config.n_rf_tx], _grid(config), threads, ap)
    table = {}
    for n_rf_rx in config.n_rf_rx:
        row = states.get(n_rf_rx, [None] * config.n_realizations)
        for method in config.methods:
            spec = METHODS[method]
            cells = [(snr, b) for snr in config.snr_grid_db for b in spec.cell_bits(config.bits_grid)]
            samples = np.empty((len(cells), config.n_realizations))
            outcomes = np.array([spec.outcome(state) for state in row])
            for r, state in enumerate(row):
                samples[:, r] = math.nan if state is None else spec.kernel(state).ravel()
            samples.flags.writeable = outcomes.flags.writeable = False
            table[n_rf_rx, method] = (cells, samples, outcomes)
    bits = sorted({b for m in config.methods for b in METHODS[m].cell_bits(config.bits_grid) if b})
    power_mw = {(n, b): total_power(config.power, config.n_rx, n, b) for n in config.n_rf_rx for b in bits}
    return SweepResult(config, table, power_mw, ap)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[ResultRecord]:
    """One record per grid cell of the configured sweep: :func:`sweep`, reduced by :meth:`SweepResult.records`."""
    return sweep(config, threads).records()


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
