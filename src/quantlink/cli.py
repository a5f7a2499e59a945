"""Command line entry points.

    quantlink run --config sim.cfg [--out results.csv] [--seed 7] [--threads 4]
    quantlink validate --config sim.cfg
    quantlink tables

Exit codes: 0 on success, 1 on configuration errors (a --seed or --threads
that is not an integer included), 2 on runtime errors.  The thread count
defaults to 1; how threads are used is stated in ``harness._realize_all``,
and the CSV bytes never depend on the thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import ConfigError, emit_csv, load_config, run_experiment
from .quantizers import MAX_BITS, high_resolution_distortion, lloyd_max


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantlink",
        description="Rate and energy-efficiency sweeps for hybrid receivers with few-bit ADCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write a CSV")
    run.add_argument("--config", required=True, help="path to the experiment config file")
    run.add_argument("--out", help="output CSV path (overrides output_path in the config)")
    run.add_argument("--seed", help="master seed override (an integer)")
    run.add_argument(
        "--threads",
        default="1",
        help="threads for the exact-rate tables (see the README's Command line "
        "section); the output does not depend on it",
    )

    val = sub.add_parser("validate", help="check a config file and exit")
    val.add_argument("--config", required=True, help="path to the experiment config file")

    sub.add_parser("tables", help="print Lloyd-Max distortion factors and levels for 1..8 bits")
    return parser


def _integer(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=_integer(args.seed, "--seed"))
        if args.out is not None:
            config = dataclasses.replace(config, output_path=args.out)
        threads = _integer(args.threads, "--threads")
        if threads < 1:
            raise ConfigError("--threads must be at least 1")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        records = run_experiment(config, threads=threads)
        emit_csv(records, config.output_path)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(records)} records to {config.output_path}")
    return 0


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(f"config OK: experiment={config.experiment}, "
          f"{config.n_realizations} realizations, master_seed={config.master_seed}")
    return 0


def _cmd_tables(args) -> int:
    print("bits  eta                high_res_approx     levels")
    for bits in range(1, MAX_BITS + 1):
        spec, dist = lloyd_max(bits)
        levels = " ".join(f"{lv:.12g}" for lv in spec.levels)
        print(f"{bits:<5d} {dist.eta:<18.12g} {high_resolution_distortion(bits):<19.12g} {levels}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_validate, "tables": _cmd_tables}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
