"""Child process of the benchmark: times quantlink sweeps and checks their output.

    python3 perfbench/sweep.py --root ROOT --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Imports quantlink from ``ROOT/src`` and follows the path of ``quantlink run``:
``load_config`` -> ``run_experiment`` -> ``emit_csv``.  Sweeps run one after
another until ``--seconds`` have passed (at least one).  With ``--trace 1``
the first half of the time runs untraced sweeps and the second half the same
sweeps traced.  The last line of stdout is one JSON object with the metrics,
the sweep counts, every check that failed (``problems``) and every sweep that
raised (``errors``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
from tracer import EMIT_CSV, Tracer, layer_metrics
from workloads import GOLDEN_CONFIG, WORKLOADS, sweep_seed

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_quantlink(root: Path):
    """Import quantlink from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import quantlink

    if not Path(quantlink.__file__).resolve().is_relative_to(src):
        raise ImportError(f"quantlink imported from {quantlink.__file__}, not from {src}")
    return quantlink


class Sweeper:
    """Runs sweeps of one workload and tallies attempts, failures, wrong output and errors."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool, out_dir: Path):
        from quantlink.harness import emit_csv, load_config, run_experiment

        self.run_experiment, self.emit_csv, self.load_config = run_experiment, emit_csv, load_config
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.csv_path = out_dir / f"{workload}.csv"
        base = load_config(self.workload.config_path)
        if smoke:
            base = dataclasses.replace(base, n_realizations=1, snr_grid_db=base.snr_grid_db[:2])
        self.base = base
        self.digests = {} if smoke else checks.load_digests()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []

    def config(self, k: int):
        return dataclasses.replace(
            self.base, master_seed=sweep_seed(self.seed, k), output_path=str(self.csv_path)
        )

    def sweep(self, config, threads, tracer=None):
        """One timed sweep; returns (start, end, records, CSV bytes)."""
        emit_span = tracer.span(EMIT_CSV) if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        records = self.run_experiment(config, threads=threads)
        with emit_span:
            self.emit_csv(records, config.output_path)
        end = time.perf_counter()
        return start, end, records, Path(config.output_path).read_bytes()

    def attempt(self, label, fn, check_only=False):
        """Run one sweep plus its checks; a raise or any problem fails it.

        Problems are wrong output.  A raise is a failed operation, recorded in
        ``errors``; it counts as wrong output only for a run that exists to
        check output (``check_only``).
        """
        self.attempted += 1
        try:
            result, problems = fn()
        except Exception:  # noqa: BLE001 - a failed sweep is counted, not fatal
            result, problems = None, []
            error = f"{label}: {traceback.format_exc().strip()}"
            (self.problems if check_only else self.errors).append(error)
            self.failed += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])
        return result

    def golden(self):
        config = dataclasses.replace(
            self.load_config(GOLDEN_CONFIG), output_path=str(self.csv_path)
        )
        _, _, _, data = self.sweep(config, 1)
        want = (self.root / "tests" / "data" / "golden_small.csv").read_bytes()
        return None, [] if data == want else ["golden mini config does not reproduce golden_small.csv"]

    def loop(self, seconds, reference=None, tracer=None):
        """Sweeps k = 0, 1, ... until ``seconds`` pass.

        Returns {k: (start, end, records, NaN cells, CSV sha256)} and keeps no
        records, so the process holds one sweep's output at a time.

        ``reference`` maps k to the CSV sha256 an earlier untraced sweep of the
        same config wrote; a traced sweep must write the same bytes.
        """
        done = {}
        begin = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - begin < seconds:
            def one(k=k):
                config = self.config(k)
                if tracer is not None:
                    tracer.run_id = k
                start, end, records, data = self.sweep(config, self.workload.threads, tracer)
                problems = checks.invariant_problems(data, config)
                sha = checks.sha256(data)
                if k == 0:
                    bad = checks.digest_problem(self.digests, self.workload.name, self.seed, data)
                    problems += [bad] if bad else []
                if reference is not None and k in reference and reference[k] != sha:
                    problems.append("traced sweep wrote other bytes than the untraced one")
                n_nan = sum(math.isnan(r.mean_rate_bpshz) for r in records)
                return (start, end, len(records), n_nan, sha), problems

            result = self.attempt(f"sweep {k}", one)
            if result is not None:
                done[k] = result
            k += 1
        return done

    def thread_equivalence(self, sha0):
        """The multi-threaded workload must write the same bytes with one thread."""
        _, _, _, data = self.sweep(self.config(0), 1)
        ok = checks.sha256(data) == sha0
        return None, [] if ok else ["threads=1 wrote other bytes than threads=%d" % self.workload.threads]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import_quantlink(args.root)
    result = measure(args.root, args.workload, args.seed, args.seconds, args.trace, args.smoke, args.out_dir)
    print(json.dumps(result))
    return 0


def measure(root, workload, seed, seconds, trace, smoke, out_dir) -> dict:
    """Run the workload and return metrics, counts, problems and environment."""
    sweeper = Sweeper(root, workload, seed, smoke, out_dir)
    sweeper.attempt("golden", sweeper.golden, check_only=True)
    budget = seconds / 2 if trace else seconds
    untraced = sweeper.loop(budget)
    times = [end - start for start, end, *_ in untraced.values()]
    out = {"env": environment(), "sweep_times_s": times}

    if 0 in untraced and sweeper.workload.threads > 1:
        sweeper.attempt("threads=1", lambda: sweeper.thread_equivalence(untraced[0][-1]), check_only=True)

    if trace:
        reference = {k: v[-1] for k, v in untraced.items()}
        with Tracer() as tracer:
            traced = sweeper.loop(budget, reference, tracer)
        paired = [(traced[k][1] - traced[k][0]) - (untraced[k][1] - untraced[k][0]) for k in traced if k in untraced]
        sweeps = [(k, *v[:-1]) for k, v in traced.items()]
        if not sweeps or not paired:
            raise RuntimeError("no traced sweep completed")
        metrics = layer_metrics(tracer, sweeps, statistics.median(paired))
        traced_mean = statistics.fmean(end - start for _, start, end, _, _ in sweeps)
        attributed = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
        if not math.isclose(attributed, traced_mean, rel_tol=1e-9):
            sweeper.problems.append(f"self times sum to {attributed}, traced sweep is {traced_mean}")
        spans_path = out_dir / f"spans_{workload}_seed{seed}.csv.gz"
        tracer.write(spans_path)
        out["traced_times_s"] = [end - start for _, start, end, _, _ in sweeps]
        out["spans_file"] = spans_path.name
        out["samples"] = {"per_layer": len(sweeps), "trace.overhead_s": len(paired)}
    else:
        if not times:
            raise RuntimeError("no sweep completed")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok = (sweeper.attempted - sweeper.failed) / sweeper.attempted
        metrics = {"sweep_s": statistics.median(times), "peak_rss_mb": rss_mb, "ok_ratio": ok}
        out["samples"] = {"sweep_s": len(times), "peak_rss_mb": 1, "ok_ratio": sweeper.attempted}

    out.update(
        metrics=metrics,
        attempted=sweeper.attempted,
        failed=sweeper.failed,
        problems=sweeper.problems,
        errors=sweeper.errors,
        config={
            "n_realizations": sweeper.base.n_realizations,
            "threads": sweeper.workload.threads,
            "first_master_seed": sweeper.config(0).master_seed,
        },
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
