"""The quantlink sweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/``.  Workloads are listed in
``workloads.py`` and documented in ``README.md``.

With ``--trace 0`` the end-to-end metrics are measured with tracing off:
``setup_s`` from fresh processes that import quantlink and load the workload
config, the others from one fresh sweep process.  With ``--trace 1`` a sweep
process measures the per-layer metrics.  ``--workload all`` runs every
workload in both modes and prints every metric.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``correct`` is false when an output check fails; a sweep that raises counts
in ``failed`` (and in ``ok_ratio``) but produced no output to be wrong.

Each run writes its results file, ``.perfbench_out/BENCH_<workload>_seed<N>_trace<T>.json``,
with the metrics, their sample counts, the sweep times, every failed check and
sweep error, and the environment.  Child processes run one at a time with BLAS capped at one
thread, so no workload runs more threads than its ``threads`` setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
BLAS_THREAD_CAP = "1"

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of build output
sys.path.insert(0, str(HERE))
from sweep import BLAS_THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """Environment of every child: capped BLAS, bytecode cached inside the checkout."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = BLAS_THREAD_CAP
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def setup_times(workload, seed, probes) -> list[float]:
    """Wall time of fresh processes that import quantlink and load the workload config.

    One unmeasured probe first fills the bytecode cache, as an installed
    package would have it.
    """
    cmd = [
        sys.executable,
        str(HERE / "probe.py"),
        str(ROOT / "src"),
        str(WORKLOADS[workload].config_path),
        str(seed),
    ]
    times = []
    for i in range(probes + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), timeout=60, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return times


def sweep_child(workload, seed, seconds, trace, smoke) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "sweep.py"),
        "--root", str(ROOT),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, env=child_env(), timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sweep process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        if sha.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def metric_specs(trace) -> list[tuple[str, str]]:
    """(name, unit) of the metrics a run reports, in BENCHMARK.json order."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace, smoke=False) -> dict:
    """One benchmark run; writes its results file and returns the result object."""
    setup = [] if trace else setup_times(workload, seed, 1 if smoke else SETUP_PROBES)
    child = sweep_child(workload, seed, seconds, trace, smoke)
    values = dict(child["metrics"])
    samples = dict(child["samples"])
    if not trace:
        values["setup_s"] = statistics.median(setup)
        samples["setup_s"] = len(setup)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_specs(trace)}
    # a sweep that raised is a failed operation, not wrong output
    correct = not child["problems"]
    result = {"correct": correct, "attempted": child["attempted"], "failed": child["failed"], "metrics": metrics}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "result": result,
        "samples": samples,
        "sweep_times_s": child["sweep_times_s"],
        "traced_times_s": child.get("traced_times_s"),
        "setup_times_s": setup,
        "spans_file": child.get("spans_file"),
        "problems": child["problems"],
        "errors": child["errors"],
        "config": child["config"],
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **child["env"],
            "blas_thread_cap": int(BLAS_THREAD_CAP),
            "seed": seed,
            **git_state(),
        },
    }
    path = OUT_DIR / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in child["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in child["errors"]:
        print(f"sweep failed: {error}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one realization, two SNRs: a quick self-test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or not args.seconds > 0:
        parser.error("need 0 <= seed < 2**63 and seconds > 0")
    if not (ROOT / "src" / "quantlink" / "__init__.py").is_file():
        print(f"no quantlink package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    runs = (
        [(w, t) for w in WORKLOADS for t in (0, 1)]
        if args.workload == "all"
        else [(args.workload, args.trace)]
    )
    results = {}
    try:
        for workload, trace in runs:
            results[workload, trace] = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for (workload, trace), result in results.items():
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{workload:<11} {name:<44} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
