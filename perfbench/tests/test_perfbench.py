"""The benchmark's own tests: tiny smoke runs, metric names, tracer hygiene and attribution."""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, sweep_seed  # noqa: E402

sweep.import_quantlink(ROOT)

import quantlink  # noqa: E402
import quantlink.harness  # noqa: E402
import quantlink.rates  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _globals():
    return {m.__name__: dict(vars(m)) for m in (quantlink.harness, quantlink.rates)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct(workload, trace, tmp_path):
    before = _globals()
    result = sweep.measure(ROOT, workload, 7, 0.01, trace, True, tmp_path)
    after = _globals()
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] >= 2
    # the tracer restores every module global it replaced
    for module, names in before.items():
        assert after[module].keys() == names.keys()
        assert all(after[module][k] is v for k, v in names.items())
    metrics = result["metrics"]
    if trace:
        assert metrics["harness.self_s"] >= 0
        assert all(v >= 0 for k, v in metrics.items() if k.endswith((".self_s", ".calls")))
        assert metrics["harness.records"] > 0
        assert (tmp_path / result["spans_file"]).stat().st_size > 0
    else:
        assert metrics["ok_ratio"] == 1.0 and metrics["sweep_s"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_benchmark_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "onebit_ap", "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_per_layer_spec_matches_tracer():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.PER_LAYER


def test_self_times_split_concurrent_spans_evenly():
    def span(name, start, end, thread):
        s = tracer.Span(name, tracer.ROOT, 0, thread)
        s.start, s.end = start, end
        return s

    spans = [
        span("analog.ap", 1.0, 5.0, thread=1),
        span("analog.ap", 3.0, 7.0, thread=2),
        span("rates.ci_exact", 8.0, 9.0, thread=0),
        span("rates.discrete_mi", 8.25, 8.75, thread=0),
    ]
    times = tracer.self_times(spans, 0.0, 10.0)
    # 1-3 and 5-7 single AP threads, 3-5 shared; nesting inside ci_exact
    assert times == pytest.approx(
        {"analog.ap": 6.0, "rates.ci_exact": 0.5, "rates.discrete_mi": 0.5, "harness": 3.0}
    )
    assert sum(times.values()) == pytest.approx(10.0)


def test_pool_worker_spans_get_their_own_stack():
    t = tracer.Tracer()
    slow = t.wrap("channel.generate", lambda: time.sleep(0.01))
    outer = t.wrap("rates.aqnm", lambda: [th.start() or th.join() for th in threads])
    threads = [threading.Thread(target=slow) for _ in range(2)]
    outer()
    workers = [s for s in t.spans if s.name == "channel.generate"]
    # a worker's span does not nest under the span open in the spawning thread
    assert len(workers) == 2 and all(s.parent == tracer.ROOT for s in workers)


def test_a_raising_sweep_is_a_failure_not_wrong_output(tmp_path):
    sweeper = sweep.Sweeper(ROOT, "snr_ref", 5, True, tmp_path)

    def rank_deficient(config, threads):
        raise quantlink.RankDeficientChannelError("effective channel rank is below 8")

    sweeper.run_experiment = rank_deficient
    assert sweeper.loop(0.0) == {}
    assert (sweeper.attempted, sweeper.failed) == (1, 1)
    assert sweeper.problems == [] and "RankDeficientChannelError" in sweeper.errors[0]


def test_invariants_flag_a_tampered_csv(tmp_path):
    sweeper = sweep.Sweeper(ROOT, "nrf_all_t2", 5, True, tmp_path)
    config = sweeper.config(0)
    _, _, _, data = sweeper.sweep(config, 1)
    assert checks.invariant_problems(data, config) == []
    lines = data.decode().splitlines()
    header, rows = lines[0], lines[1:]
    hybrid = next(i for i, r in enumerate(rows) if ",hybrid," in r)
    fields = rows[hybrid].split(",")
    fields[5] = "0"  # hybrid rate below aqnm_svd
    tampered = "\n".join([header] + rows[:hybrid] + [",".join(fields)] + rows[hybrid + 1:-1]) + "\n"
    problems = checks.invariant_problems(tampered.encode(), config)
    assert any("hybrid" in p for p in problems) and any("rows" in p for p in problems)


def test_sweep_seeds_are_distinct_and_63_bit():
    seeds = {sweep_seed(s, k) for s in range(3) for k in range(50)}
    assert len(seeds) == 150 and all(0 <= s < 2**63 for s in seeds)
