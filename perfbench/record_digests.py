"""Record the sha256 of each workload's first-sweep CSV for a range of benchmark seeds.

    python3 perfbench/record_digests.py --seeds 0-99

The benchmark compares the CSV of the first sweep of every run against
``digests.json``.  Re-record only for a change that is meant to alter the CSV
bytes, and say so in the change.  Every recorded CSV must also pass the
per-cell invariants of ``checks.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import checks
import sweep
from workloads import HERE, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    # as in every benchmark child; set before quantlink imports numpy
    for var in sweep.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = HERE.parent
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    sweep.import_quantlink(root)

    digests = {}
    bad = 0
    for name, workload in WORKLOADS.items():
        digests[name] = {}
        for seed in range(first, last + 1):
            sweeper = sweep.Sweeper(root, name, seed, False, out_dir)
            config = sweeper.config(0)
            _, _, _, data = sweeper.sweep(config, workload.threads)
            for problem in checks.invariant_problems(data, config):
                print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                bad += 1
            digests[name][str(seed)] = checks.sha256(data)
            print(f"{name} seed {seed}: {digests[name][str(seed)]}", flush=True)
    if bad:
        print(f"{bad} invariant violations; digests not written", file=sys.stderr)
        return 1
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
