"""The benchmark's workloads and how a run derives its sweep seeds.

Each workload is a ``quantlink run`` config in ``workloads/`` plus the thread
count it runs with.  A run times a sequence of sweeps of that config; sweep
``k`` of a run with seed ``s`` uses ``master_seed = sweep_seed(s, k)``, so the
same seed gives the same channels, and the sweeps of one run average over
distinct channel sets instead of repeating one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    """A workload config and the thread count it runs with; BENCHMARK.json says why each exists."""

    name: str
    threads: int

    @property
    def config_path(self) -> Path:
        return HERE / "workloads" / f"{self.name}.cfg"


WORKLOADS = {
    w.name: w
    for w in (Workload("snr_ref", 1), Workload("nrf_all_t2", 2), Workload("onebit_ap", 1))
}

GOLDEN_CONFIG = HERE / "workloads" / "golden.cfg"


def sweep_seed(seed: int, k: int) -> int:
    """Master seed of sweep ``k`` in a run with benchmark seed ``seed`` (63-bit)."""
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
