"""Output checks on the CSV a sweep writes.

``invariant_problems`` holds for any seed at the commit that defined the
benchmark; ``digest_problem`` pins the exact bytes for the seeds recorded in
``digests.json`` (regenerate it with ``record_digests.py`` only when a change
is meant to alter the CSV).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

from workloads import HERE

DIGESTS_PATH = HERE / "digests.json"

BITS_GRID_METHODS = ("ci_exact", "ci_fano", "aqnm_svd", "hybrid")
ONE_BIT_METHODS = ("ci_onebit", "ub_onebit_tight", "ub_onebit_loose")
# Methods whose every realization yields a value, so their cells are never NaN.
ALWAYS_FINITE = ("aqnm_svd", "hybrid", "ub_onebit_tight", "ub_onebit_loose", "ub_infinite")

# CSV floats carry 10 significant digits.
REL_TOL = 1e-9
# The two one-bit channel-inversion paths compute SNR_CI differently (explicit
# inverse against singular values); they agree to about 1e-7 relative.
CI_ONEBIT_REL_TOL = 1e-4


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_rows(config) -> int:
    per_nrf = 0
    for method in config.methods:
        if method in BITS_GRID_METHODS:
            per_nrf += len(config.snr_grid_db) * len(config.bits_grid)
        else:
            per_nrf += len(config.snr_grid_db)
    return per_nrf * len(config.n_rf_rx)


def _leq(a, b, rel=REL_TOL) -> bool:
    return a <= b + rel * max(abs(a), abs(b)) + 1e-12


def invariant_problems(data: bytes, config) -> list[str]:
    """Per-cell invariants of one sweep's CSV; returns one message per violation."""
    rows = list(csv.DictReader(io.StringIO(data.decode("ascii"))))
    problems = []
    if len(rows) != expected_rows(config):
        problems.append(f"{len(rows)} rows, expected {expected_rows(config)}")
    cells = {}
    for row in rows:
        if (
            row["experiment"] != config.experiment
            or int(row["master_seed"]) != config.master_seed
            or int(row["n_realizations"]) != config.n_realizations
        ):
            problems.append(f"row tags do not match the config: {row}")
            break
        snr, bits, nrf = float(row["snr_db"]), int(row["bits"]), int(row["n_rf_rx"])
        method = row["method"]
        rate = float(row["mean_rate_bpshz"])
        power, ee = float(row["power_mw"]), float(row["ee_bits_per_joule"])
        cells[(snr, bits, nrf, method)] = rate
        where = f"{method} at snr={snr:g} bits={bits} n_rf_rx={nrf}"
        if method in ALWAYS_FINITE and not math.isfinite(rate):
            problems.append(f"{where}: rate {rate} is not finite")
        if rate < 0:
            problems.append(f"{where}: negative rate {rate}")
        capped = method in ONE_BIT_METHODS + ("ci_exact", "ci_fano")
        if capped and math.isfinite(rate) and not _leq(rate, 2 * nrf * bits):
            problems.append(f"{where}: rate {rate} above the 2*n_rf_rx*bits ceiling")
        if bits == 0:
            if (power, ee) != (0.0, 0.0):
                problems.append(f"{where}: unquantized row has power {power}, ee {ee}")
        elif math.isfinite(rate):
            want = rate * config.power.bandwidth_hz / (power * 1e-3)
            if abs(ee - want) > 1e-8 * want + 1e-12:
                problems.append(f"{where}: energy efficiency {ee} != rate*B/P = {want}")
    for (snr, bits, nrf, method), rate in cells.items():
        where = f"snr={snr:g} bits={bits} n_rf_rx={nrf}"
        if method == "hybrid":
            svd = cells.get((snr, bits, nrf, "aqnm_svd"))
            if svd is not None and not rate >= svd:
                problems.append(f"{where}: hybrid {rate} below aqnm_svd {svd}")
        if method == "ci_fano":
            exact = cells.get((snr, bits, nrf, "ci_exact"))
            if exact is not None and math.isfinite(rate) and not _leq(rate, exact):
                problems.append(f"{where}: Fano bound {rate} above the exact rate {exact}")
        if method == "ci_onebit":
            exact = cells.get((snr, 1, nrf, "ci_exact"))
            if exact is not None and math.isfinite(rate) and not math.isclose(
                rate, exact, rel_tol=CI_ONEBIT_REL_TOL
            ):
                problems.append(f"{where}: ci_onebit {rate} differs from ci_exact at 1 bit {exact}")
    return problems


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="ascii") as fh:
        return json.load(fh)


def digest_problem(digests: dict, workload: str, seed: int, data: bytes):
    """``None`` if the CSV matches the recorded digest or none is recorded."""
    want = digests.get(workload, {}).get(str(seed))
    if want is not None and sha256(data) != want:
        return f"{workload} seed {seed}: CSV sha256 {sha256(data)} != recorded {want}"
    return None
