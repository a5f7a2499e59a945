"""Shared fixtures, the OpenBLAS kernel header and the acceptance-suite summary printer."""

import ctypes
import glob
import os

import numpy as np
import pytest

from quantlink import (
    ClusteredChannelConfig,
    alternating_projection,
    effective_channel,
    generate_channel,
)

STD_SYSTEM = dict(n_tx=64, n_rx=8, n_rf_tx=8)


def make_channel(seed, n_tx=64, n_rx=8):
    return generate_channel(
        ClusteredChannelConfig(n_tx, n_rx, 4, 5, 7.5, seed=seed)
    )


class LinkFactory:
    """Builds and caches (channel, precoder pair, effective channel) triples."""

    def __init__(self):
        self._channels = {}
        self._links = {}

    def channel(self, seed):
        if seed not in self._channels:
            self._channels[seed] = make_channel(seed)
        return self._channels[seed]

    def link(self, seed, n_rf_rx, max_iter=1000):
        key = (seed, n_rf_rx)
        if key not in self._links:
            h = self.channel(seed)
            pair = alternating_projection(h, STD_SYSTEM["n_rf_tx"], n_rf_rx, max_iter=max_iter)
            self._links[key] = (h, pair, effective_channel(h, pair))
        return self._links[key]


@pytest.fixture(scope="session")
def links():
    return LinkFactory()


def random_semi_unitary(rng, rows, cols):
    """Exact semi-unitary matrix from the QR of a complex Gaussian draw."""
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a)
    # fix the phase convention so the draw is deterministic in the rng stream
    return q * np.sign(np.diag(r).real)[None, :]


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked on this CPU, or "unknown"."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
        corename = lib.scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    except (IndexError, OSError, AttributeError, UnicodeDecodeError):
        return "unknown"


# The OpenBLAS kernel on which the pinned floating-point bits were recorded.
PINNED_KERNEL = "SkylakeX"


def kernel_note() -> str:
    """Failure text for a pinned-bits assert: the kernel the value was pinned
    on and this run's, since the bits hold per kernel."""
    return f"pinned on OpenBLAS core {PINNED_KERNEL}; this run: {openblas_core()}"


def pytest_report_header(config):
    """Name the BLAS kernel: tests that pin floating-point bits hold per kernel."""
    return f"openblas core: {openblas_core()}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run, and
    the BLAS kernel if ``-q`` hid the header that names it."""
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(f"openblas core: {openblas_core()}")
    lines = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid and report.when in ("call", "setup"):
                name = nodeid.split("::")[-1]
                outcome = "PASS" if status == "passed" else "FAIL"
                if lines.get(name) != "FAIL":
                    lines[name] = outcome
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{lines[name]:4s}  {name}")
