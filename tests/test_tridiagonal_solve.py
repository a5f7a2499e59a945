"""The Lloyd-Max Newton step's tridiagonal solve: bit-identical to LAPACK dgtsv.

``quantizers._solve_tridiagonal`` replaces ``scipy.linalg.solve_banded`` so
that the package never imports ``scipy.linalg``.  These tests hold it to
``solve_banded`` bit for bit, pin the Lloyd-Max outputs it feeds, and guard
the import footprint.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

import quantlink
import quantlink.quantizers as quantizers
from quantlink import MAX_BITS

from conftest import kernel_note

# Lloyd-Max distortion factors of the 1..8-bit fixed points, exactly.
ETA_HEX = {
    1: "0x1.7419f246c6efap-2",
    2: "0x1.e134a564cf548p-4",
    3: "0x1.1b03e7d792af0p-5",
    4: "0x1.37543b564cd00p-7",
    5: "0x1.484ab95992f00p-9",
    6: "0x1.51c46258b9c00p-11",
    7: "0x1.56d6b4d80d000p-13",
    8: "0x1.597c4ac06c000p-15",
}


def _banded(sub, diag, sup, rhs):
    """``solve_banded`` on the same system, laid out as (1, 1) bands."""
    n = len(diag)
    band = np.zeros((3, n))
    band[0, 1:] = sup
    band[1] = diag
    band[2, :-1] = sub
    return solve_banded((1, 1), band, rhs)


def _interchanges(sub, diag, sup):
    """Rows at which dgtsv's elimination swaps rows i and i+1."""
    dl, d, du = list(sub), list(diag), list(sup)
    rows = []
    for i in range(len(d) - 1):
        if abs(d[i]) >= abs(dl[i]):
            d[i + 1] -= dl[i] / d[i] * du[i]
        else:
            rows.append(i)
            fact = d[i] / dl[i]
            d[i], d[i + 1] = dl[i], du[i] - fact * d[i + 1]
            if i < len(d) - 2:
                du[i + 1] = -fact * du[i + 1]
    return rows


@pytest.fixture
def fresh_lloyd_cache():
    quantizers._lloyd_fixed_point.cache_clear()
    yield
    quantizers._lloyd_fixed_point.cache_clear()


def test_every_newton_system_matches_solve_banded(monkeypatch, fresh_lloyd_cache):
    systems = []
    solve = quantizers._solve_tridiagonal

    def capture(sub, diag, sup, rhs):
        systems.append(tuple(np.array(v, dtype=float) for v in (sub, diag, sup, rhs)))
        return solve(sub, diag, sup, rhs)

    monkeypatch.setattr(quantizers, "_solve_tridiagonal", capture)
    for bits in range(1, MAX_BITS + 1):
        quantizers._lloyd_fixed_point(bits)
    assert len(systems) > 100
    swapped = [(len(s[1]), _interchanges(*s[:3])) for s in systems if _interchanges(*s[:3])]
    assert swapped[0] == (4, [2])  # the first 3-bit step swaps rows 2 and 3
    for system in systems:
        x = solve(*system)
        assert x.dtype == np.float64
        assert np.array_equal(x, _banded(*system))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 64])
def test_random_systems_with_row_interchanges(n):
    rng = np.random.default_rng(1000 + n)
    swaps = 0
    for trial in range(40):
        diag = rng.normal(size=n)
        # a subdiagonal up to 10x the diagonal forces interchanges
        sub = rng.normal(size=n - 1) * rng.uniform(0.1, 10.0)
        sup = rng.normal(size=n - 1)
        rhs = rng.normal(size=n)
        if n > 1 and trial % 2 == 0:
            sub[0] = 2.0 * abs(diag[0]) + 1.0  # row 0 always swaps
        swaps += len(_interchanges(sub, diag, sup))
        x = quantizers._solve_tridiagonal(sub, diag, sup, rhs)
        assert np.array_equal(x, _banded(sub, diag, sup, rhs))
    assert swaps >= 20 * (n > 1)


@pytest.mark.parametrize(
    "sub, diag, sup",
    [
        ([], [0.0], []),  # 1x1 zero
        ([0.0, 1.0], [0.0, 2.0, 3.0], [1.0, 1.0]),  # zero first pivot
        ([1.0], [1.0, 1.0], [1.0]),  # rank 1: the last pivot cancels to 0
        ([1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0]),  # row 1 is the sum of rows 0 and 2
    ],
)
def test_singular_system_raises(sub, diag, sup):
    with pytest.raises(np.linalg.LinAlgError):
        quantizers._solve_tridiagonal(sub, diag, sup, np.ones(len(diag)))
    if len(diag) > 1:
        with pytest.raises(np.linalg.LinAlgError):
            _banded(sub, diag, sup, np.ones(len(diag)))


def test_lloyd_max_matches_the_solve_banded_fixed_point(monkeypatch, fresh_lloyd_cache):
    monkeypatch.setattr(quantizers, "_solve_tridiagonal", _banded)
    reference = {b: quantizers._lloyd_fixed_point(b) for b in range(1, MAX_BITS + 1)}
    monkeypatch.undo()
    quantizers._lloyd_fixed_point.cache_clear()
    for bits, (ref_levels, ref_eta) in reference.items():
        levels, eta = quantizers._lloyd_fixed_point(bits)
        assert np.array_equal(levels, ref_levels)
        assert eta.hex() == ref_eta.hex()


@pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
def test_lloyd_max_eta_is_pinned_exactly(bits):
    assert quantizers.lloyd_max(bits)[1].eta.hex() == ETA_HEX[bits], kernel_note()


def test_import_leaves_scipy_linalg_unloaded():
    src = Path(quantlink.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = (
        "import quantlink, quantlink.cli, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
