"""``rate_ci_exact_grid`` reads the transition stack whole.

``quantizers._fill_transition_matrices`` alone forms the mirror symmetry of
each transition matrix; the rate kernel takes the logs of the whole stack and
sums every matrix with a positive joint in one reduction per batch.  Only a
matrix whose joint has a zero entry is summed again over its masked terms.
These tests pin the kernel to the scalar oracle bit for bit on batches that
mix both kinds of matrix, and guard the kernel's source against a second
mirror or a per-matrix loop.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import quantlink.rates as rates
from quantlink import build_transition_matrices, build_transition_matrix, discrete_mi, rate_ci_exact_grid

# Far thresholds round erfc to exactly 2, and so the joint to an exact zero,
# from an SNR of about 14 at 2 bits and about 5.6 at 8 bits.
SNRS = np.logspace(-2.0, 4.0, 61)
BATCH_ENTRIES = 3 * 4**8  # three 8-bit matrices per batch, more at fewer bits
N_STREAMS = 3


def batches(bits):
    per_batch = max(1, min(SNRS.size, BATCH_ENTRIES // 4**bits))
    return [SNRS[start : start + per_batch] for start in range(0, SNRS.size, per_batch)]


@pytest.mark.parametrize("bits", range(2, 9))
def test_some_batch_mixes_positive_and_zero_joints(bits):
    mixed = []
    for batch in batches(bits):
        positive = build_transition_matrices(bits, batch).min(axis=(1, 2)) > 0
        if positive.any() and not positive.all():
            mixed.append(batch.size)
    assert mixed and min(mixed) >= 3, mixed


@pytest.mark.parametrize("bits", range(2, 9))
def test_grid_equals_the_scalar_oracle_bitwise(bits, monkeypatch):
    monkeypatch.setattr(rates, "_BATCH_ENTRIES", BATCH_ENTRIES)
    m = 2**bits
    prior = np.full(m, 1.0 / m)
    expected = [2.0 * N_STREAMS * discrete_mi(prior, build_transition_matrix(bits, s)) for s in SNRS]
    got = rate_ci_exact_grid(bits, SNRS, N_STREAMS)
    assert got.tobytes() == np.array(expected).tobytes()


def kernel_tree():
    return ast.parse(inspect.getsource(rates.rate_ci_exact_grid))


def is_mirror(node):
    """A ``[::-1, ::-1]`` subscript: both axes reversed."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
        return False
    steps = [ast.unparse(s.step) if isinstance(s, ast.Slice) and s.step else None for s in node.slice.elts]
    return steps.count("-1") == 2


def test_kernel_takes_no_half_of_the_stack():
    for node in ast.walk(kernel_tree()):
        assert not (isinstance(node, ast.Name) and node.id == "half"), ast.unparse(node)


def test_only_the_builder_forms_the_mirror():
    # so the rate kernel mirrors nothing
    package = Path(rates.__file__).parent
    owners = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(is_mirror(n) for n in ast.walk(func)):
                owners.add((path.name, func.name))
    assert owners == {("quantizers.py", "_fill_transition_matrices")}


def test_the_only_loop_in_a_batch_runs_over_zero_joint_matrices():
    (func,) = kernel_tree().body
    outer = [node for node in func.body if isinstance(node, ast.For)]
    assert len(outer) == 1  # the batch loop
    inner = [node for node in ast.walk(outer[0]) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert inner[0] is outer[0] and len(inner) == 2, [ast.unparse(n) for n in inner]
    call = inner[1].iter
    assert ast.unparse(call.func) == "np.flatnonzero", ast.unparse(call)
    (test,) = call.args
    assert isinstance(test, ast.Compare) and ast.unparse(test.comparators[0]) in ("0", "0.0"), ast.unparse(test)
