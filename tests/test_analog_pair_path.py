"""The sweep designs its analog pairs on one path.

``harness._realize_all`` iterates ``analog._projection_stream`` itself, and
no second route from a config to a channel state sits beside it.  A test that replaces the
pair designer replaces ``harness._projection_stream``, the generator the sweep
calls, so every harness global that a test swaps is a name the sweep calls
or passes on, and none is compared by identity.
"""

import ast
import inspect
import textwrap
from pathlib import Path

from quantlink import analog, harness

TESTS = Path(__file__).resolve().parent
HARNESS_TREE = ast.parse(inspect.getsource(harness))


def _swapped_harness_names():
    """``name -> test file`` for every ``monkeypatch.setattr(harness, "name", ...)`` under tests/."""
    names = {}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setattr"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "harness"
                and isinstance(node.args[1], ast.Constant)
            ):
                names.setdefault(node.args[1].value, path.name)
    return names


def _called_or_passed():
    """Names that harness.py calls or passes as a call argument."""
    names = set()
    for node in ast.walk(HARNESS_TREE):
        if isinstance(node, ast.Call):
            for x in (node.func, *node.args, *(k.value for k in node.keywords)):
                if isinstance(x, ast.Name):
                    names.add(x.id)
    return names


def _compared_by_identity():
    """Names and attribute names that harness.py puts on either side of ``is`` or ``is not``."""
    names = set()
    for node in ast.walk(HARNESS_TREE):
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            for x in (node.left, *node.comparators):
                if isinstance(x, ast.Name):
                    names.add(x.id)
                elif isinstance(x, ast.Attribute):
                    names.add(x.attr)
    return names


def test_realize_all_iterates_the_projection_stream():
    assert "analog" not in vars(harness)
    assert "alternating_projections" not in vars(harness)
    assert not hasattr(analog, "alternating_projections")
    assert "_realize" not in vars(harness)
    assert "_pair_stream" not in vars(harness)
    tree = ast.parse(textwrap.dedent(inspect.getsource(harness._realize_all)))
    called = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_projection_stream" in called


def test_every_swapped_harness_global_is_called_and_never_compared():
    swapped = _swapped_harness_names()
    assert swapped
    compared, used = _compared_by_identity(), _called_or_passed()
    assert {name: path for name, path in swapped.items() if name in compared} == {}
    assert {name: path for name, path in swapped.items() if name not in used} == {}
