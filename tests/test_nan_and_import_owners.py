"""The registry kernel alone turns a missing outcome into NaN, and every
``quantlink`` module imports only what it calls or what perfbench's tracer swaps.

``RateMethod.kernel`` gives NaN for every outcome but ``"ok"``, so the sweep's
sample table records outcomes without deciding on them.  An import that no
code reads stays only while ``perfbench/tracer.py`` wraps it by name: once
its ``WRAPPED`` entry goes, so must the import.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import quantlink
from quantlink import harness

SRC = Path(quantlink.__file__).parent
TRACER_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# tests/test_sample_table.py checks each recorded outcome against harness.OUTCOMES.
READ_BY_TESTS = {("quantlink.harness", "OUTCOMES")}


def _wrapped():
    """The ``(module, name)`` keys of the tracer's ``WRAPPED``, read without importing it."""
    for node in ast.parse(TRACER_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no WRAPPED")


def _unused_imports(path):
    """Names that a module imports but none of its code reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_import_is_read_or_swapped_by_the_tracer():
    kept = _wrapped() | READ_BY_TESTS
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"quantlink.{path.stem}"
        assert {name for name in _unused_imports(path) if (module, name) not in kept} == set(), module


def test_the_sample_table_compares_no_outcome_with_ok():
    tree = ast.parse(textwrap.dedent(inspect.getsource(harness.sweep)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            assert not any(isinstance(x, ast.Constant) and x.value == "ok" for x in operands)
