"""Every name that ``quantlink`` exports has a caller, or a stated reason to stay.

A name counts as called when some ``quantlink`` module reads it (a name or
attribute load, or an import) outside its own definition, or when it appears
as a word in ``perfbench/*.py`` or README.md.  The few exported names with no
such caller are listed, each with its reason, in ``UNCALLED_EXPORTS``; any
other uncalled name is code the system does not need.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

import quantlink

SRC = Path(quantlink.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# The exported names that nothing in src/, perfbench/ or README calls.
UNCALLED_EXPORTS = {
    "binary_entropy": "the checked scalar h(p) of the one-bit formulas; "
    "tests compare the one-bit closed forms against it",
    "build_transition_matrices": "the checked front of the batched "
    "transition-matrix builder; the memory, argument and oracle tests call it",
    "channel_inversion_precoder": "the paper's channel-inversion precoder, "
    "kept for a symbol-level simulator of the quantized link",
}


def _reads(path):
    """Names a module reads by name, attribute or import, outside their own def or class."""
    read = set()

    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner, names = enclosing, ()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = enclosing | {child.name}
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                names = (child.id,)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                names = (child.attr,)
            elif isinstance(child, ast.ImportFrom):
                names = [alias.name for alias in child.names]
            read.update(name for name in names if name not in enclosing)
            walk(child, inner)

    walk(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return read


@functools.cache
def _uncalled():
    read = set().union(*(_reads(path) for path in SRC.glob("*.py")))
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    )
    return frozenset(
        name
        for name in quantlink.__all__
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", text)
    )


@pytest.mark.parametrize("name", sorted(quantlink.__all__))
def test_export_has_a_caller_or_a_listed_reason(name):
    assert name not in _uncalled() or name in UNCALLED_EXPORTS


@pytest.mark.parametrize("name", sorted(UNCALLED_EXPORTS))
def test_listed_export_is_exported_and_has_no_caller(name):
    assert name in quantlink.__all__
    assert name in _uncalled()
