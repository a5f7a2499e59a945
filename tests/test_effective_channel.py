"""The effective channel G = W_RF^* H F_RF is a ChannelMatrix, owned by quantlink.channel."""

import ast
import inspect
import pathlib

import numpy as np
import pytest

from quantlink import analog, channel, digital, rates
from quantlink.analog import alternating_projection, effective_channel
from quantlink.channel import ChannelMatrix, ClusteredChannelConfig, generate_channel


@pytest.fixture
def h():
    return generate_channel(ClusteredChannelConfig(16, 4, seed=11))


def test_effective_channel_is_a_channel_matrix(h):
    pair = alternating_projection(h, 2, 2)
    g = effective_channel(h, pair)
    assert isinstance(g, ChannelMatrix)
    assert g.entries.shape == (2, 2)
    np.testing.assert_array_equal(
        g.singular_values, np.linalg.svd(g.entries, compute_uv=False)
    )
    assert isinstance(effective_channel(h.entries, pair.w_rf, pair.f_rf), ChannelMatrix)


def test_effective_channel_gets_the_construction_checks_of_h():
    entries = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
    assert ChannelMatrix(entries).entries.shape == (2, 2)
    with pytest.raises(ValueError, match="entries must be finite"):
        ChannelMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_one_matrix_type_under_both_names():
    g = ChannelMatrix([[1.0, 2.0, 0.5]])
    assert type(g) is ChannelMatrix
    assert not hasattr(g, "shape")


def _imported_modules(module):
    """(module, level) of every import statement in a module's source."""
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, 0


@pytest.mark.parametrize("module", [digital, rates])
def test_digital_and_rates_do_not_import_the_analog_layer(module):
    for name, level in _imported_modules(module):
        assert not (level == 1 and name == "analog"), module.__name__
        assert name != "quantlink.analog", module.__name__


def test_matrix_helpers_live_in_channel():
    assert not hasattr(analog, "_spectrum")
    for path in pathlib.Path(channel.__file__).parent.glob("*.py"):
        if path.name == "channel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in ("_entries", "_spectrum", "_matrix"), path.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id not in ("_entries", "_spectrum", "_matrix"), path.name
    assert not hasattr(digital, "_spectrum")
    assert not hasattr(rates, "_spectrum")
