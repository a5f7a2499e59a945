"""``RateMethod.outcome`` is the one rule for a realization without a rate.

A method declares the ``ChannelRates`` flag it needs; ``outcome`` maps a state
to one of ``rates.OUTCOMES``, the method's ``kernel`` gives NaN cells without
running its formula unless the outcome is ``"ok"``, and ``evaluate`` raises
an error that names the outcome.  No kernel, and no code in the sweep, tests
the flags again.
"""

import ast
import inspect

import numpy as np
import pytest

import quantlink.harness as harness
import quantlink.rates as rates
from quantlink import RankDeficientChannelError, RateQuery, evaluate
from quantlink.rates import METHODS, ChannelRates, RateMethod

from test_sweep_core import channel_rates


def rank_one():
    """A rank-one 3 x 8 channel: neither channel inversion nor the SVD precoder can drive 3 streams."""
    rng = np.random.default_rng(3)
    u = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    v = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    return u @ v


def refuse(x: ChannelRates) -> np.ndarray:
    raise AssertionError("the formula ran on a state without its flag")


@pytest.fixture
def needs_ci(monkeypatch):
    monkeypatch.setitem(METHODS, "needs_ci", RateMethod("bits", refuse, needs="ci_feasible"))
    return METHODS["needs_ci"]


def test_a_state_without_the_flag_gets_nan_cells_without_the_formula(needs_ci):
    state = channel_rates(rank_one(), 3, bits=(1, 3, 5), snr_db=(-10.0, 0.0, 10.0))
    assert not state.ci_feasible
    assert needs_ci.outcome(state) == "ci_ill_conditioned"
    rates_ = needs_ci.kernel(state)
    assert rates_.shape == (3, 3) and np.isnan(rates_).all()


def test_evaluate_names_the_outcome_before_the_formula_runs(needs_ci):
    with pytest.raises(RankDeficientChannelError, match="ci_ill_conditioned"):
        evaluate(RateQuery(1.0, 3, 3, "needs_ci"), rank_one())


def test_evaluate_names_a_rank_deficient_channel():
    with pytest.raises(RankDeficientChannelError, match="rank_deficient"):
        evaluate(RateQuery(1.0, 3, 3, "aqnm_svd"), rank_one())


def test_the_outcomes_live_in_rates_and_the_sweep_reads_them_back():
    assert harness.OUTCOMES is rates.OUTCOMES
    assert not hasattr(harness, "_outcome") and not hasattr(harness, "_LACKS")
    assert RateMethod("onebit", refuse).outcome(None) == "infeasible_width"


def test_rates_reads_the_flags_only_where_the_exact_table_is_built():
    """Only ``_ci_exact_table`` reads a flag: ``hybrid`` reads that table on CI-infeasible states."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr in ("ci_feasible", "full_rank"):
                yield scope
            yield from walk(child, inner)

    sites = list(walk(ast.parse(inspect.getsource(rates)), ""))
    assert sites == ["ChannelRates._ci_exact_table"]
