"""One path per rate method.

``rate_ci_onebit``, ``ub_onebit_tight`` and ``ub_infinite`` are one-point
calls of their ``METHODS`` kernel through ``evaluate``, so each method's
stream-count rule and formula are written once; ``rate_ci_fano`` checks its
arguments as ``rate_ci_exact_grid`` does and computes the bound with the
``ci_fano`` kernel's helpers.  Every routed value is bit for bit the one its
former hand-written expression gave.  An ``ast`` scan keeps the bound
formulas from being called outside their owners again.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import quantlink.rates as rates
from quantlink import (
    RateQuery,
    evaluate,
    pam_error_probability,
    rate_ci_exact,
    rate_ci_fano,
    rate_ci_onebit,
    snr_ci,
    ub_infinite,
    ub_onebit_loose,
    ub_onebit_tight,
)
from quantlink.channel import _matrix
from quantlink.rates import _fano_rate, _infinite_bound, _onebit_bound, _onebit_rate_from_snr

RATES_PY = Path(rates.__file__)

G = np.array([[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, 0.3, 0.0]], dtype=complex)  # 2 x 4
RHOS = np.logspace(-30, 30, 121).tolist()


def _channels():
    rng = np.random.default_rng(1903)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            m = n + int(rng.integers(0, 3))
            yield _matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))


CHANNELS = list(_channels())

# method: (its routed function, the expression that function computed before routing)
ROUTED = {
    "ci_onebit": (rate_ci_onebit, lambda g, rho, n: _onebit_rate_from_snr(snr_ci(g, rho), n)),
    "ub_onebit_tight": (ub_onebit_tight, lambda g, rho, n: _onebit_bound(g.singular_values[0], rho, n)),
    "ub_infinite": (ub_infinite, lambda g, rho, n: _infinite_bound(g.singular_values[0], rho, n)),
}


@pytest.mark.parametrize("method", ROUTED)
def test_routed_function_is_evaluate_and_its_former_expression(method):
    func, former = ROUTED[method]
    for g in CHANNELS:
        n = g.entries.shape[0]
        for rho in RHOS:
            value = func(g, rho, n)
            assert value.method == method
            got = float(value)
            assert got == float(evaluate(RateQuery(rho, n, 1, method), g))
            assert got == float(former(g, rho, n))


@pytest.mark.parametrize("bits", range(1, 9))
def test_fano_rate_is_its_former_expression(bits):
    for n in (1, 3):
        for snr in np.logspace(-30, 30, 241).tolist():
            former = float(_fano_rate(bits, pam_error_probability(bits, snr), n))
            assert float(rate_ci_fano(bits, snr, n)) == former


CHAIN_COUNT = r"n_streams \(7\) must equal the effective channel's receive-chain count \(2\)$"
ANTENNA_COUNT = r"n_rf_rx \({}\) cannot exceed the channel's receive-antenna count \(2\)$"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: ub_onebit_tight(G, 10.0, 7), CHAIN_COUNT, id="tight-7-of-2"),
        pytest.param(lambda: ub_infinite(G, 10.0, 7), CHAIN_COUNT, id="infinite-7-of-2"),
        pytest.param(lambda: ub_onebit_tight(G, 10.0, 1), r"n_streams \(1\) must equal", id="tight-1-of-2"),
        pytest.param(lambda: rate_ci_onebit(G[:1], 10.0, True), "n_streams must be at least 1$", id="onebit-True"),
        pytest.param(lambda: ub_onebit_loose(G, 10.0, 7), ANTENNA_COUNT.format(7), id="loose-7-of-2"),
        pytest.param(lambda: ub_onebit_loose(G, 10.0, 3), ANTENNA_COUNT.format(3), id="loose-3-of-2"),
        pytest.param(lambda: rate_ci_fano(2, math.inf, 1), "snr must be finite$", id="fano-inf"),
        pytest.param(lambda: rate_ci_fano(2, 0.0, 1), "snr must be positive$", id="fano-zero"),
        pytest.param(lambda: rate_ci_fano(2, -1.0, 1), "snr must be positive$", id="fano-negative"),
        pytest.param(lambda: rate_ci_fano(2, math.nan, 1), "snr must be positive$", id="fano-nan"),
    ],
)
def test_a_count_or_snr_the_link_cannot_have_raises(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


@pytest.mark.parametrize(
    "bits, snr, n_streams",
    [(0, 1.0, 1), (9, 1.0, 1), (2.5, 1.0, 1), (True, 1.0, 1), (2, 1.0, 0), (2, 1.0, True),
     (0, -1.0, 0), (2, -1.0, 0), (2, math.inf, 1.5)],
)
def test_fano_and_exact_rates_check_their_arguments_alike(bits, snr, n_streams):
    with pytest.raises(ValueError) as exact:
        rate_ci_exact(bits, snr, n_streams)
    with pytest.raises(ValueError, match=f"^{re.escape(str(exact.value))}$"):
        rate_ci_fano(bits, snr, n_streams)


def _owners(tree):
    """Each top-level function or assignment of a module, by the name it defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _callers(tree, helper):
    return {
        name
        for name, node in _owners(tree)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == helper
    }


# each formula helper of rates.py and the only definitions that may call it
FORMULA_CALLERS = {
    "_onebit_bound": {"METHODS", "_ub_onebit_loose_kernel", "ub_onebit_loose", "rate_ci_onebit_lb"},
    "_infinite_bound": {"METHODS"},
    "_onebit_rate_from_snr": {"_onebit_bound", "_ci_onebit_kernel", "rate_ci_exact_grid"},
    "_fano_rate": {"_ci_fano_kernel", "rate_ci_fano"},
}


@pytest.mark.parametrize("helper", FORMULA_CALLERS)
def test_formula_helpers_are_called_only_by_their_owners(helper):
    callers = _callers(ast.parse(RATES_PY.read_text()), helper)
    assert callers <= FORMULA_CALLERS[helper], sorted(callers - FORMULA_CALLERS[helper])
    assert callers, f"{helper} is no longer called"


def test_routed_functions_call_evaluate():
    callers = _callers(ast.parse(RATES_PY.read_text()), "evaluate")
    assert {"rate_ci_onebit", "ub_onebit_tight", "ub_infinite"} <= callers
