"""One owner for each argument rule: positive reals and counts.

Every positive real a public function takes (an SNR, a waterfilling budget
or gain, a power-model value, a bandwidth, the AP tolerance) goes through
``channel._check_positive``, so 0, a negative number, NaN and an array with
one such entry raise "<name> must be positive", and infinity raises "<name>
must be finite", at every site alike.  Every count goes through
``channel._check_count``: ``True``, 1.5 and 0 raise "<name> must be at
least 1".  An ``ast`` scan keeps the rules with their one owner.
"""

import ast
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import quantlink
from quantlink import (
    ClusteredChannelConfig,
    ExperimentConfig,
    PowerModelParams,
    RateQuery,
    alternating_projection,
    build_transition_matrices,
    discrete_mi,
    energy_efficiency,
    matched_stepsize,
    rate_aqnm,
    rate_ci_exact_grid,
    rate_ci_onebit,
    rate_ci_onebit_lb,
    run_experiment,
    snr_ci,
    svd_precoder,
    ub_infinite,
    ub_onebit_loose,
    ub_onebit_tight,
    waterfill,
)
from quantlink.analog import _projection_stream

from conftest import make_channel

G = np.array([[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, 0.3, 0.0]], dtype=complex)
F_BB = np.eye(4, 2)
H = make_channel(0, 8, 4)  # 4 x 8
SMALL = ExperimentConfig(
    n_tx=4, n_rx=2, n_rf_tx=2, n_rf_rx=(1,), snr_grid_db=(0.0,), bits_grid=(1,),
    n_realizations=1, methods=("ci_exact",),
)

# (bad value, the rule it breaks); the arrays hold one bad entry
BAD_REALS = {
    "zero": (0.0, "positive"),
    "negative": (-1.0, "positive"),
    "nan": (math.nan, "positive"),
    "inf": (math.inf, "finite"),
    "numpy_inf": (np.float64(np.inf), "finite"),
    "array_nan": (np.array([1.0, math.nan]), "positive"),
    "array_zero": (np.array([2.0, 0.0, 1.0]), "positive"),
    "array_inf": (np.array([1.0, math.inf]), "finite"),
}

# (name in the message, call with the value x); a grid site gets x after a good entry
POSITIVE_SITES = {
    "matched_stepsize": ("snr", lambda x: matched_stepsize(3, x)),
    "build_transition_matrices": ("snr", lambda x: build_transition_matrices(3, np.append(1.0, x))),
    "rate_ci_exact_grid": ("snr", lambda x: rate_ci_exact_grid(3, np.append(1.0, x), 2)),
    "RateQuery": ("rho", lambda x: RateQuery(x, 2, 3, "ci_exact")),
    "ub_onebit_tight": ("rho", lambda x: ub_onebit_tight(G, x, 2)),
    "ub_onebit_loose": ("rho", lambda x: ub_onebit_loose(G, x, 2)),
    "ub_infinite": ("rho", lambda x: ub_infinite(G, x, 2)),
    "rate_ci_onebit_lb": ("rho", lambda x: rate_ci_onebit_lb(G, x, 2)),
    "rate_ci_onebit": ("rho", lambda x: rate_ci_onebit(G, x, 2)),
    "rate_aqnm": ("rho", lambda x: rate_aqnm(G, F_BB, x, 0.1)),
    "snr_ci": ("rho", lambda x: snr_ci(G, x)),
    "svd_precoder": ("rho", lambda x: svd_precoder(G, x, 2)),
    "waterfill_gains": ("gains", lambda x: waterfill(np.append(1.0, x), 1.0)),
    "waterfill_total_power": ("total_power", lambda x: waterfill([1.0, 2.0], x)),
    "energy_efficiency_power": ("p_tot_mw", lambda x: energy_efficiency(1.0, 1e9, x)),
    "energy_efficiency_bandwidth": ("bandwidth_hz", lambda x: energy_efficiency(1.0, x, 100.0)),
    "ap_epsilon": ("epsilon", lambda x: alternating_projection(H, 2, 2, epsilon=x)),
    "channel_angle_spread": ("angle_spread_deg", lambda x: ClusteredChannelConfig(8, 4, angle_spread_deg=x)),
    **{
        f"power_{f.name}": (f.name, lambda x, name=f.name: PowerModelParams(**{name: x}))
        for f in fields(PowerModelParams)
    },
}


@pytest.mark.parametrize("bad", BAD_REALS)
@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_every_positive_real_is_checked_by_one_rule(site, bad):
    name, call = POSITIVE_SITES[site]
    value, rule = BAD_REALS[bad]
    with pytest.raises(ValueError, match=f"^{name} must be {rule}$"):
        call(value)


# The grid sites take an array, and np.append overflows on an integer beyond
# float range before the rule runs.
GRID_SITES = ("build_transition_matrices", "rate_ci_exact_grid", "waterfill_gains")


@pytest.mark.parametrize("site", [site for site in POSITIVE_SITES if site not in GRID_SITES])
def test_an_integer_beyond_the_largest_double_is_not_finite(site):
    name, call = POSITIVE_SITES[site]
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        call(10**400)


@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_every_positive_real_site_takes_a_good_value(site):
    POSITIVE_SITES[site][1](2.0)


def test_snr_ci_over_an_array_of_rhos_matches_each_scalar():
    rhos = np.array([0.5, 2.0, 40.0])
    assert snr_ci(G, rhos).tolist() == [snr_ci(G, float(r)) for r in rhos]


COUNT_SITES = {
    "max_iter": lambda n: alternating_projection(H, 2, 2, max_iter=n),
    "threads": lambda n: run_experiment(SMALL, threads=n),
}


@pytest.mark.parametrize("n", [True, 1.5, 0, -2, np.float64(2.0)])
@pytest.mark.parametrize("name", COUNT_SITES)
def test_every_count_is_an_integer_of_at_least_one(name, n):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1$"):
        COUNT_SITES[name](n)


def test_counts_take_numpy_integers():
    assert alternating_projection(H, 2, 2, max_iter=np.int64(3)).iterations <= 3
    assert run_experiment(SMALL, threads=np.int32(1)) == run_experiment(SMALL, threads=1)


@pytest.mark.parametrize(
    "prior, transition, message",
    [
        ([math.nan, math.nan], [[1.0, 0.0], [0.0, 1.0]], "prior must be a probability vector"),
        ([0.5, 0.5], [[math.nan, 1.0], [0.0, 1.0]], "transition matrix must be row stochastic"),
        ([0.5, 0.5], [[1.0, 0.0], [math.nan, math.nan]], "transition matrix must be row stochastic"),
    ],
)
def test_discrete_mi_rejects_nan(prior, transition, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        discrete_mi(prior, transition)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: svd_precoder(G, 1.0, True), "n_streams must be in [1, 2], got True"),
        (lambda: svd_precoder(G, 1.0, 1.5), "n_streams must be in [1, 2], got 1.5"),
        (lambda: alternating_projection(H, 2.5, 2), "n_rf_tx must be in [1, 8], got 2.5"),
        (lambda: alternating_projection(H, True, 2), "n_rf_tx must be in [1, 8], got True"),
        (lambda: alternating_projection(H, 2, True), "n_rf_rx must be in [1, 4], got True"),
        (lambda: next(_projection_stream([H], 2, [2, 1.5])), "n_rf_rx must be in [1, 4], got 1.5"),
    ],
)
def test_stream_and_chain_counts_reject_bools_and_fractions(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_stream_and_chain_counts_take_numpy_integers():
    assert svd_precoder(G, 1.0, np.int64(2)).n_streams == 2
    pair = alternating_projection(H, np.int64(2), np.int32(2), max_iter=3)
    assert pair.f_rf.shape == (8, 2) and pair.w_rf.shape == (4, 2)


# --- the rules keep one owner ------------------------------------------------

SRC = Path(quantlink.__file__).parent
OWNER = "channel.py"
HELPERS = ("_check_positive", "_check_count")
# Checks that are not the positive-real rule, kept as written: the sweep
# config's own ConfigError checks and a rate result that must be a number.
KEPT = {
    ("harness.py", "angle_spread_deg must be positive"),
    ("harness.py", "angle_spread_deg must be finite"),
    ("harness.py", "snr_grid_db entries must be finite"),
    ("rates.py", "rate must be finite"),
}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _raised_messages(tree):
    """The message of each ``raise ValueError(...)`` or ``raise ConfigError(...)``;
    an f-string's fields read as ``{}``."""
    for node in ast.walk(tree):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(exc, ast.Call) and exc.args):
            continue
        if getattr(exc.func, "id", None) not in ("ValueError", "ConfigError"):
            continue
        arg = exc.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield arg.value
        elif isinstance(arg, ast.JoinedStr):
            yield "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)


def test_the_rule_helpers_are_defined_once_in_the_channel_module():
    defined = [
        (module, node.name)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in HELPERS
    ]
    assert sorted(defined) == sorted((OWNER, name) for name in HELPERS)


def test_no_module_but_the_owner_writes_the_positive_or_finite_rule_by_hand():
    by_hand = [
        (module, message)
        for module, tree in _modules().items()
        if module != OWNER
        for message in _raised_messages(tree)
        if message.endswith(("must be positive", "must be finite")) and (module, message) not in KEPT
    ]
    assert by_hand == []


def test_the_scan_sees_the_kept_checks():
    # an empty scan would pass the test above vacuously
    found = {(m, msg) for m, tree in _modules().items() for msg in _raised_messages(tree)}
    assert KEPT <= found
