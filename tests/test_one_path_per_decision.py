"""One path per decision in the link layers.

Channel inversion has one feasibility rule, ``ci_feasible``, and one place
that raises for it, ``_check_invertible``: a G with fewer columns than rows
fails the same rule as an ill-conditioned one, so ``channel_inversion_precoder``
and ``snr_ci`` raise the same error for the same G.  Waterfilling, Lloyd-Max
and the quantizer check have no one-element branch: the general path gives
the same bits, which the former expressions below pin.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import quantlink.digital as digital
from quantlink import (
    QuantizerSpec,
    RankDeficientChannelError,
    channel_inversion_precoder,
    lloyd_max,
    snr_ci,
    waterfill,
)

DIGITAL_PY = Path(digital.__file__)


def former_waterfill(gains, total_power):
    """``waterfill`` before the one-stream branch went, with flags for the
    branches it took: (powers, took the one-stream branch, took the fallback pass)."""
    gains = np.asarray(gains, dtype=float)
    order = np.argsort(-gains, kind="stable")
    inv = 1.0 / gains[order]
    k = gains.size
    one_stream = False
    while k > 1:
        mu = (total_power + inv[:k].sum()) / k
        if mu - inv[k - 1] >= 0:
            break
        k -= 1
    else:
        mu = total_power + inv[0]
        one_stream = True
    powers = np.zeros_like(gains)
    powers[order[:k]] = mu - inv[:k]
    fallback = bool(abs(powers.sum() - total_power) > 1e-9 * total_power)
    if fallback:
        while k > 1 and inv[k - 1] - inv[:k].mean() > total_power / k:
            k -= 1
        powers[:] = 0.0
        powers[order[:k]] = total_power / k - (inv[:k] - inv[:k].mean())
    return powers, one_stream, fallback


def _gain_sets(count=12_000):
    rng = np.random.default_rng(2323)
    for i in range(count):
        gains = 10.0 ** rng.uniform(-12, 12, int(rng.integers(1, 9)))
        if i % 5 == 0:  # ties
            gains[int(rng.integers(gains.size))] = gains[0]
        yield gains, float(10.0 ** rng.uniform(-6, 6))


def test_waterfill_is_its_former_two_branch_code():
    one_stream = fallback = 0
    for gains, total_power in _gain_sets():
        expected, took_one, took_fallback = former_waterfill(gains, total_power)
        assert waterfill(gains, total_power).tobytes() == expected.tobytes()
        one_stream += took_one
        fallback += took_fallback
    # the sets reach both branches the general path now covers
    assert one_stream > 100 and fallback > 100


def test_lloyd_max_one_bit_is_the_newton_fixed_point():
    spec, eta = lloyd_max(1)
    assert [float(x).hex() for x in spec.levels] == ["-0x1.9884533d43651p-1", "0x1.9884533d43651p-1"]
    assert float(spec.levels[1]) == 0.7978845608028654  # sqrt(2 / pi), E[y | y > 0]
    assert float(eta.eta).hex() == "0x1.7419f246c6efap-2"
    assert spec.thresholds.tolist() == [0.0]


def test_one_bit_quantizer_check_takes_the_general_path():
    assert QuantizerSpec(1, [0.0], [-1.0, 1.0]).thresholds.tolist() == [0.0]
    with pytest.raises(ValueError, match="strictly increasing"):
        QuantizerSpec(1, [0.0], [1.0, -1.0])


@pytest.mark.parametrize(
    "g",
    [np.ones((3, 2)), np.diag([1.0, 1e-9]), np.zeros((2, 2))],
    ids=["wide", "ill_conditioned", "zero"],
)
def test_precoder_and_snr_ci_raise_the_same_error(g):
    with pytest.raises(RankDeficientChannelError) as from_precoder:
        channel_inversion_precoder(g)
    with pytest.raises(RankDeficientChannelError) as from_snr:
        snr_ci(g, 1.0)
    assert str(from_precoder.value) == str(from_snr.value)
    assert "fewer" in str(from_precoder.value) and "condition limit" in str(from_precoder.value)


def _functions_raising(name, tree):
    return sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == name
    )


def test_channel_inversion_raises_only_in_the_rule_check():
    tree = ast.parse(DIGITAL_PY.read_text())
    # the SVD precoder's rank check is the one other raise of the error
    assert _functions_raising("RankDeficientChannelError", tree) == ["_check_invertible", "svd_precoder"]
    calls = {
        fn.name: {getattr(n.func, "id", None) for n in ast.walk(fn) if isinstance(n, ast.Call)}
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
    }
    assert "_check_invertible" in calls["channel_inversion_precoder"]
    assert "_check_invertible" in calls["snr_ci"]
