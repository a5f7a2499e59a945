"""The precoder design path does each step once.

Alternating projection (AP) steps the precoder stack and every combiner stack
through one helper, ``analog._project``, and keeps one record per combiner
width.  ``waterfill`` picks its active set with one rule, which the fallback
pass applies again to each 1/g_i measured from the strongest stream's, and
gives finite powers for subnormal and ulp-close gains.  Both precoders take their SVD from ``channel.svd_of``.
"""

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import quantlink.analog as analog
import quantlink.digital as digital
import quantlink.quantizers as quantizers
from quantlink import DigitalPrecoder, lloyd_max, rate_aqnm, svd_precoder, waterfill

G = np.array([[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, 0.3, 0.0]], dtype=complex)


def two_loop_waterfill(gains, total_power):
    """``waterfill`` with its former two active-set loops, one on the water
    level and one that the fallback pass ran on the mean rule, and whether
    the fallback pass ran: (powers, fallback)."""
    gains = np.asarray(gains, dtype=float)
    order = np.argsort(-gains, kind="stable")
    inv = 1.0 / gains[order]
    k = gains.size
    mu = (total_power + inv.sum()) / k
    while k > 1 and not mu - inv[k - 1] >= 0:
        k -= 1
        mu = (total_power + inv[:k].sum()) / k
    powers = np.zeros_like(gains)
    powers[order[:k]] = mu - inv[:k]
    fallback = bool(abs(powers.sum() - total_power) > 1e-9 * total_power)
    if fallback:
        while k > 1 and inv[k - 1] - inv[:k].mean() > total_power / k:
            k -= 1
        powers[:] = 0.0
        powers[order[:k]] = total_power / k - (inv[:k] - inv[:k].mean())
    return powers, fallback


def test_waterfill_is_its_two_loop_code_bit_for_bit():
    rng = np.random.default_rng(2424)
    count = 200_000
    sizes = rng.integers(1, 9, count)
    exponents = rng.uniform(-30, 30, (count, 8))
    budgets = 10.0 ** rng.uniform(-6, 6, count)
    ties = rng.integers(0, 8, count)
    fallback = 0
    for i in range(count):
        gains = 10.0 ** exponents[i, : sizes[i]]
        if i % 5 == 0:
            gains[ties[i] % sizes[i]] = gains[0]
        expected, took_fallback = two_loop_waterfill(gains, budgets[i])
        assert waterfill(gains, budgets[i]).tobytes() == expected.tobytes(), (gains, budgets[i])
        fallback += took_fallback
    # the sets reach the fallback pass, whose active set the one loop now picks
    assert fallback > 1000


@pytest.mark.parametrize(
    "gains, powers",
    [
        ([1e-310], [1.0]),
        ([1e-310, 1e-310], [0.5, 0.5]),
        ([1e-310, 5e-311], [1.0, 0.0]),
        ([5e-311, 1e-310], [0.0, 1.0]),
        ([1.0, 5e-324], [1.0, 0.0]),
        ([1e-308, 1e-308], [0.5, 0.5]),  # finite 1/g_i whose sum overflows
        ([5e-324] * 8, [0.125] * 8),
    ],
)
def test_subnormal_gains_get_finite_powers(gains, powers):
    # pytest turns the RuntimeWarnings of an overflowing 1/g_i into errors
    assert waterfill(gains, 1.0).tolist() == powers


def test_waterfill_is_finite_over_the_whole_double_range():
    rng = np.random.default_rng(24)
    for i in range(20_000):
        gains = np.maximum(2.0 ** rng.uniform(-1074, 1023, int(rng.integers(1, 9))), 5e-324)
        if i % 2:
            gains = np.maximum(2.0 ** rng.uniform(-1074, -1000, gains.size), 5e-324)
        total_power = float(2.0 ** rng.uniform(-1000, 1000))
        powers = waterfill(gains, total_power)
        assert np.isfinite(powers).all() and (powers >= 0).all(), (gains, total_power)
        assert abs(powers.sum() - total_power) <= 1e-6 * total_power, (gains, total_power)


@pytest.mark.parametrize(
    "g, total_power, third_shut_off",
    [
        (1.0965034500909032e-40, 3.0, True),
        (1.560981655353627e-300, 1.0, True),
        (2.13e-10, 3.0, False),
    ],
)
def test_waterfill_spends_the_budget_when_inverse_gains_are_ulp_close(
    g, total_power, third_shut_off
):
    # 1/g_i one ulp apart, where that ulp exceeds the budget (or, at 2.13e-10,
    # is a sizeable share of it): their mean rounds onto one of them
    powers = waterfill([g, g, np.nextafter(g, 0)], total_power)
    assert np.isfinite(powers).all() and (powers >= 0).all(), powers
    assert abs(powers.sum() - total_power) <= 1e-9 * total_power, powers
    if third_shut_off:
        assert powers[2] == 0


def test_waterfill_over_moderate_gains_is_the_former_code_bit_for_bit():
    rng = np.random.default_rng(3030)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        gains = 10.0 ** rng.uniform(-6, 6, n)
        expected, _ = two_loop_waterfill(gains, float(n))
        assert waterfill(gains, float(n)).tobytes() == expected.tobytes(), gains


def test_svd_precoder_at_a_subnormal_snr_is_finite():
    precoder = svd_precoder(G, 1e-320, 2)
    assert np.isfinite(precoder.f_bb).all()
    assert precoder.power_alloc.sum() == pytest.approx(2.0)


def test_power_check_rejects_nan():
    with pytest.raises(ValueError, match="power constraint"):
        DigitalPrecoder(np.array([[np.nan, 0.0], [0.0, 0.5]]))


@pytest.mark.parametrize("gains", [[[1.0], [2.0]], np.array([[1.0, 2.0]]), 2.0, []])
def test_gains_must_be_one_dimensional(gains):
    with pytest.raises(ValueError, match="gains must be a nonempty one-dimensional array"):
        waterfill(gains, 1.0)


# --- structure ------------------------------------------------------------

def _tree(fn):
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def _calls(tree, name):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]


def test_waterfill_has_one_active_set_loop():
    assert sum(isinstance(node, ast.While) for node in ast.walk(_tree(waterfill))) == 1


def test_digital_takes_every_svd_from_svd_of():
    tree = ast.parse(Path(digital.__file__).read_text())
    attrs = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert "svd" not in attrs
    for fn in (digital.channel_inversion_precoder, digital.svd_precoder):
        assert len(_calls(_tree(fn), "svd_of")) == 1


def test_projection_stream_keeps_one_record_per_width():
    tree = _tree(analog._projection_stream)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"w_chan", "first_residual", "mod_w", "mod_f"}
    projected = [call.args[0].id for call in _calls(tree, "_project")]
    assert projected == ["f_hat", "w_hat"]
    for step in ("_phase_project", "_nearest_semi_unitary", "_frobenius_norms"):
        assert not _calls(tree, step)


# --- checks the rest of the suite never reaches -----------------------------

def test_aqnm_rate_raises_where_cholesky_fails(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(ValueError, match="log-det argument is not positive definite"):
        rate_aqnm(G, np.eye(4, 2), 10.0, 0.1)


@pytest.fixture
def fresh_lloyd_cache():
    quantizers._lloyd_fixed_point.cache_clear()
    yield
    quantizers._lloyd_fixed_point.cache_clear()


def test_lloyd_max_certifies_its_fixed_point(monkeypatch, fresh_lloyd_cache):
    lloyd_map = quantizers._lloyd_map_half
    calls = [0]

    def drifting(levels):
        # every call moves the conditional means, so no level is a fixed point
        calls[0] += 1
        cond_mean, prob, edges = lloyd_map(levels)
        return cond_mean + 1e-6 * calls[0], prob, edges

    monkeypatch.setattr(quantizers, "_lloyd_map_half", drifting)
    with pytest.raises(RuntimeError, match="did not reach a 1e-12 fixed point for b=2"):
        lloyd_max(2)


def test_cli_module_runs_as_a_script():
    src = Path(quantizers.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "quantlink.cli", "tables"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 9
