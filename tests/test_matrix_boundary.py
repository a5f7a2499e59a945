"""One matrix boundary: every public function that takes a channel reads it as a
ChannelMatrix, which checks a plain array and decomposes it once."""

import ast
import inspect
import warnings

import numpy as np
import pytest

import quantlink
from quantlink import (
    ChannelMatrix,
    ClusteredChannelConfig,
    RateQuery,
    alternating_projection,
    alternating_projections,
    channel_inversion_precoder,
    effective_channel,
    evaluate,
    generate_channel,
    rate_aqnm,
    rate_ci_exact,
    rate_ci_exact_grid,
    rate_ci_fano,
    rate_ci_onebit,
    rate_ci_onebit_lb,
    snr_ci,
    svd_of,
    svd_precoder,
    ub_infinite,
    ub_onebit_loose,
    ub_onebit_tight,
)
from quantlink import analog, channel, digital, harness, power, quantizers, rates

# Every public function that takes a channel matrix, called with ``m`` in the
# matrix's place and valid values everywhere else.
MATRIX_FUNCTIONS = {
    "snr_ci": lambda m: snr_ci(m, 1.0),
    "evaluate": lambda m: evaluate(RateQuery(1.0, 2, 2, "ub_infinite"), m),
    "rate_ci_onebit": lambda m: rate_ci_onebit(m, 1.0, 2),
    "rate_ci_onebit_lb": lambda m: rate_ci_onebit_lb(m, 1.0, 2),
    "rate_aqnm": lambda m: rate_aqnm(m, np.eye(2), 1.0, 0.1),
    "ub_onebit_tight": lambda m: ub_onebit_tight(m, 1.0, 2),
    "ub_onebit_loose": lambda m: ub_onebit_loose(m, 1.0, 2),
    "ub_infinite": lambda m: ub_infinite(m, 1.0, 2),
    "svd_precoder": lambda m: svd_precoder(m, 1.0, 1),
    "channel_inversion_precoder": lambda m: channel_inversion_precoder(m),
    "alternating_projection": lambda m: alternating_projection(m, 1, 1),
    "alternating_projections": lambda m: alternating_projections([m], 1, [1]),
    "effective_channel": lambda m: effective_channel(m, np.eye(2, 1), np.eye(2, 1)),
    "svd_of": lambda m: svd_of(m),
}

BAD_MATRICES = {
    "nan": (np.array([[np.nan, 0.0], [0.0, 1.0]]), "entries must be finite"),
    "inf": (np.array([[1.0, 0.0], [0.0, np.inf]]), "entries must be finite"),
    "1-D": (np.array([1.0, 2.0]), "entries must be a nonempty 2-D complex matrix"),
    "empty": (np.zeros((0, 2)), "entries must be a nonempty 2-D complex matrix"),
}


@pytest.mark.parametrize("bad", BAD_MATRICES)
@pytest.mark.parametrize("name", MATRIX_FUNCTIONS)
def test_bad_matrix_raises_the_construction_error(name, bad):
    m, message = BAD_MATRICES[bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as info:
            MATRIX_FUNCTIONS[name](m)
    assert type(info.value) is ValueError


def test_every_public_matrix_function_is_covered():
    takes_a_matrix = {
        name
        for name in quantlink.__all__
        if callable(getattr(quantlink, name))
        and not isinstance(getattr(quantlink, name), type)
        and set(inspect.signature(getattr(quantlink, name)).parameters) & {"g", "h", "hs"}
    }
    assert takes_a_matrix == set(MATRIX_FUNCTIONS)


@pytest.mark.parametrize("bad", BAD_MATRICES)
def test_evaluate_checks_the_full_channel_too(bad):
    m, message = BAD_MATRICES[bad]
    g = ChannelMatrix(np.eye(2))
    with pytest.raises(ValueError, match=message):
        evaluate(RateQuery(1.0, 2, 1, "ub_onebit_loose"), g, m)


def test_a_channel_matrix_passes_through_unchanged():
    h = ChannelMatrix(np.eye(2, 3))
    assert channel._matrix(h) is h
    assert channel._entries(h) is h.entries


@pytest.fixture
def g24():
    rng = np.random.default_rng(3)
    return rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))


@pytest.fixture
def counted_svds(monkeypatch):
    """The keyword arguments of every np.linalg.svd call made from now on."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.mark.parametrize("method", rates.METHODS)
def test_evaluate_decomposes_a_plain_matrix_once(method, g24, counted_svds):
    h = ChannelMatrix(np.eye(4, 6))  # decomposed before counting starts
    counted_svds.clear()
    evaluate(RateQuery(10.0, 2, 3, method), g24, h)
    assert sum(1 for kw in counted_svds if kw.get("compute_uv") is False) == 1


def test_snr_ci_decomposes_a_plain_matrix_once(g24, counted_svds):
    snr_ci(g24, 10.0)
    assert counted_svds == [{"compute_uv": False}]


# --- stream-count and SNR checks of the scalar rate functions -----------------

@pytest.mark.parametrize("fn", [rate_ci_onebit, rate_ci_onebit_lb])
def test_one_bit_ci_rates_need_one_stream_per_row(fn, g24):
    message = r"n_streams \(3\) must equal .* receive-chain count \(2\)"
    with pytest.raises(ValueError, match=message):
        fn(g24, 10.0, 3)
    with pytest.raises(ValueError, match=r"n_streams \(1\) must equal"):
        fn(g24, 10.0, 1)


def test_rate_ci_onebit_matches_evaluate(g24):
    via_evaluate = float(evaluate(RateQuery(10.0, 2, 1, "ci_onebit"), g24))
    assert float(rate_ci_onebit(g24, 10.0, 2)) == via_evaluate


@pytest.mark.parametrize("n_streams", [0, -1])
def test_exact_and_fano_rates_need_a_stream(n_streams):
    with pytest.raises(ValueError, match="n_streams must be at least 1"):
        rate_ci_exact(3, 1.0, n_streams)
    with pytest.raises(ValueError, match="n_streams must be at least 1"):
        rate_ci_exact_grid(3, [1.0, 2.0], n_streams)
    with pytest.raises(ValueError, match="n_streams must be at least 1"):
        rate_ci_exact_grid(1, [1.0], n_streams)
    with pytest.raises(ValueError, match="n_streams must be at least 1"):
        rate_ci_fano(3, 1.0, n_streams)


BOUNDS = [ub_onebit_tight, ub_onebit_loose, ub_infinite]


@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("fn", BOUNDS + [rate_ci_onebit_lb])
def test_bounds_reject_a_nonpositive_snr(fn, rho, g24):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rho must be positive"):
            fn(g24, rho, 2)


@pytest.mark.parametrize("n_rf_rx", [0, -2])
@pytest.mark.parametrize("fn", BOUNDS)
def test_bounds_need_a_receive_chain(fn, n_rf_rx, g24):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n_rf_rx must be at least 1"):
            fn(g24, 10.0, n_rf_rx)


def test_rate_ci_onebit_lb_needs_a_stream(g24):
    with pytest.raises(ValueError, match="n_streams must be at least 1"):
        rate_ci_onebit_lb(g24, 10.0, 0)


# --- one channel shape per AP batch ------------------------------------------

def test_alternating_projections_needs_one_channel_shape():
    hs = [generate_channel(ClusteredChannelConfig(16, n_rx, seed=3)) for n_rx in (4, 4, 8)]
    message = r"hs\[2\] has shape \(8, 16\), but hs\[0\] has shape \(4, 16\)"
    with pytest.raises(ValueError, match=message):
        alternating_projections(hs, 2, [2])


# --- tooling guard: no second, unchecked matrix path -------------------------

SOURCE_MODULES = [analog, channel, digital, harness, power, quantizers, rates]


def _calls_with_scope(module):
    """(qualified name of the enclosing def or class, call node) of every call."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                yield scope, child
            yield from walk(child, inner)

    yield from walk(ast.parse(inspect.getsource(module)), "")


def test_singular_values_alone_are_computed_in_the_channel_matrix():
    sites = [
        (module.__name__, scope)
        for module in SOURCE_MODULES
        for scope, call in _calls_with_scope(module)
        if isinstance(call.func, ast.Attribute)
        and call.func.attr == "svd"
        and any(
            kw.arg == "compute_uv" and getattr(kw.value, "value", None) is False
            for kw in call.keywords
        )
    ]
    assert sites == [("quantlink.channel", "ChannelMatrix.__post_init__")]


def test_no_module_reads_entries_through_getattr():
    for module in SOURCE_MODULES:
        for _, call in _calls_with_scope(module):
            if isinstance(call.func, ast.Name) and call.func.id == "getattr":
                attr = getattr(call.args[1], "value", None) if len(call.args) > 1 else None
                assert attr != "entries", module.__name__


def test_rate_kernels_read_the_channel_matrix_directly():
    tree = ast.parse(inspect.getsource(rates))
    kernel_code = [
        node
        for node in tree.body
        if (isinstance(node, ast.ClassDef) and node.name == "ChannelRates")
        or (isinstance(node, ast.FunctionDef) and node.name.endswith("_kernel"))
        or (isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "METHODS")
    ]
    assert len(kernel_code) == 6  # ChannelRates, four named kernels and METHODS
    for node in kernel_code:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        assert not names & {"_entries", "_spectrum", "_matrix"}, getattr(node, "name", "METHODS")
