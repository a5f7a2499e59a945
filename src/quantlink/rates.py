"""Achievable rates and capacity bounds of the quantized hybrid link.

Channel-inversion transmission turns the link into parallel real sub-channels
whose discrete mutual information is computed exactly; SVD transmission with
Gaussian signaling is assessed through the additive-quantization-noise lower
bound; one-bit operation additionally admits closed-form capacity upper
bounds driven by the top singular value.

All rates are in bits per channel use (bps/Hz).  Mutual-information sums run
in natural logs internally and convert to bits at the end, with 0*log(0)
taken as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable

import numpy as np

from .channel import ChannelMatrix, _check_count, _check_positive, _entries, _is_integer, _matrix
from .digital import RankDeficientChannelError, ci_feasible, snr_ci, svd_precoder
# build_transition_matrix is not called here; it stays a module global
# because perfbench's tracer wraps it by name.
from .quantizers import (
    DistortionFactor,
    TransitionMatrix,
    _check_bits,
    _check_snr_grid,
    _fill_transition_matrices,
    _pam_error_probability,
    build_transition_matrix,
    lloyd_max,
    qfunc,
)

__all__ = [
    "METHODS",
    "ChannelRates",
    "RateGrid",
    "RateMethod",
    "RateQuery",
    "RateResult",
    "binary_entropy",
    "discrete_mi",
    "rate_ci_onebit",
    "rate_ci_onebit_lb",
    "rate_ci_exact",
    "rate_ci_exact_grid",
    "rate_ci_fano",
    "rate_aqnm",
    "ub_onebit_tight",
    "ub_onebit_loose",
    "ub_infinite",
    "evaluate",
]

_LN2 = np.log(2.0)

# Transition-matrix entries per batch of rate_ci_exact_grid: bounds its
# working set to a few MB whatever the length of the SNR grid.
_BATCH_ENTRIES = 2**16


@dataclass(frozen=True)
class RateQuery:
    """One rate evaluation request: operating SNR, stream count, ADC resolution, method."""

    rho: float
    n_streams: int
    bits: int
    method: str

    def __post_init__(self):
        _check_link(self.rho, self.n_streams)
        if _is_integer(self.bits) and self.bits < 1:
            raise ValueError("bits must be at least 1")
        _check_bits(self.bits)
        if self.method not in METHODS:
            raise ValueError(f"unknown rate method {self.method!r}")


def _check_link(rho: float, n: int, name: str = "n_streams") -> None:
    """A positive finite SNR and at least one stream (or receive chain)."""
    _check_positive(rho, "rho")
    _check_count(n, name)


def _check_stream_count(g: ChannelMatrix, n_streams: int) -> None:
    """The stream count must be G's row count, the receive-chain count."""
    n_rf_rx = g.entries.shape[0]
    if n_streams != n_rf_rx:
        raise ValueError(
            f"n_streams ({n_streams}) must equal the effective channel's "
            f"receive-chain count ({n_rf_rx})"
        )


@dataclass(frozen=True)
class RateResult:
    """A rate value in bps/Hz tagged with the method that produced it."""

    bits_per_channel_use: float
    method: str

    def __post_init__(self):
        object.__setattr__(self, "bits_per_channel_use", float(self.bits_per_channel_use))
        if not np.isfinite(self.bits_per_channel_use):
            raise ValueError("rate must be finite")

    def __float__(self) -> float:
        return self.bits_per_channel_use


def binary_entropy(p: float) -> float:
    """Binary entropy -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return float(_binary_entropy(p))


def _binary_entropy(p):
    """:func:`binary_entropy` element-wise over probabilities in [0, 1], unchecked."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p == 0.0) | (p == 1.0), 0.0, h)


def discrete_mi(prior, transition) -> float:
    """Mutual information of a discrete memoryless channel, in bits.

    ``prior`` is the input distribution; ``transition`` a row-stochastic
    matrix (or :class:`TransitionMatrix`) of conditional output probabilities.
    This is the public reference oracle: :func:`rate_ci_exact_grid` performs
    the same operations over a batch of matrices and must match it bit for bit.
    A NaN in either argument fails its check.
    """
    prior = np.asarray(prior, dtype=float)
    t = transition.entries if isinstance(transition, TransitionMatrix) else np.asarray(transition, dtype=float)
    if t.ndim != 2 or prior.shape != (t.shape[0],):
        raise ValueError(f"prior of length {prior.shape} does not match transition {t.shape}")
    if not (abs(prior.sum() - 1.0) <= 1e-9 and np.all(prior >= 0)):
        raise ValueError("prior must be a probability vector")
    if not (np.max(np.abs(t.sum(axis=1) - 1.0)) <= 1e-9 and np.all(t >= 0)):
        raise ValueError("transition matrix must be row stochastic")
    marginal = prior @ t
    joint = prior[:, None] * t
    mask = joint > 0
    log_marginal = np.broadcast_to(np.log(marginal, where=marginal > 0, out=np.zeros_like(marginal)), t.shape)
    nats = float(np.sum(joint[mask] * (np.log(t[mask]) - log_marginal[mask])))
    # roundoff can leave a tiny negative residue for near-independent channels
    return max(nats / _LN2, 0.0)


def _onebit_rate_from_snr(snr, n: int):
    """2 n (1 - Hb(Q(sqrt(snr)))), element-wise over ``snr``."""
    return 2.0 * n * (1.0 - _binary_entropy(qfunc(np.sqrt(snr))))


def rate_ci_onebit(g, rho: float, n_streams: int) -> RateResult:
    """Exact rate of channel-inversion transmission with one-bit ADCs.

    Each of the 2*Ns real sub-channels carries antipodal signaling, giving
    2 Ns (1 - Hb(Q(sqrt(SNR_CI)))).  A one-point call of the ``ci_onebit``
    kernel through :func:`evaluate`, so ``n_streams`` must be G's row count.
    """
    return evaluate(RateQuery(rho, n_streams, 1, "ci_onebit"), g)


def rate_ci_onebit_lb(g, rho: float, n_streams: int) -> RateResult:
    """Worst-stream lower bound on the one-bit channel-inversion rate.

    Replaces SNR_CI by its bound rho * nu_min^2 / Ns, so the gap to the
    one-bit upper bound is a pure power shift of 10 log10(nu_1^2/nu_Ns^2) dB.
    ``n_streams`` must be G's row count.
    """
    g = _matrix(g)
    _check_link(rho, n_streams)
    _check_stream_count(g, n_streams)
    return RateResult(_onebit_bound(g.singular_values[n_streams - 1], rho, n_streams), "ci_onebit")


def rate_ci_exact(bits: int, snr_ci: float, n_streams: int) -> RateResult:
    """Exact channel-inversion rate with b-bit ADCs and 2^b-PAM per real dimension.

    2 Ns times the discrete mutual information of the matched uniform
    quantizer's transition matrix under the uniform prior; a one-point call
    of :func:`rate_ci_exact_grid`.
    """
    return RateResult(rate_ci_exact_grid(bits, [snr_ci], n_streams)[0], "ci_exact")


def rate_ci_exact_grid(bits: int, snr_ci, n_streams: int) -> np.ndarray:
    """Exact channel-inversion rate at every sub-channel SNR of a 1-D grid.

    Element k equals ``2 Ns discrete_mi(uniform, build_transition_matrix(bits,
    snr_ci[k]))`` bit for bit.  Each batch of at most ``_BATCH_ENTRIES``
    entries is the whole stack that ``_fill_transition_matrices`` builds: its
    logs and terms are taken over the stack, one reduction gives every matrix
    with a positive joint the pairwise sum of :func:`discrete_mi`, and a matrix
    whose joint has a zero entry is summed alone over its masked terms.  Two
    buffers, the stack (later the joint) and the terms, serve every batch.
    One bit uses the antipodal closed form.
    """
    bits = _check_bits(bits)
    snr_ci = _check_snr_grid(snr_ci)
    _check_count(n_streams, "n_streams")
    if bits == 1:
        # same quantity; the closed form avoids needless matrix assembly
        return _onebit_rate_from_snr(snr_ci, n_streams)
    m = 2**bits
    prior = np.full(m, 1.0 / m)
    per_batch = max(1, min(snr_ci.size, _BATCH_ENTRIES // (m * m)))
    t = np.empty((per_batch, m, m))
    terms = np.empty_like(t)
    mi = np.empty(snr_ci.size)
    for start in range(0, snr_ci.size, per_batch):
        k = min(per_batch, snr_ci.size - start)
        tk, lk = t[:k], terms[:k]
        _fill_transition_matrices(bits, snr_ci[start : start + k], tk)
        marginal = np.matmul(prior, tk)
        log_marginal = np.log(marginal, where=marginal > 0, out=np.zeros_like(marginal))
        # log(0) = -inf and 0 * -inf = nan occur only where the joint is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(tk, out=lk)
            np.subtract(lk, log_marginal[:, None, :], out=lk)
            jk = np.multiply(tk, prior[0], out=tk)  # the joint; the prior is uniform
            np.multiply(jk, lk, out=lk)
        # each contiguous matrix is one run of m*m terms, summed pairwise as np.sum(lk[j])
        nats = lk.sum(axis=(1, 2))
        for j in np.flatnonzero(jk.min(axis=(1, 2)) == 0.0):
            nats[j] = np.sum(lk[j][jk[j] > 0])
        # not np.maximum, which turns -0.0 into +0.0 where max(-0.0, 0.0) keeps it
        mi[start : start + k] = np.where(nats < 0.0, 0.0, nats / _LN2)
    return 2.0 * n_streams * mi


def rate_ci_fano(bits: int, snr_ci: float, n_streams: int) -> RateResult:
    """Fano lower bound 2 Ns (b - Hb(Pe) - Pe log2(2^b - 1)) on the exact rate.

    Checked as :func:`rate_ci_exact_grid` is; computed by the ``ci_fano`` kernel's helpers.
    """
    bits = _check_bits(bits)
    snr = _check_snr_grid([snr_ci])
    _check_count(n_streams, "n_streams")
    return RateResult(_fano_rate(bits, _pam_error_probability(bits, snr), n_streams)[0], "ci_fano")


def _fano_rate(bits: int, pe, n_streams: int):
    """The Fano bound element-wise over the symbol error probabilities ``pe``."""
    penalty = _binary_entropy(pe) + pe * np.log2(2.0**bits - 1.0)
    # roundoff can leave a tiny negative residue once pe is near 0
    return 2.0 * n_streams * np.maximum(bits - penalty, 0.0)


def _eta_value(eta) -> float:
    # compared before float(), which overflows on an integer beyond the largest double
    value = eta.eta if isinstance(eta, DistortionFactor) else eta
    if not 0.0 <= value < 1.0:
        raise ValueError(f"distortion factor must lie in [0, 1), got {value!r}")
    return float(value)


def rate_aqnm(g, f_bb, rho: float, eta) -> RateResult:
    """Gaussian-signaling rate lower bound under the additive quantization noise model.

    log2 | I + (1-eta) (rho/Ns) F* G* (I + eta diag{(rho/Ns) G F F* G*})^{-1} G F |,
    evaluated through a Cholesky factorization of the positive-definite
    argument.  ``eta`` may be a :class:`DistortionFactor` or a bare float
    (eta = 0 recovers the unquantized log-det rate); ``rho`` must be positive
    and finite.  A one-point call of :func:`_aqnm_rates`.
    """
    eta = _eta_value(eta)
    _check_positive(rho, "rho")
    g_mat = _entries(g)
    f_mat = np.asarray(getattr(f_bb, "f_bb", f_bb), dtype=complex)
    if f_mat.shape[0] != g_mat.shape[1]:
        raise ValueError(f"precoder of shape {f_mat.shape} does not match G {g_mat.shape}")
    rate = _aqnm_rates((g_mat @ f_mat)[None], np.array([rho]), np.array([eta]))[0, 0]
    return RateResult(rate, "aqnm_svd")


def _aqnm_rates(a: np.ndarray, rhos: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """(S, B) AQNM rates of the (S, N, Ns) stack ``a[s] = G F_BB(rhos[s])`` at each eta.

    One einsum, one stacked matmul and one stacked Cholesky cover the whole
    grid; each (rho, eta) cell goes through the same operations as a one-point call.
    """
    n_streams = a.shape[-1]
    a = a[:, None]  # (S, 1, N, Ns) against the (S, B) grid of cells
    scale = (rhos / n_streams)[:, None, None]
    etas = etas[:, None]
    denom = 1.0 + etas * scale * np.einsum("sbij,sbij->sbi", a, a.conj()).real
    gain = ((1.0 - etas) * scale)[..., None]
    m = np.eye(n_streams) + gain * (a.conj().swapaxes(-1, -2) @ (a / denom[..., None]))
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:  # cannot happen for eta in [0,1); guard anyway
        raise ValueError("log-det argument is not positive definite") from exc
    return 2.0 * np.sum(np.log2(np.abs(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)


def _onebit_bound(nu: float, rhos, n: int):
    return _onebit_rate_from_snr(rhos * nu**2 / n, n)


def _infinite_bound(nu1: float, rhos, n_rf_rx: int):
    return n_rf_rx * np.log2(1.0 + rhos * nu1**2 / n_rf_rx)


def ub_onebit_tight(g, rho: float, n_rf_rx: int) -> RateResult:
    """One-bit capacity upper bound 2 N (1 - Hb(Q(sqrt(rho nu_1^2 / N)))).

    Saturates at 2 N bps/Hz and is met with equality when G G^* is a scaled
    identity; at low SNR it grows like (2/pi) rho nu_1^2 / ln 2.  A one-point
    call of its kernel through :func:`evaluate`, so ``n_rf_rx`` must be G's
    row count.
    """
    _check_link(rho, n_rf_rx, "n_rf_rx")
    return evaluate(RateQuery(rho, n_rf_rx, 1, "ub_onebit_tight"), g)


def ub_onebit_loose(h, rho: float, n_rf_rx: int) -> RateResult:
    """Precoder-independent one-bit upper bound using the channel's own top singular value.

    A one-point call of its kernel, so ``n_rf_rx`` may not exceed H's row
    count, the receive-antenna count.
    """
    _check_link(rho, n_rf_rx, "n_rf_rx")
    h = _matrix(h)
    # the kernel reads only the full channel, the chain count and the SNR
    state = ChannelRates(h, h, n_rf_rx, False, RateGrid(np.array([rho]), (1,), np.array([math.nan])))
    return RateResult(float(_ub_onebit_loose_kernel(state)[0, 0]), "ub_onebit_loose")


def ub_infinite(g, rho: float, n_rf_rx: int) -> RateResult:
    """Unquantized capacity bound N log2(1 + rho nu_1^2 / N); unbounded in rho.

    A one-point call of its kernel through :func:`evaluate`; ``n_rf_rx`` must be G's row count.
    """
    _check_link(rho, n_rf_rx, "n_rf_rx")
    return evaluate(RateQuery(rho, n_rf_rx, 1, "ub_infinite"), g)


@dataclass(frozen=True, eq=False)
class RateGrid:
    """The SNR x bit-depth grid of a sweep, shared by all its realizations.

    ``rhos`` holds the linear SNRs, ``bits`` the ADC resolutions and
    ``etas`` the Lloyd-Max distortion factor of each resolution.
    """

    rhos: np.ndarray
    bits: tuple[int, ...]
    etas: np.ndarray


@dataclass(eq=False)
class ChannelRates:
    """One channel realization over a :class:`RateGrid`: what the method kernels read.

    ``g`` is the effective channel, with one row per stream, ``h`` the full channel
    (or None) and ``ci_feasible`` whether channel inversion can drive ``n_streams`` streams.
    The tables several methods share are computed on first use.  A sweep
    passes the ``ci_exact_grid`` and ``precoder`` functions it resolves
    itself, so it can trace or replace them.
    """

    g: ChannelMatrix
    h: ChannelMatrix | None
    n_streams: int
    ci_feasible: bool
    grid: RateGrid
    ci_exact_grid: Callable = rate_ci_exact_grid
    precoder: Callable = svd_precoder

    def nans(self, columns: int) -> np.ndarray:
        return np.full((len(self.grid.rhos), columns), math.nan)

    @cached_property
    def snr_ci(self) -> np.ndarray:
        """Sub-channel SNR of channel inversion, rho / sum(nu^-2), at each rho."""
        beta = float(np.sum(self.g.singular_values ** -2.0))
        return self.grid.rhos / beta

    @cached_property
    def ci_exact(self) -> np.ndarray:
        """(S, B) exact channel-inversion rates; one grid call per bit depth."""
        return self._ci_exact_table()

    def _ci_exact_table(self) -> np.ndarray:
        """``ci_exact`` uncached, for a sweep's pool workers: on Python < 3.12
        every instance's cached_property shares one lock, which would serialize them."""
        if not self.ci_feasible:
            return self.nans(len(self.grid.bits))
        return np.stack(
            [self.ci_exact_grid(b, self.snr_ci, self.n_streams) for b in self.grid.bits], axis=1
        )

    @cached_property
    def aqnm(self) -> np.ndarray:
        """(S, B) AQNM rates of SVD precoding, one :func:`_aqnm_rates` call; all NaN if G's
        rank is too low, which ``RateMethod.outcome`` reports as ``rank_deficient``."""
        try:
            f_bbs = [self.precoder(self.g, rho, self.n_streams).f_bb for rho in self.grid.rhos.tolist()]
        except RankDeficientChannelError:  # not rho-dependent: no SVD rate at any SNR
            return self.nans(len(self.grid.bits))
        return _aqnm_rates(self.g.entries @ np.stack(f_bbs), self.grid.rhos, self.grid.etas)

    @property
    def full_rank(self) -> bool:
        """Whether G has the rank the SVD precoder needs, that is ``aqnm`` holds rates: the
        flag that ``RateMethod.outcome`` reads, one of the two whose lack ``rates.OUTCOMES`` names."""
        return not np.isnan(self.aqnm).any()


def _ci_fano_kernel(x: ChannelRates) -> np.ndarray:
    bits = np.array(x.grid.bits)
    return _fano_rate(bits, _pam_error_probability(bits, x.snr_ci[:, None]), x.n_streams)


def _ci_onebit_kernel(x: ChannelRates) -> np.ndarray:
    return _onebit_rate_from_snr(snr_ci(x.g, x.grid.rhos), x.n_streams)[:, None]


def _hybrid_kernel(x: ChannelRates) -> np.ndarray:
    # max(ci, svd) as Python's max breaks ties; NaN whenever the SVD rate is,
    # so hybrid >= aqnm_svd survives averaging
    ci, svd = x.ci_exact, x.aqnm
    return np.where(svd <= ci, ci, svd)


def _ub_onebit_loose_kernel(x: ChannelRates) -> np.ndarray:
    if x.h is None:
        raise ValueError("ub_onebit_loose needs the full channel matrix")
    n_rx = x.h.entries.shape[0]
    if x.n_streams > n_rx:
        raise ValueError(f"n_rf_rx ({x.n_streams}) cannot exceed the channel's receive-antenna count ({n_rx})")
    return _onebit_bound(x.h.singular_values[0], x.grid.rhos, x.n_streams)[:, None]


# What one realization of a (width, method) entry holds: a rate, or why it has none.
OUTCOMES = ("ok", "ci_ill_conditioned", "rank_deficient", "infeasible_width")
_LACKS = {"ci_feasible": "ci_ill_conditioned", "full_rank": "rank_deficient"}
_KINDS = ("bits", "onebit", "unquantized")


@dataclass(frozen=True)
class RateMethod:
    """A rate method: the grid cells it fills and the kernel that fills them.

    ``kind`` is ``"bits"`` (one cell per SNR and bit depth), ``"onebit"``
    (one cell per SNR at bits=1) or ``"unquantized"`` (one cell per SNR,
    tagged bits=0).  ``kernel`` maps a :class:`ChannelRates` to an (S, B)
    array, B being the number of bit depths the grid gives.
    ``reads_ci_exact`` marks a kernel that reads ``ChannelRates.ci_exact``,
    whose tables a sweep computes ahead of the kernels.  ``needs`` is
    ``"none"`` or the flag of :class:`ChannelRates` the method needs:
    ``"ci_feasible"`` or ``"full_rank"``.  :meth:`outcome` is the one rule
    for a realization without a rate: it gives the realization's entry of
    ``OUTCOMES``.  The ``kernel`` given is wrapped once to apply the rule:
    every cell is NaN, and the formula does not run, unless the outcome is
    ``"ok"``.  Any other ``kind`` or ``needs`` raises ``ValueError``.
    """

    kind: str
    kernel: Callable[[ChannelRates], np.ndarray]
    reads_ci_exact: bool = False
    needs: str = "none"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.needs != "none" and self.needs not in _LACKS:
            raise ValueError(f"needs must be 'none' or one of {tuple(_LACKS)}, got {self.needs!r}")
        formula = self.kernel
        @wraps(formula)  # inspect.getsource unwraps it to the formula
        def kernel(x: ChannelRates) -> np.ndarray:
            return formula(x) if self.outcome(x) == "ok" else x.nans(len(self.cell_bits(x.grid.bits)))
        object.__setattr__(self, "kernel", kernel)

    def outcome(self, state: ChannelRates | None) -> str:
        """The method's entry of ``OUTCOMES`` for ``state`` (None for a width above n_rf_tx)."""
        if state is None:
            return "infeasible_width"
        return "ok" if self.needs == "none" or getattr(state, self.needs) else _LACKS[self.needs]

    def cell_bits(self, bits_grid) -> tuple[int, ...]:
        """The bits value of each of the method's cells at one SNR."""
        return {"bits": tuple(bits_grid), "onebit": (1,), "unquantized": (0,)}[self.kind]


# The one table of rate methods: validation, the sweep and evaluate() read it.
METHODS: dict[str, RateMethod] = {
    "ci_exact": RateMethod("bits", lambda x: x.ci_exact, reads_ci_exact=True, needs="ci_feasible"),
    "ci_fano": RateMethod("bits", _ci_fano_kernel, needs="ci_feasible"),
    "ci_onebit": RateMethod("onebit", _ci_onebit_kernel, needs="ci_feasible"),
    "aqnm_svd": RateMethod("bits", lambda x: x.aqnm, needs="full_rank"),
    "ub_onebit_tight": RateMethod(
        "onebit", lambda x: _onebit_bound(x.g.singular_values[0], x.grid.rhos, x.n_streams)[:, None]
    ),
    "ub_onebit_loose": RateMethod("onebit", _ub_onebit_loose_kernel),
    "ub_infinite": RateMethod(
        "unquantized", lambda x: _infinite_bound(x.g.singular_values[0], x.grid.rhos, x.n_streams)[:, None]
    ),
    # a composite: per realization, the larger of the channel-inversion and
    # SVD rates at the same resolution, or the SVD rate alone if CI is infeasible
    "hybrid": RateMethod("bits", _hybrid_kernel, reads_ci_exact=True, needs="full_rank"),
}


def evaluate(query: RateQuery, g, h=None) -> RateResult:
    """Evaluate a :class:`RateQuery` against an effective channel through its kernel.

    ``h`` (the full channel) is only needed for ``ub_onebit_loose``.  The SVD
    method builds its own waterfilling precoder and Lloyd-Max distortion
    factor for the queried resolution.  The query's stream count must equal
    the receive-chain count, G's row count, as in the sweep.  A method the
    channel cannot carry, by the one rule ``RateMethod.outcome``, raises
    :class:`RankDeficientChannelError` naming its entry of ``OUTCOMES``.
    """
    g = _matrix(g)
    h = None if h is None else _matrix(h)
    n = query.n_streams
    _check_stream_count(g, n)
    grid = RateGrid(np.array([query.rho]), (query.bits,), np.array([lloyd_max(query.bits)[1].eta]))
    rates = ChannelRates(g, h, n, ci_feasible(g.singular_values, n), grid)
    spec = METHODS[query.method]
    if (outcome := spec.outcome(rates)) != "ok":
        raise RankDeficientChannelError(
            f"the effective channel cannot carry {query.method} with {n} streams: {outcome}"
        )
    return RateResult(float(spec.kernel(rates)[0, 0]), query.method)
