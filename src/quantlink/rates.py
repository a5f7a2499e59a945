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
from functools import cached_property
from typing import Callable

import numpy as np

from .channel import _entries, _spectrum
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
    pam_error_probability,
    qfunc,
)

__all__ = [
    "METHODS",
    "RATE_METHODS",
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
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.n_streams < 1:
            raise ValueError("n_streams must be at least 1")
        if self.bits < 1:
            raise ValueError("bits must be at least 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown rate method {self.method!r}")


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
    """
    prior = np.asarray(prior, dtype=float)
    t = transition.entries if isinstance(transition, TransitionMatrix) else np.asarray(transition, dtype=float)
    if t.ndim != 2 or prior.shape != (t.shape[0],):
        raise ValueError(f"prior of length {prior.shape} does not match transition {t.shape}")
    if abs(prior.sum() - 1.0) > 1e-9 or np.any(prior < 0):
        raise ValueError("prior must be a probability vector")
    if np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-9 or np.any(t < 0):
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
    2 Ns (1 - Hb(Q(sqrt(SNR_CI)))).
    """
    return RateResult(_onebit_rate_from_snr(snr_ci(g, rho), n_streams), "ci_onebit")


def rate_ci_onebit_lb(g, rho: float, n_streams: int) -> RateResult:
    """Worst-stream lower bound on the one-bit channel-inversion rate.

    Replaces SNR_CI by its bound rho * nu_min^2 / Ns, so the gap to the
    one-bit upper bound is a pure power shift of 10 log10(nu_1^2/nu_Ns^2) dB.
    """
    nu = _spectrum(g)
    snr_floor = rho * nu[n_streams - 1] ** 2 / n_streams
    return RateResult(_onebit_rate_from_snr(snr_floor, n_streams), "ci_onebit")


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
    snr_ci[k]))`` bit for bit: the matrices are built in batches of at most
    ``_BATCH_ENTRIES`` entries, the mutual-information terms are computed
    element-wise, and each SNR's masked terms are reduced by the same pairwise
    sum as :func:`discrete_mi`.  Every batch reuses the same buffers, written
    in place.  One bit uses the antipodal closed form.
    """
    bits = _check_bits(bits)
    snr_ci = _check_snr_grid(snr_ci)
    if bits == 1:
        # same quantity; the closed form avoids needless matrix assembly
        return _onebit_rate_from_snr(snr_ci, n_streams)
    m = 2**bits
    half = m // 2
    prior = np.full(m, 1.0 / m)
    per_batch = max(1, min(snr_ci.size, _BATCH_ENTRIES // (m * m)))
    t = np.empty((per_batch, m, m))
    cdf = np.empty((per_batch, half, m - 1))
    joint = np.empty_like(t)
    terms = np.empty_like(t)
    mask = np.empty(t.shape, dtype=bool)
    mi = np.empty(snr_ci.size)
    for start in range(0, snr_ci.size, per_batch):
        k = min(per_batch, snr_ci.size - start)
        tk, jk, lk, mk = t[:k], joint[:k], terms[:k], mask[:k]
        _fill_transition_matrices(bits, snr_ci[start : start + k], tk, cdf[:k])
        marginal = np.matmul(prior, tk)
        np.multiply(tk, prior[0], out=jk)  # the prior is uniform
        np.greater(jk, 0, out=mk)
        log_marginal = np.log(marginal, where=marginal > 0, out=np.zeros_like(marginal))
        # log(0) = -inf and 0 * -inf = nan occur only outside the mask
        with np.errstate(divide="ignore", invalid="ignore"):
            # the lower half of each matrix mirrors the upper half, so do its logs
            np.log(tk[:, :half], out=lk[:, :half])
            lk[:, half:] = lk[:, :half][:, ::-1, ::-1]
            np.subtract(lk, log_marginal[:, None, :], out=lk)
            np.multiply(jk, lk, out=lk)
        for j in range(k):
            # a full mask selects every term in C order: the same pairwise sum
            nats = float(np.sum(lk[j] if mk[j].all() else lk[j][mk[j]]))
            mi[start + j] = max(nats / _LN2, 0.0)
    return 2.0 * n_streams * mi


def rate_ci_fano(bits: int, snr_ci: float, n_streams: int) -> RateResult:
    """Fano lower bound 2 Ns (b - Hb(Pe) - Pe log2(2^b - 1)) on the exact rate."""
    return RateResult(_fano_rate(bits, pam_error_probability(bits, snr_ci), n_streams), "ci_fano")


def _fano_rate(bits: int, pe, n_streams: int):
    """The Fano bound element-wise over the symbol error probabilities ``pe``."""
    penalty = _binary_entropy(pe) + pe * np.log2(2.0**bits - 1.0)
    return 2.0 * n_streams * (bits - penalty)


def _eta_value(eta) -> float:
    value = eta.eta if isinstance(eta, DistortionFactor) else float(eta)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"distortion factor must lie in [0, 1), got {value!r}")
    return value


def rate_aqnm(g, f_bb, rho: float, eta) -> RateResult:
    """Gaussian-signaling rate lower bound under the additive quantization noise model.

    log2 | I + (1-eta) (rho/Ns) F* G* (I + eta diag{(rho/Ns) G F F* G*})^{-1} G F |,
    evaluated through a Cholesky factorization of the positive-definite
    argument.  ``eta`` may be a :class:`DistortionFactor` or a bare float
    (eta = 0 recovers the unquantized log-det rate).
    """
    eta = _eta_value(eta)
    if not rho > 0:
        raise ValueError("rho must be positive")
    g_mat = _entries(g)
    f_mat = np.asarray(getattr(f_bb, "f_bb", f_bb), dtype=complex)
    if f_mat.shape[0] != g_mat.shape[1]:
        raise ValueError(f"precoder of shape {f_mat.shape} does not match G {g_mat.shape}")
    return RateResult(_aqnm_rates(g_mat @ f_mat, rho, np.array([eta]))[0], "aqnm_svd")


def _aqnm_rates(a: np.ndarray, rho: float, etas: np.ndarray) -> np.ndarray:
    """AQNM rate of the precoded channel ``a = G F_BB`` at each distortion factor.

    The row powers of ``a`` are computed once, and one stacked Cholesky
    factorizes the log-det argument of every ``eta``; each factor goes
    through the same operations as a one-``eta`` call.
    """
    n_streams = a.shape[1]
    etas = etas[:, None]
    row_power = np.einsum("ij,ij->i", a, a.conj()).real
    denom = 1.0 + etas * (rho / n_streams) * row_power
    gain = ((1.0 - etas) * (rho / n_streams))[:, :, None]
    m = np.eye(n_streams) + gain * (a.conj().T @ (a / denom[:, :, None]))
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:  # cannot happen for eta in [0,1); guard anyway
        raise ValueError("log-det argument is not positive definite") from exc
    return 2.0 * np.sum(np.log2(np.abs(np.diagonal(chol, axis1=1, axis2=2))), axis=1)


def _onebit_bound(sigma1: float, rhos, n_rf_rx: int):
    return _onebit_rate_from_snr(rhos * sigma1**2 / n_rf_rx, n_rf_rx)


def _infinite_bound(nu1: float, rhos, n_rf_rx: int):
    return n_rf_rx * np.log2(1.0 + rhos * nu1**2 / n_rf_rx)


def ub_onebit_tight(g, rho: float, n_rf_rx: int) -> RateResult:
    """One-bit capacity upper bound 2 N (1 - Hb(Q(sqrt(rho nu_1^2 / N)))).

    Saturates at 2 N bps/Hz and is met with equality when G G^* is a scaled
    identity; at low SNR it grows like (2/pi) rho nu_1^2 / ln 2.
    """
    return RateResult(_onebit_bound(_spectrum(g)[0], rho, n_rf_rx), "ub_onebit_tight")


def ub_onebit_loose(h, rho: float, n_rf_rx: int) -> RateResult:
    """Precoder-independent one-bit upper bound using the channel's own top singular value."""
    return RateResult(_onebit_bound(_spectrum(h)[0], rho, n_rf_rx), "ub_onebit_loose")


def ub_infinite(g, rho: float, n_rf_rx: int) -> RateResult:
    """Unquantized capacity bound N log2(1 + rho nu_1^2 / N); unbounded in rho."""
    return RateResult(_infinite_bound(_spectrum(g)[0], rho, n_rf_rx), "ub_infinite")


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

    ``g`` is the effective channel, ``h`` the full channel (or None) and
    ``ci_feasible`` whether channel inversion can drive ``n_streams`` streams.
    The tables several methods share are computed on first use.  A sweep
    passes the ``ci_exact_grid`` and ``precoder`` functions it resolves
    itself, so it can trace or replace them.
    """

    g: object
    h: object
    n_streams: int
    ci_feasible: bool
    grid: RateGrid
    ci_exact_grid: Callable = rate_ci_exact_grid
    precoder: Callable = svd_precoder

    @property
    def n_rf_rx(self) -> int:
        return _entries(self.g).shape[0]

    def nans(self, columns: int) -> np.ndarray:
        return np.full((len(self.grid.rhos), columns), math.nan)

    @cached_property
    def snr_ci(self) -> np.ndarray:
        """Sub-channel SNR of channel inversion, rho / sum(nu^-2), at each rho."""
        beta = float(np.sum(_spectrum(self.g) ** -2.0))
        return self.grid.rhos / beta

    @cached_property
    def ci_exact(self) -> np.ndarray:
        """(S, B) exact channel-inversion rates; one grid call per bit depth."""
        if not self.ci_feasible:
            return self.nans(len(self.grid.bits))
        return np.stack(
            [self.ci_exact_grid(b, self.snr_ci, self.n_streams) for b in self.grid.bits], axis=1
        )

    @cached_property
    def aqnm(self) -> np.ndarray:
        """(S, B) AQNM rates of SVD precoding; NaN if G has too low a rank for it."""
        out = self.nans(len(self.grid.bits))
        rhos = self.grid.rhos.tolist()
        try:
            f_bbs = [self.precoder(self.g, rho, self.n_streams) for rho in rhos]
        except RankDeficientChannelError:
            return out  # the rank test does not depend on rho: no SVD rate at any SNR
        g_mat = _entries(self.g)
        for s, (rho, f_bb) in enumerate(zip(rhos, f_bbs)):
            a = g_mat @ np.asarray(getattr(f_bb, "f_bb", f_bb), dtype=complex)
            out[s] = _aqnm_rates(a, rho, self.grid.etas)
        return out


def _ci_fano_kernel(x: ChannelRates) -> np.ndarray:
    if not x.ci_feasible:
        return x.nans(len(x.grid.bits))
    return np.stack(
        [_fano_rate(b, _pam_error_probability(b, x.snr_ci), x.n_streams) for b in x.grid.bits],
        axis=1,
    )


def _ci_onebit_kernel(x: ChannelRates) -> np.ndarray:
    if not x.ci_feasible:
        return x.nans(1)
    return _onebit_rate_from_snr(snr_ci(x.g, x.grid.rhos), x.n_streams)[:, None]


def _hybrid_kernel(x: ChannelRates) -> np.ndarray:
    # max(ci, svd) as Python's max breaks ties; NaN whenever the SVD rate is,
    # so hybrid >= aqnm_svd survives averaging
    ci, svd = x.ci_exact, x.aqnm
    return np.where(svd <= ci, ci, svd)


def _ub_onebit_loose_kernel(x: ChannelRates) -> np.ndarray:
    if x.h is None:
        raise ValueError("ub_onebit_loose needs the full channel matrix")
    return _onebit_bound(_spectrum(x.h)[0], x.grid.rhos, x.n_rf_rx)[:, None]


@dataclass(frozen=True)
class RateMethod:
    """A rate method: the grid cells it fills and the kernel that fills them.

    ``kind`` is ``"bits"`` (one cell per SNR and bit depth), ``"onebit"``
    (one cell per SNR at bits=1) or ``"unquantized"`` (one cell per SNR,
    tagged bits=0).  ``kernel`` maps a :class:`ChannelRates` to an (S, B)
    array, B being the number of bit depths the grid gives.
    """

    kind: str
    kernel: Callable[[ChannelRates], np.ndarray]

    def cell_bits(self, bits_grid) -> tuple[int, ...]:
        """The bits value of each of the method's cells at one SNR."""
        return {"bits": tuple(bits_grid), "onebit": (1,), "unquantized": (0,)}[self.kind]


# The one table of rate methods: validation, the sweep and evaluate() read it.
METHODS: dict[str, RateMethod] = {
    "ci_exact": RateMethod("bits", lambda x: x.ci_exact),
    "ci_fano": RateMethod("bits", _ci_fano_kernel),
    "ci_onebit": RateMethod("onebit", _ci_onebit_kernel),
    "aqnm_svd": RateMethod("bits", lambda x: x.aqnm),
    "ub_onebit_tight": RateMethod(
        "onebit", lambda x: _onebit_bound(_spectrum(x.g)[0], x.grid.rhos, x.n_rf_rx)[:, None]
    ),
    "ub_onebit_loose": RateMethod("onebit", _ub_onebit_loose_kernel),
    "ub_infinite": RateMethod(
        "unquantized", lambda x: _infinite_bound(_spectrum(x.g)[0], x.grid.rhos, x.n_rf_rx)[:, None]
    ),
    # a composite: per realization, the larger of the channel-inversion and
    # SVD rates at the same resolution
    "hybrid": RateMethod("bits", _hybrid_kernel),
}

RATE_METHODS = tuple(METHODS)


def evaluate(query: RateQuery, g, h=None) -> RateResult:
    """Evaluate a :class:`RateQuery` against an effective channel through its kernel.

    ``h`` (the full channel) is only needed for ``ub_onebit_loose``.  The SVD
    method builds its own waterfilling precoder and Lloyd-Max distortion
    factor for the queried resolution.  The query's stream count must equal
    the receive-chain count, G's row count, as in the sweep.  A method the
    channel cannot carry raises :class:`RankDeficientChannelError`.
    """
    n_rf_rx = _entries(g).shape[0]
    if query.n_streams != n_rf_rx:
        raise ValueError(
            f"n_streams ({query.n_streams}) must equal the effective channel's "
            f"receive-chain count ({n_rf_rx})"
        )
    grid = RateGrid(np.array([query.rho]), (query.bits,), np.array([lloyd_max(query.bits)[1].eta]))
    rates = ChannelRates(g, h, query.n_streams, ci_feasible(_spectrum(g), n_rf_rx), grid)
    value = float(METHODS[query.method].kernel(rates)[0, 0])
    if math.isnan(value):
        raise RankDeficientChannelError(
            f"the effective channel cannot carry {query.method} with {query.n_streams} streams"
        )
    return RateResult(value, query.method)
