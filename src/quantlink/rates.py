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

from dataclasses import dataclass

import numpy as np

from .analog import _entries, _spectrum
from .digital import snr_ci, svd_precoder
# build_transition_matrix is not called here; it stays a module global
# because perfbench's tracer wraps it by name.
from .quantizers import (
    DistortionFactor,
    TransitionMatrix,
    _check_bits,
    _check_snr_grid,
    build_transition_matrix,
    build_transition_matrices,
    lloyd_max,
    pam_error_probability,
    qfunc,
)

__all__ = [
    "RATE_METHODS",
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

RATE_METHODS = (
    "ci_exact",
    "ci_fano",
    "ci_onebit",
    "aqnm_svd",
    "ub_onebit_tight",
    "ub_onebit_loose",
    "ub_infinite",
)

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
        if self.method not in RATE_METHODS:
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
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


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


def _onebit_rate_from_snr(snr: float, n: int) -> float:
    return 2.0 * n * (1.0 - binary_entropy(float(qfunc(np.sqrt(snr)))))


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
    sum as :func:`discrete_mi`.  One bit uses the antipodal closed form.
    """
    bits = _check_bits(bits)
    snr_ci = _check_snr_grid(snr_ci)
    if bits == 1:
        # same quantity; the closed form avoids needless matrix assembly
        return np.array([_onebit_rate_from_snr(float(s), n_streams) for s in snr_ci])
    m = 2**bits
    prior = np.full(m, 1.0 / m)
    mi = np.empty(snr_ci.size)
    per_batch = max(1, _BATCH_ENTRIES // (m * m))
    for start in range(0, snr_ci.size, per_batch):
        t = build_transition_matrices(bits, snr_ci[start : start + per_batch])
        marginal = np.matmul(prior, t)
        joint = prior[:, None] * t
        mask = joint > 0
        log_marginal = np.log(marginal, where=marginal > 0, out=np.zeros_like(marginal))
        # log(0) = -inf and 0 * -inf = nan occur only outside the mask
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = joint * (np.log(t) - log_marginal[:, None, :])
        for k in range(t.shape[0]):
            nats = float(np.sum(terms[k][mask[k]]))
            mi[start + k] = max(nats / _LN2, 0.0)
    return 2.0 * n_streams * mi


def rate_ci_fano(bits: int, snr_ci: float, n_streams: int) -> RateResult:
    """Fano lower bound 2 Ns (b - Hb(Pe) - Pe log2(2^b - 1)) on the exact rate."""
    pe = pam_error_probability(bits, snr_ci)
    penalty = binary_entropy(pe) + pe * np.log2(2.0**bits - 1.0)
    return RateResult(2.0 * n_streams * (bits - penalty), "ci_fano")


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
    n_streams = f_mat.shape[1]
    a = g_mat @ f_mat
    denom = 1.0 + eta * (rho / n_streams) * np.einsum("ij,ij->i", a, a.conj()).real
    m = np.eye(n_streams) + (1.0 - eta) * (rho / n_streams) * (a.conj().T @ (a / denom[:, None]))
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:  # cannot happen for eta in [0,1); guard anyway
        raise ValueError("log-det argument is not positive definite") from exc
    return RateResult(float(2.0 * np.sum(np.log2(np.abs(np.diag(chol))))), "aqnm_svd")


def ub_onebit_tight(g, rho: float, n_rf_rx: int) -> RateResult:
    """One-bit capacity upper bound 2 N (1 - Hb(Q(sqrt(rho nu_1^2 / N)))).

    Saturates at 2 N bps/Hz and is met with equality when G G^* is a scaled
    identity; at low SNR it grows like (2/pi) rho nu_1^2 / ln 2.
    """
    nu1 = _spectrum(g)[0]
    return RateResult(_onebit_rate_from_snr(rho * nu1**2 / n_rf_rx, n_rf_rx), "ub_onebit_tight")


def ub_onebit_loose(h, rho: float, n_rf_rx: int) -> RateResult:
    """Precoder-independent one-bit upper bound using the channel's own top singular value."""
    sigma1 = _spectrum(h)[0]
    return RateResult(_onebit_rate_from_snr(rho * sigma1**2 / n_rf_rx, n_rf_rx), "ub_onebit_loose")


def ub_infinite(g, rho: float, n_rf_rx: int) -> RateResult:
    """Unquantized capacity bound N log2(1 + rho nu_1^2 / N); unbounded in rho."""
    nu1 = _spectrum(g)[0]
    return RateResult(float(n_rf_rx * np.log2(1.0 + rho * nu1**2 / n_rf_rx)), "ub_infinite")


def evaluate(query: RateQuery, g, h=None) -> RateResult:
    """Dispatch a :class:`RateQuery` against an effective channel.

    ``h`` (the full channel) is only needed for ``ub_onebit_loose``.  The SVD
    method builds its own waterfilling precoder and Lloyd-Max distortion
    factor for the queried resolution.
    """
    n_rf_rx = _entries(g).shape[0]
    if query.method == "ci_exact":
        return rate_ci_exact(query.bits, snr_ci(g, query.rho), query.n_streams)
    if query.method == "ci_fano":
        return rate_ci_fano(query.bits, snr_ci(g, query.rho), query.n_streams)
    if query.method == "ci_onebit":
        return rate_ci_onebit(g, query.rho, query.n_streams)
    if query.method == "aqnm_svd":
        f_bb = svd_precoder(g, query.rho, query.n_streams)
        return rate_aqnm(g, f_bb, query.rho, lloyd_max(query.bits)[1])
    if query.method == "ub_onebit_tight":
        return ub_onebit_tight(g, query.rho, n_rf_rx)
    if query.method == "ub_onebit_loose":
        if h is None:
            raise ValueError("ub_onebit_loose needs the full channel matrix")
        return ub_onebit_loose(h, query.rho, n_rf_rx)
    if query.method == "ub_infinite":
        return ub_infinite(g, query.rho, n_rf_rx)
    raise ValueError(f"unknown rate method {query.method!r}")
