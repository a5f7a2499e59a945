"""Baseband digital precoders: channel inversion and SVD with waterfilling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _entries, _spectrum

__all__ = [
    "RankDeficientChannelError",
    "DigitalPrecoder",
    "channel_inversion_precoder",
    "ci_feasible",
    "snr_ci",
    "waterfill",
    "svd_precoder",
]

# Effective channels whose Gram matrix exceeds this condition number are
# treated as singular for channel inversion.
CONDITION_LIMIT = 1e12


class RankDeficientChannelError(ValueError):
    """The effective channel cannot support the requested number of streams."""


@dataclass(eq=False)
class DigitalPrecoder:
    """Baseband precoder F_BB (n_rf_tx x n_streams) with design metadata.

    ``beta`` is the channel-inversion power normalizer (None otherwise);
    ``power_alloc`` holds the waterfilling powers (None otherwise).  The
    squared Frobenius norm never exceeds the stream count.
    """

    f_bb: np.ndarray
    beta: float | None = None
    power_alloc: np.ndarray | None = None

    def __post_init__(self):
        self.f_bb = np.asarray(self.f_bb, dtype=complex)
        if np.linalg.norm(self.f_bb) ** 2 > self.n_streams + 1e-9:
            raise ValueError("precoder violates the transmit power constraint")

    @property
    def n_streams(self) -> int:
        return self.f_bb.shape[1]


def ci_feasible(nu: np.ndarray, n_streams: int) -> bool:
    """Whether channel inversion can drive ``n_streams`` streams through a G
    with nonincreasing singular values ``nu``.

    It needs ``n_streams`` nonzero singular values and a Gram condition
    number (nu_0 / nu_{n_streams-1})^2 below ``CONDITION_LIMIT``.
    """
    return bool(
        n_streams <= len(nu)
        and nu[n_streams - 1] > 0
        and (nu[0] / nu[n_streams - 1]) ** 2 < CONDITION_LIMIT
    )


def _check_invertible(nu: np.ndarray, n_streams: int) -> None:
    if not ci_feasible(nu, n_streams):
        raise RankDeficientChannelError(
            "effective channel Gram matrix is numerically singular; "
            f"reduce the stream count below {n_streams} (condition limit {CONDITION_LIMIT:g})"
        )


def channel_inversion_precoder(g) -> DigitalPrecoder:
    """Zero-interference precoder sqrt(Ns/beta) G^* (G G^*)^{-1}.

    Requires at least as many transmit chains as streams (G has at least as
    many columns as rows) and a well-conditioned G G^*.  The result satisfies
    G F_BB = sqrt(Ns/beta) I with beta = tr{(G G^*)^{-1}}, so the streams
    decouple before quantization and the power constraint holds with equality.
    """
    entries = _entries(g)
    n_streams, n_rf_tx = entries.shape
    if n_rf_tx < n_streams:
        raise RankDeficientChannelError(
            f"channel inversion needs n_rf_tx >= n_streams; got G of shape {entries.shape}. "
            "Use fewer receive chains so that only n_rf_tx streams are formed."
        )
    u, nu, vh = np.linalg.svd(entries, full_matrices=False)
    _check_invertible(nu, n_streams)
    beta = float(np.sum(nu**-2.0))
    # G^* (G G^*)^{-1} = V diag(1/nu) U^*
    f_bb = np.sqrt(n_streams / beta) * (vh.conj().T * (1.0 / nu)[None, :]) @ u.conj().T
    return DigitalPrecoder(f_bb, beta=beta)


def snr_ci(g, rho):
    """Per-sub-channel SNR of channel-inversion transmission, rho / tr{(G G^*)^{-1}}.

    ``rho`` may be a float or an array of SNRs; the trace is computed once.
    """
    if not np.all(np.asarray(rho) > 0):
        raise ValueError("rho must be positive")
    entries = _entries(g)
    nu = _spectrum(g)
    _check_invertible(nu, entries.shape[0])
    gram = entries @ entries.conj().T
    return rho / float(np.trace(np.linalg.inv(gram)).real)


def waterfill(gains: np.ndarray, total_power: float) -> np.ndarray:
    """Waterfilling powers p_i = max(0, mu - 1/g_i) summing to ``total_power``.

    Solved in closed form by sorting the gains (ties keep their input order)
    and picking the largest active set with a feasible water level, so no
    iteration tolerance is involved.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0:
        raise ValueError("gains must be nonempty")
    if np.any(gains <= 0):
        raise ValueError("gains must be positive")
    if not total_power > 0:
        raise ValueError("total_power must be positive")
    order = np.argsort(-gains, kind="stable")
    inv = 1.0 / gains[order]
    k = gains.size
    while k > 1:
        mu = (total_power + inv[:k].sum()) / k
        if mu - inv[k - 1] >= 0:
            break
        k -= 1
    else:
        mu = total_power + inv[0]
    powers = np.zeros_like(gains)
    powers[order[:k]] = mu - inv[:k]
    return powers


def svd_precoder(g, rho: float, n_streams: int) -> DigitalPrecoder:
    """Right-singular-vector precoder with waterfilling power allocation.

    Streams ride the top ``n_streams`` right singular vectors of G; powers
    come from waterfilling the unquantized per-stream gains rho*nu_i^2/Ns
    with total budget Ns, so ||F_BB||_F^2 <= Ns.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    entries = _entries(g)
    if not 1 <= n_streams <= min(entries.shape):
        raise ValueError(f"n_streams must be in [1, {min(entries.shape)}], got {n_streams}")
    _, nu, vh = np.linalg.svd(entries, full_matrices=False)
    if nu[n_streams - 1] <= nu[0] * 1e-12:
        raise RankDeficientChannelError(
            f"effective channel rank is below the requested {n_streams} streams"
        )
    gains = rho * nu[:n_streams] ** 2 / n_streams
    powers = waterfill(gains, float(n_streams))
    f_bb = vh.conj().T[:, :n_streams] * np.sqrt(powers)[None, :]
    return DigitalPrecoder(f_bb, power_alloc=powers)
