"""Baseband digital precoders: channel inversion and SVD with waterfilling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _check_positive, _is_integer, _matrix, svd_of

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
        if not np.linalg.norm(self.f_bb) ** 2 <= self.n_streams + 1e-9:  # NaN fails
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
    """The one place channel inversion raises: where :func:`ci_feasible` fails."""
    if not ci_feasible(nu, n_streams):
        raise RankDeficientChannelError(
            f"channel inversion cannot drive {n_streams} streams: G has fewer columns "
            "(n_rf_tx) than streams, or its Gram matrix is numerically singular "
            f"(condition limit {CONDITION_LIMIT:g}); use fewer receive chains"
        )


def channel_inversion_precoder(g) -> DigitalPrecoder:
    """Zero-interference precoder sqrt(Ns/beta) G^* (G G^*)^{-1}.

    G's singular values must pass :func:`ci_feasible`, the one rule: it fails
    when G has fewer columns (transmit chains) than rows (streams) or G G^*
    is ill-conditioned.  The result satisfies G F_BB = sqrt(Ns/beta) I with
    beta = tr{(G G^*)^{-1}}, so the streams decouple before quantization and
    the power constraint holds with equality.
    """
    u, nu, v = svd_of(g)
    n_streams = u.shape[0]
    _check_invertible(nu, n_streams)
    beta = float(np.sum(nu**-2.0))
    # G^* (G G^*)^{-1} = V diag(1/nu) U^*
    f_bb = np.sqrt(n_streams / beta) * (v * (1.0 / nu)[None, :]) @ u.conj().T
    return DigitalPrecoder(f_bb, beta=beta)


def snr_ci(g, rho):
    """Per-sub-channel SNR of channel-inversion transmission, rho / tr{(G G^*)^{-1}}.

    ``rho`` may be a float or an array of SNRs, each positive and finite;
    the trace is computed once.
    """
    _check_positive(rho, "rho")
    g = _matrix(g)
    _check_invertible(g.singular_values, g.entries.shape[0])
    gram = g.entries @ g.entries.conj().T
    return rho / float(np.trace(np.linalg.inv(gram)).real)


def waterfill(gains: np.ndarray, total_power: float) -> np.ndarray:
    """Waterfilling powers p_i = max(0, mu - 1/g_i) summing to ``total_power``.

    The gains must form a nonempty one-dimensional array, and they and the
    budget must be positive and finite.  Solved in closed form, so no
    iteration tolerance is involved: sorted by gain (ties keep their input
    order), the active set is the largest k whose weakest member lies within
    the budget's share of the active mean, 1/g_k - mean(1/g_1..1/g_k) <= P/k.
    Each 1/g_i is taken in units of a power of two that keeps it finite, so
    a subnormal gain, whose 1/g_i overflows, gets a finite power by the same
    rule: ``waterfill([1e-310], 1.0)`` is ``[1.0]``.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a nonempty one-dimensional array")
    _check_positive(gains, "gains")
    _check_positive(total_power, "total_power")
    order = np.argsort(-gains, kind="stable")
    # 1 unless some 1/g_i (or their sum) would overflow; then small enough
    # that every unit/g_i and their sum stay finite
    unit = 2.0 ** min(0, math.frexp(gains.min())[1] + 1020 - gains.size.bit_length())
    inv = unit / gains[order]
    budget = total_power * unit

    def active(level):
        k = gains.size
        while k > 1 and not level[k - 1] - level[:k].mean() <= budget / k:
            k -= 1
        return k

    k = active(inv)
    powers = np.zeros_like(gains)
    powers[order[:k]] = ((budget + inv[:k].sum()) / k - inv[:k]) / unit
    if abs(powers.sum() - total_power) > 1e-9 * total_power:
        # a 1/g_i that dwarfs the budget swallows it in mu - 1/g_i: measure
        # each 1/g_i from the strongest stream's, a difference that is exact
        # for ulp-close values, and choose the active set again from those
        gap = inv - inv[0]
        k = active(gap)
        powers[:] = 0.0
        powers[order[:k]] = total_power / k - (gap[:k] - gap[:k].mean()) / unit
    return powers


def svd_precoder(g, rho: float, n_streams: int) -> DigitalPrecoder:
    """Right-singular-vector precoder with waterfilling power allocation.

    Streams ride the top ``n_streams`` right singular vectors of G; powers
    come from waterfilling the unquantized per-stream gains rho*nu_i^2/Ns
    with total budget Ns, so ||F_BB||_F^2 <= Ns.  ``rho`` must be positive
    and finite, and ``n_streams`` an integer from 1 to G's smaller dimension.
    """
    _check_positive(rho, "rho")
    _, nu, v = svd_of(g)
    if not (_is_integer(n_streams) and 1 <= n_streams <= len(nu)):
        raise ValueError(f"n_streams must be in [1, {len(nu)}], got {n_streams}")
    if nu[n_streams - 1] <= nu[0] * 1e-12:
        raise RankDeficientChannelError(
            f"effective channel rank is below the requested {n_streams} streams"
        )
    gains = rho * nu[:n_streams] ** 2 / n_streams
    powers = waterfill(gains, float(n_streams))
    f_bb = v[:, :n_streams] * np.sqrt(powers)[None, :]
    return DigitalPrecoder(f_bb, power_alloc=powers)
