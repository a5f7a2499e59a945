"""Analog precoder/combiner design under phase-shifter hardware constraints.

The RF-domain precoder and combiner are realized with phase shifters, so every
entry must have fixed modulus (1/sqrt(antennas)); good designs are additionally
close to semi-unitary.  The alternating projection below walks between those
two constraint sets, starting from the channel's dominant singular vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, _check_count, _check_positive, _entries, _is_integer

__all__ = [
    "DegenerateIterateError",
    "AnalogPrecoderPair",
    "alternating_projection",
    "effective_channel",
]


class DegenerateIterateError(RuntimeError):
    """A projected iterate lost column rank, so its inverse square root does not exist."""


_EPS = np.finfo(float).eps


@dataclass(eq=False)
class AnalogPrecoderPair:
    """Constant-modulus analog precoder F_RF and combiner W_RF.

    ``residual_f`` and ``residual_w`` are the normalized Frobenius distances
    from the returned matrices to their nearest semi-unitary matrices at exit,
    i.e. the stopping quantities of the alternating projection.  ``converged``
    is False when the iteration cap was hit before both residuals fell below
    the requested threshold.
    """

    f_rf: np.ndarray
    w_rf: np.ndarray
    residual_f: float
    residual_w: float
    iterations: int
    converged: bool = True

    def __post_init__(self):
        self.f_rf = np.asarray(self.f_rf, dtype=complex)
        self.w_rf = np.asarray(self.w_rf, dtype=complex)
        for name, mat in (("f_rf", self.f_rf), ("w_rf", self.w_rf)):
            target = 1.0 / np.sqrt(mat.shape[0])
            if np.max(np.abs(np.abs(mat) - target)) > 1e-12:
                raise ValueError(f"{name} entries must all have modulus {target:.6g}")
        if self.residual_f < 0 or self.residual_w < 0:
            raise ValueError("residuals must be nonnegative")


def _phase_project(a: np.ndarray, modulus: float) -> np.ndarray:
    # Nearest fixed-modulus matrix: keep phases, normalize amplitudes.
    # np.angle maps exact zeros to phase 0, the deterministic tie-break.
    return modulus * np.exp(1j * np.angle(a))


def _nearest_semi_unitary(a: np.ndarray) -> np.ndarray:
    # Polar factor A (A^*A)^{-1/2}, computed through the SVD for stability.
    # Accepts a stack of matrices; any rank-deficient member raises.
    p, s, qh = np.linalg.svd(a, full_matrices=False)
    if (s[..., -1] <= max(a.shape[-2:]) * _EPS * s[..., 0]).any():
        raise DegenerateIterateError(
            "projected iterate is numerically rank deficient; cannot form (A^*A)^(-1/2)"
        )
    return p @ qh


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    # One norm per matrix, with the same BLAS dots as np.linalg.norm on that
    # matrix alone; batched reductions (einsum, vecdot, norm(axis=)) can
    # differ from it in the last bit.
    out = np.empty(len(stack))
    for i, m in enumerate(stack):
        x = m.ravel(order="K")
        re, im = x.real, x.imag
        out[i] = re.dot(re) + im.dot(im)
    return np.sqrt(out, out=out)


def _project(stack: np.ndarray):
    # One AP step on a stack of antennas x width iterates: the fixed-modulus
    # projection, its polar factor, and their distance per matrix over sqrt(width).
    tilde = _phase_project(stack, 1.0 / np.sqrt(stack.shape[-2]))
    hat = _nearest_semi_unitary(tilde)
    return tilde, hat, _frobenius_norms(hat - tilde) / math.sqrt(stack.shape[-1])


def _projection_stream(
    hs, n_rf_tx: int, n_rf_rxs, epsilon: float = 1e-5, max_iter: int = 1000
):
    """Alternating projection for channels ``hs`` of one shape at every width in ``n_rf_rxs``.

    Yields ``(n_rf_rx, channel index, pair)`` once per (width, channel), as
    the pair passes its closing check, so pairs that stop early can be used
    while the rest iterate.  Each pair is bit for bit what a loop over that
    one channel and width gives: the precoder iterate does not depend on the
    combiner width, so one precoder stack over the channels and one combiner
    stack per width step through the same stacked LAPACK, BLAS and
    element-wise calls, and each pair keeps its own stopping test, iteration
    cap and closing check.  A finished pair leaves its combiner stack, and a
    channel leaves the precoder stack once all of its widths have finished.
    Raises as :func:`alternating_projection` does, for any channel.
    """
    entries = [_entries(h) for h in hs]
    if not entries:
        raise ValueError("hs must hold at least one channel")
    n_chan = len(entries)
    n_rx, n_tx = entries[0].shape
    for i, m in enumerate(entries):
        if m.shape != entries[0].shape:
            raise ValueError(f"hs[{i}] has shape {m.shape}, but hs[0] has shape {entries[0].shape}")
    if not (_is_integer(n_rf_tx) and 1 <= n_rf_tx <= n_tx):
        raise ValueError(f"n_rf_tx must be in [1, {n_tx}], got {n_rf_tx}")
    for n_rf_rx in n_rf_rxs:
        if not (_is_integer(n_rf_rx) and 1 <= n_rf_rx <= n_rx):
            raise ValueError(f"n_rf_rx must be in [1, {n_rx}], got {n_rf_rx}")
    _check_positive(epsilon, "epsilon")
    _check_count(max_iter, "max_iter")

    # Start from each channel's singular vectors, one SVD at a time, keeping
    # only the columns the iterates start from rather than every full V.
    vh_start = np.empty((n_chan, n_rf_tx, n_tx), dtype=complex)
    u_start = np.empty((n_chan, n_rx, max(n_rf_rxs, default=0)), dtype=complex)
    for i, m in enumerate(entries):
        u, _, vh = np.linalg.svd(m, full_matrices=True)
        vh_start[i] = vh[:n_rf_tx]
        u_start[i] = u[:, : u_start.shape[2]]
    f_hat = vh_start.conj().swapaxes(1, 2)
    # precoder stack: one row per live channel, sorted; per width, one record:
    # its combiner stack, the channel of each row, and each pair's first residual
    f_chan = np.arange(n_chan)
    pending = {n: (u_start[..., :n], f_chan, None) for n in n_rf_rxs}

    for k in range(1, max_iter + 1):
        if not pending:
            break
        f_tilde, f_hat, res_f = _project(f_hat)
        finished = False
        for n, (w_hat, chan, first) in list(pending.items()):
            w_tilde, w_hat, res_w = _project(w_hat)
            rows = f_chan.searchsorted(chan)
            pair_res_f = res_f[rows]
            residual = np.maximum(res_w, pair_res_f)
            if k == 1:
                first = residual
            converged = residual < epsilon
            if k < max_iter and not converged.any():
                pending[n] = w_hat, chan, first
                continue
            done = converged if k < max_iter else np.ones_like(converged)
            # Alternating projections between closed sets cannot move farther
            # from the constraint set than the first iterate did.
            if not (residual[done] <= first[done] * (1.0 + 1e-9) + 1e-15).all():
                raise RuntimeError("projection distance increased across iterations")
            # Copies free the stacks; order="K" keeps each matrix's layout,
            # which later matrix products see.
            for i in np.flatnonzero(done):
                yield n, int(chan[i]), AnalogPrecoderPair(
                    f_rf=f_tilde[rows[i]].copy(order="K"),
                    w_rf=w_tilde[i].copy(order="K"),
                    residual_f=float(pair_res_f[i]),
                    residual_w=float(res_w[i]),
                    iterations=k,
                    converged=bool(converged[i]),
                )
            keep = ~done
            if keep.any():
                pending[n] = w_hat[keep], chan[keep], first[keep]
            else:
                del pending[n]
            finished = True
        if finished and pending:
            # keep the precoder rows of the channels some width still reads
            live = np.unique(np.concatenate([chan for _, chan, _ in pending.values()]))
            f_hat, f_chan = f_hat[f_chan.searchsorted(live)], live


def alternating_projection(
    h,
    n_rf_tx: int,
    n_rf_rx: int,
    epsilon: float = 1e-5,
    max_iter: int = 1000,
) -> AnalogPrecoderPair:
    """Design F_RF (n_tx x n_rf_tx) and W_RF (n_rx x n_rf_rx) by alternating projection.

    Starting from the top singular vectors of the channel, each iteration
    projects onto the fixed-modulus set (phase extraction) and back onto the
    semi-unitary set (polar factor).  The loop exits when both normalized
    distances ||semi_unitary - fixed_modulus||_F / sqrt(n_rf) drop below
    ``epsilon``, or after ``max_iter`` iterations (the last iterate is then
    returned with ``converged=False``).  The chain counts and ``max_iter``
    are integers of at least 1, and ``epsilon`` is positive and finite.

    The returned matrices are the fixed-modulus iterates, which the hardware
    can realize exactly; the residuals quantify how far they are from
    semi-unitary.  This is :func:`_projection_stream` for one channel and
    one width.

    Raises
    ------
    DegenerateIterateError
        If a projected iterate becomes rank deficient.
    RuntimeError
        If the final projection distance exceeds the first one, which
        alternating projection between closed sets rules out.
    """
    ((_, _, pair),) = _projection_stream([h], n_rf_tx, [n_rf_rx], epsilon, max_iter)
    return pair


def effective_channel(h, w_rf, f_rf=None) -> ChannelMatrix:
    """Form G = W_RF^* H F_RF and cache its singular values.

    ``w_rf`` may be an :class:`AnalogPrecoderPair` (then ``f_rf`` is taken
    from it) or an explicit combiner matrix with ``f_rf`` given separately,
    which allows evaluating unconstrained reference precoders.
    """
    if f_rf is None:
        w_rf, f_rf = w_rf.w_rf, w_rf.f_rf
    w, f = np.asarray(w_rf, dtype=complex), np.asarray(f_rf, dtype=complex)
    entries = _entries(h)
    if w.shape[0] != entries.shape[0] or f.shape[0] != entries.shape[1]:
        raise ValueError(
            f"shape mismatch: H is {entries.shape}, W_RF is {w.shape}, F_RF is {f.shape}"
        )
    return ChannelMatrix(w.conj().T @ entries @ f)
