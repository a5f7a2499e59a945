"""Analog precoder/combiner design under phase-shifter hardware constraints.

The RF-domain precoder and combiner are realized with phase shifters, so every
entry must have fixed modulus (1/sqrt(antennas)); good designs are additionally
close to semi-unitary.  The alternating projection below walks between those
two constraint sets, starting from the channel's dominant singular vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateIterateError",
    "AnalogPrecoderPair",
    "EffectiveChannel",
    "alternating_projection",
    "alternating_projections",
    "effective_channel",
]


class DegenerateIterateError(RuntimeError):
    """A projected iterate lost column rank, so its inverse square root does not exist."""


def _entries(m) -> np.ndarray:
    return np.asarray(getattr(m, "entries", m), dtype=complex)


def _spectrum(m) -> np.ndarray:
    sv = getattr(m, "singular_values", None)
    if sv is not None:
        return np.asarray(sv, dtype=float)
    return np.linalg.svd(_entries(m), compute_uv=False)


@dataclass(eq=False)
class EffectiveChannel:
    """Baseband-visible channel W_RF^* H F_RF with cached singular values."""

    entries: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        self.singular_values = np.asarray(self.singular_values, dtype=float)

    @classmethod
    def from_matrix(cls, g) -> "EffectiveChannel":
        g = np.asarray(g, dtype=complex)
        return cls(g, np.linalg.svd(g, compute_uv=False))

    @property
    def shape(self):
        return self.entries.shape


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
    if (s[..., -1] <= max(a.shape[-2:]) * np.finfo(float).eps * s[..., 0]).any():
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


def alternating_projections(
    hs,
    n_rf_tx: int,
    n_rf_rxs,
    epsilon: float = 1e-5,
    max_iter: int = 1000,
) -> dict[int, list[AnalogPrecoderPair]]:
    """Alternating projection for several channels and combiner widths at once.

    Returns ``{n_rf_rx: [pair for each channel of hs]}``, where each pair is
    bit for bit what :func:`alternating_projection` gives for that channel
    and width.  The precoder iterate does not depend on the combiner width,
    so one precoder stack over the channels and one combiner stack per width
    are stepped together through the same stacked LAPACK, BLAS and
    element-wise calls the single-channel loop makes.  Every (channel, width)
    pair keeps its own stopping test, iteration cap and closing check; a
    finished pair leaves its combiner stack, and a channel leaves the
    precoder stack once all of its widths have finished.

    Raises
    ------
    DegenerateIterateError
        If a projected iterate of any channel becomes rank deficient.
    RuntimeError
        If a pair's final projection distance exceeds its first one, which
        alternating projection between closed sets rules out.
    """
    entries = [_entries(h) for h in hs]
    if not entries:
        raise ValueError("hs must hold at least one channel")
    n_chan = len(entries)
    n_rx, n_tx = entries[0].shape
    if not 1 <= n_rf_tx <= n_tx:
        raise ValueError(f"n_rf_tx must be in [1, {n_tx}], got {n_rf_tx}")
    for n_rf_rx in n_rf_rxs:
        if not 1 <= n_rf_rx <= n_rx:
            raise ValueError(f"n_rf_rx must be in [1, {n_rx}], got {n_rf_rx}")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    # Start from each channel's singular vectors, one SVD at a time, keeping
    # only the columns the iterates start from rather than every full V.
    vh_start = np.empty((n_chan, n_rf_tx, n_tx), dtype=complex)
    u_start = np.empty((n_chan, n_rx, max(n_rf_rxs, default=0)), dtype=complex)
    for i, m in enumerate(entries):
        u, _, vh = np.linalg.svd(m, full_matrices=True)
        vh_start[i] = vh[:n_rf_tx]
        u_start[i] = u[:, : u_start.shape[2]]
    f_hat = vh_start.conj().swapaxes(1, 2)
    # per width: combiner stack, channel and precoder-stack row of each of
    # its rows, and the first residual of each pair
    w_hat = {n: u_start[..., :n] for n in n_rf_rxs}
    w_chan = {n: np.arange(n_chan) for n in n_rf_rxs}
    w_rows = dict(w_chan)
    first_residual = {}
    out = {n: [None] * n_chan for n in n_rf_rxs}

    mod_w = 1.0 / np.sqrt(n_rx)
    mod_f = 1.0 / np.sqrt(n_tx)
    scale_f = np.sqrt(n_rf_tx)
    scale_w = {n: np.sqrt(n) for n in n_rf_rxs}
    for k in range(1, max_iter + 1):
        if not w_hat:
            break
        f_tilde = _phase_project(f_hat, mod_f)
        f_hat = _nearest_semi_unitary(f_tilde)
        res_f = _frobenius_norms(f_hat - f_tilde) / scale_f
        finished = False
        for n in list(w_hat):
            w_tilde = _phase_project(w_hat[n], mod_w)
            w_hat[n] = _nearest_semi_unitary(w_tilde)
            res_w = _frobenius_norms(w_hat[n] - w_tilde) / scale_w[n]
            rows = w_rows[n]
            pair_res_f = res_f[rows]
            residual = np.maximum(res_w, pair_res_f)
            if k == 1:
                first_residual[n] = residual
            converged = residual < epsilon
            if k < max_iter and not converged.any():
                continue
            done = converged if k < max_iter else np.ones_like(converged)
            # Alternating projections between closed sets cannot move farther
            # from the constraint set than the first iterate did.
            if not (residual[done] <= first_residual[n][done] * (1.0 + 1e-9) + 1e-15).all():
                raise RuntimeError("projection distance increased across iterations")
            # Copies free the stacks; order="K" keeps each matrix's layout,
            # which later matrix products see.
            for i in np.flatnonzero(done):
                out[n][w_chan[n][i]] = AnalogPrecoderPair(
                    f_rf=f_tilde[rows[i]].copy(order="K"),
                    w_rf=w_tilde[i].copy(order="K"),
                    residual_f=float(pair_res_f[i]),
                    residual_w=float(res_w[i]),
                    iterations=k,
                    converged=bool(converged[i]),
                )
            keep = ~done
            if keep.any():
                w_hat[n], w_chan[n], w_rows[n] = w_hat[n][keep], w_chan[n][keep], rows[keep]
                first_residual[n] = first_residual[n][keep]
            else:
                del w_hat[n], w_chan[n], w_rows[n]
            finished = True
        if finished:
            # keep the precoder rows that some width still reads
            live = np.zeros(len(f_hat), dtype=bool)
            for rows in w_rows.values():
                live[rows] = True
            if not live.all():
                f_hat = f_hat[live]
                new_row = np.cumsum(live) - 1
                for n in w_rows:
                    w_rows[n] = new_row[w_rows[n]]
    return out


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
    returned with ``converged=False``).

    The returned matrices are the fixed-modulus iterates, which the hardware
    can realize exactly; the residuals quantify how far they are from
    semi-unitary.  This is :func:`alternating_projections` for one channel
    and one width.

    Raises
    ------
    DegenerateIterateError
        If a projected iterate becomes rank deficient.
    RuntimeError
        If the final projection distance exceeds the first one, which
        alternating projection between closed sets rules out.
    """
    return alternating_projections([h], n_rf_tx, [n_rf_rx], epsilon, max_iter)[n_rf_rx][0]


def effective_channel(h, w_rf, f_rf=None) -> EffectiveChannel:
    """Form G = W_RF^* H F_RF and cache its singular values.

    ``w_rf`` may be an :class:`AnalogPrecoderPair` (then ``f_rf`` is taken
    from it) or an explicit combiner matrix with ``f_rf`` given separately,
    which allows evaluating unconstrained reference precoders.
    """
    if f_rf is None:
        pair = w_rf
        w, f = np.asarray(pair.w_rf), np.asarray(pair.f_rf)
    else:
        w, f = np.asarray(w_rf, dtype=complex), np.asarray(f_rf, dtype=complex)
    entries = _entries(h)
    if w.shape[0] != entries.shape[0] or f.shape[0] != entries.shape[1]:
        raise ValueError(
            f"shape mismatch: H is {entries.shape}, W_RF is {w.shape}, F_RF is {f.shape}"
        )
    return EffectiveChannel.from_matrix(w.conj().T @ entries @ f)
