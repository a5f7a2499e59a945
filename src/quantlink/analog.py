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
    p, s, qh = np.linalg.svd(a, full_matrices=False)
    if s[-1] <= max(a.shape) * np.finfo(float).eps * s[0]:
        raise DegenerateIterateError(
            "projected iterate is numerically rank deficient; cannot form (A^*A)^(-1/2)"
        )
    return p @ qh


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
    semi-unitary.

    Raises
    ------
    DegenerateIterateError
        If a projected iterate becomes rank deficient.
    RuntimeError
        If the final projection distance exceeds the first one, which
        alternating projection between closed sets rules out.
    """
    entries = _entries(h)
    n_rx, n_tx = entries.shape
    if not 1 <= n_rf_tx <= n_tx:
        raise ValueError(f"n_rf_tx must be in [1, {n_tx}], got {n_rf_tx}")
    if not 1 <= n_rf_rx <= n_rx:
        raise ValueError(f"n_rf_rx must be in [1, {n_rx}], got {n_rf_rx}")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    u, _, vh = np.linalg.svd(entries, full_matrices=True)
    v = vh.conj().T
    w_hat = u[:, :n_rf_rx]
    f_hat = v[:, :n_rf_tx]

    mod_w = 1.0 / np.sqrt(n_rx)
    mod_f = 1.0 / np.sqrt(n_tx)
    first_residual = None
    converged = False
    for k in range(1, max_iter + 1):
        w_tilde = _phase_project(w_hat, mod_w)
        f_tilde = _phase_project(f_hat, mod_f)
        w_hat = _nearest_semi_unitary(w_tilde)
        f_hat = _nearest_semi_unitary(f_tilde)
        res_w = np.linalg.norm(w_hat - w_tilde) / np.sqrt(n_rf_rx)
        res_f = np.linalg.norm(f_hat - f_tilde) / np.sqrt(n_rf_tx)
        if first_residual is None:
            first_residual = max(res_w, res_f)
        if res_w < epsilon and res_f < epsilon:
            converged = True
            break

    # Alternating projections between closed sets cannot move farther from
    # the constraint set than the first iterate did.
    if not max(res_w, res_f) <= first_residual * (1.0 + 1e-9) + 1e-15:
        raise RuntimeError("projection distance increased across iterations")
    return AnalogPrecoderPair(
        f_rf=f_tilde,
        w_rf=w_tilde,
        residual_f=float(res_f),
        residual_w=float(res_w),
        iterations=k,
        converged=converged,
    )


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
