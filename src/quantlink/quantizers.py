"""Scalar ADC models: matched uniform quantizers for PAM inputs, Lloyd-Max
quantizers for Gaussian inputs, transition probabilities and distortion factors.

Complex samples are quantized component-wise, so everything here is stated for
one real dimension with unit noise standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, ndtri

from .channel import _check_positive, _is_integer

__all__ = [
    "MAX_BITS",
    "QuantizerSpec",
    "TransitionMatrix",
    "DistortionFactor",
    "gauss_cdf",
    "qfunc",
    "matched_stepsize",
    "uniform_pam_quantizer",
    "build_transition_matrix",
    "build_transition_matrices",
    "lloyd_max",
    "high_resolution_distortion",
    "pam_error_probability",
]

MAX_BITS = 8

_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def gauss_cdf(x):
    """Standard normal CDF, Q(-x)."""
    return qfunc(-np.asarray(x, dtype=float))


def qfunc(x):
    """Standard normal tail probability Q(x) = 1 - CDF(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def _gauss_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _check_bits(bits: int) -> int:
    if not _is_integer(bits) or not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be an integer in [1, {MAX_BITS}], got {bits!r}")
    return int(bits)


def _check_snr_grid(snr) -> np.ndarray:
    snr = np.asarray(snr, dtype=float)
    if snr.ndim != 1:
        raise ValueError("snr must be a one-dimensional array")
    _check_positive(snr, "snr")
    return snr


@dataclass(eq=False)
class QuantizerSpec:
    """Thresholds and output levels of one scalar quantizer.

    Thresholds sit at level midpoints; levels are equispaced PAM points (in
    noise-std units) or, for Lloyd-Max, MSE-optimal for a unit Gaussian input.
    """

    bits: int
    thresholds: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        self.bits = _check_bits(self.bits)
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        self.levels = np.asarray(self.levels, dtype=float)
        m = 2**self.bits
        if self.levels.shape != (m,) or self.thresholds.shape != (m - 1,):
            raise ValueError(f"need {m} levels and {m - 1} thresholds for {self.bits} bits")
        if np.any(np.diff(self.levels) <= 0) or np.any(np.diff(self.thresholds) <= 0):
            raise ValueError("levels and thresholds must be strictly increasing")
        midpoints = 0.5 * (self.levels[1:] + self.levels[:-1])
        if np.max(np.abs(self.thresholds - midpoints)) > 1e-12 * max(1.0, self.levels[-1]):
            raise ValueError("thresholds must sit at the midpoints of adjacent levels")


def _check_row_stochastic(entries: np.ndarray) -> None:
    """Entries in [0, 1], rows summing to 1 within 1e-12, over a matrix or a
    stack.  A NaN entry, which an overflowed step size leaves, fails both."""
    if entries.size and not (entries.min() >= 0 and entries.max() <= 1):
        raise ValueError("transition probabilities must lie in [0, 1]")
    if entries.size and not np.max(np.abs(entries.sum(axis=-1) - 1.0)) <= 1e-12:
        raise ValueError("every row must sum to 1 within 1e-12")


@dataclass(eq=False)
class TransitionMatrix:
    """Row-stochastic 2^b x 2^b matrix, rows indexed by input symbol, columns
    by quantizer output region.  Sign symmetry of the Gaussian noise makes
    entry (i, j) equal entry (2^b-1-i, 2^b-1-j)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        m = self.entries.shape[0]
        if self.entries.shape != (m, m) or m < 2 or m & (m - 1):
            raise ValueError("transition matrix must be square with a power-of-two size")
        _check_row_stochastic(self.entries)


@dataclass(frozen=True)
class DistortionFactor:
    """Normalized MSE of a b-bit quantizer on a unit-variance Gaussian input."""

    bits: int
    eta: float

    def __post_init__(self):
        _check_bits(self.bits)
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta!r}")


def matched_stepsize(bits: int, snr: float) -> float:
    """Step size over noise std for equiprobable 2^b-PAM at the given sub-channel SNR.

    Follows from the mean power of the +-delta/2, +-3*delta/2, ... grid:
    delta/xi = sqrt(12 snr / (2^(2b) - 1)); ``snr`` must be positive and finite.
    """
    bits = _check_bits(bits)
    _check_positive(snr, "snr")
    return float(_step(bits, snr))


def _step(bits, snr):
    """:func:`matched_stepsize` element-wise over ``bits`` and ``snr``, unchecked."""
    return np.sqrt(12.0 * snr / (4.0**bits - 1.0))


def _pam_grid(bits: int, step):
    """Thresholds and levels of matched 2^b-PAM at ``step``, a scalar or an (S, 1) column."""
    m = 2**bits
    thresholds = (np.arange(m - 1) - (m - 2) / 2.0) * step
    levels = (np.arange(m) - (m - 1) / 2.0) * step
    return thresholds, levels


def uniform_pam_quantizer(bits: int, snr: float) -> QuantizerSpec:
    """Uniform mid-rise quantizer matched to 2^b-PAM at the given SNR (xi = 1)."""
    return QuantizerSpec(bits, *_pam_grid(bits, matched_stepsize(bits, snr)))


def build_transition_matrix(bits: int, snr: float) -> TransitionMatrix:
    """Transition probabilities of the matched uniform quantizer on a Gaussian channel.

    Row i gives, for PAM input symbol i, the probability of each output
    region: differences of the normal CDF at the thresholds shifted by the
    symbol.  Rows for the upper half of the alphabet are the mirror images of
    the lower half, which encodes the sign symmetry exactly.

    This row-by-row form is the public reference oracle.  The sweep's batched
    ``_fill_transition_matrices``, called by :func:`rates.rate_ci_exact_grid`,
    must match it bit for bit.
    """
    spec = uniform_pam_quantizer(bits, snr)
    m = 2**bits
    entries = np.empty((m, m))
    for i in range(m // 2):
        edges = gauss_cdf(spec.thresholds - spec.levels[i])
        row = np.diff(np.concatenate(([0.0], edges, [1.0])))
        # CDF differences of near-one values can round to tiny negatives
        np.maximum(row, 0.0, out=row)
        entries[i] = row
        entries[m - 1 - i] = row[::-1]
    return TransitionMatrix(entries)


def build_transition_matrices(bits: int, snr) -> np.ndarray:
    """Stack of the (S, 2^b, 2^b) transition matrices for S sub-channel SNRs.

    Performs the same element-wise floating-point operations as
    :func:`build_transition_matrix`, so ``out[k]`` equals
    ``build_transition_matrix(bits, snr[k]).entries`` bit for bit, and runs
    the same checks as :class:`TransitionMatrix` over the whole stack.
    """
    bits = _check_bits(bits)
    snr = _check_snr_grid(snr)
    m = 2**bits
    out = np.empty((snr.size, m, m))
    _fill_transition_matrices(bits, snr, out)
    return out


def _fill_transition_matrices(bits: int, snr: np.ndarray, out: np.ndarray) -> None:
    """Write the transition matrices of the validated SNRs ``snr`` into ``out``.

    ``out`` is (S, 2^b, 2^b), written in place, and this is the one place
    the mirror symmetry is formed.  The CDF at the shifted thresholds is
    built in the lower half of each matrix (rows 2^(b-1) on, columns
    0..2^b - 2), the upper half is formed from it, and mirroring the upper
    half overwrites the CDF last, so the CDF needs no array of its own.  The
    region probabilities are the differences of the CDF row padded with 0
    and 1, as ``np.diff`` forms them in :func:`build_transition_matrix`.
    """
    thresholds, levels = _pam_grid(bits, _step(bits, snr)[:, None])
    m = 2**bits
    half = m // 2
    cdf = out[:, half:, : m - 1]
    # gauss_cdf(t - l) = qfunc(l - t) = 0.5 erfc((l - t) / sqrt 2); l - t is -(t - l) exactly
    np.subtract(levels[:, :half, None], thresholds[:, None, :], out=cdf)
    np.divide(cdf, _SQRT2, out=cdf)
    erfc(cdf, out=cdf)
    np.multiply(cdf, 0.5, out=cdf)
    rows = out[:, :half]
    rows[:, :, 0] = cdf[:, :, 0]  # cdf - 0.0 is cdf
    np.subtract(cdf[:, :, 1:], cdf[:, :, :-1], out=rows[:, :, 1 : m - 1])
    np.subtract(1.0, cdf[:, :, -1], out=rows[:, :, m - 1])
    np.maximum(rows, 0.0, out=rows)  # as in the row loop: clamp roundoff negatives
    for matrix in out:  # one at a time: a whole-stack mirror copies the source first
        matrix[half:] = matrix[:half][::-1, ::-1]
    _check_row_stochastic(out)


def _lloyd_map_half(levels: np.ndarray):
    """One Lloyd step restricted to the positive half line.

    Cell edges are (0, midpoints..., +inf); probabilities use tail-probability
    differences, which stay well conditioned far into the tail.  Returns the
    updated levels (conditional means), cell probabilities, and lower edges.
    """
    edges = np.concatenate(([0.0], 0.5 * (levels[1:] + levels[:-1])))
    tail = np.concatenate((qfunc(edges), [0.0]))
    dens = np.concatenate((_gauss_pdf(edges), [0.0]))
    prob = tail[:-1] - tail[1:]
    cond_mean = (dens[:-1] - dens[1:]) / prob
    return cond_mean, prob, edges


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Solve a tridiagonal system for one right-hand side.

    ``sub``, ``diag`` and ``sup`` are the n-1, n and n-1 entries below, on and
    above the diagonal.  The floating-point operations are LAPACK ``dgtsv``'s,
    in its order: elimination with partial pivoting (rows i and i+1 swap when
    |sub_i| > |diag_i|), keeping the second-superdiagonal fill-in of a swap,
    then back substitution.  Python floats are IEEE doubles, so the result
    equals SciPy's ``solve_banded((1, 1), ...)`` bit for bit.  A zero
    pivot raises ``np.linalg.LinAlgError``.
    """
    dl, d, du, x = (np.asarray(v, dtype=float).tolist() for v in (sub, diag, sup, rhs))
    n = len(d)
    du2 = [0.0] * n
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular tridiagonal matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            x[i + 1] = x[i + 1] - fact * x[i]
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            du[i] = temp
            x[i], x[i + 1] = x[i + 1], x[i] - fact * x[i + 1]
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("singular tridiagonal matrix")
    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return np.array(x)


@lru_cache(maxsize=None)
def _lloyd_fixed_point(bits: int):
    """Solve the Lloyd-Max stationarity conditions on the positive half line.

    Newton iterations on l_j - E[y | cell_j(l)] = 0 with the tridiagonal
    Jacobian converge from the Gaussian-quantile start in a handful of steps;
    the result is certified by checking that one full Lloyd step moves no
    level by more than 1e-12.  One bit is the 1x1 case: its single cell's
    conditional mean does not depend on the level, so the first step lands
    on it.  Each Newton step is solved by
    :func:`_solve_tridiagonal`, which reproduces LAPACK ``dgtsv`` (the
    routine behind SciPy's ``solve_banded``) bit for bit, so the package
    needs only ``scipy.special`` from scipy.
    """
    half = 2 ** (bits - 1)
    levels = ndtri(0.5 + (np.arange(half) + 0.5) / (2 * half))
    for _ in range(60):
        cond_mean, prob, edges = _lloyd_map_half(levels)
        residual = levels - cond_mean
        dens = _gauss_pdf(edges)
        # d(cond mean)/d(lower edge) and /d(upper edge) for each cell
        dga = dens * (cond_mean - edges) / prob
        dgb = np.zeros(half)
        dgb[:-1] = dens[1:] * (edges[1:] - cond_mean[:-1]) / prob[:-1]
        diag = np.ones(half)
        diag[1:] -= dga[1:] / 2.0  # lowest cell's lower edge is fixed at 0
        diag[:-1] -= dgb[:-1] / 2.0  # top cell's upper edge is +inf
        step = _solve_tridiagonal(-dga[1:] / 2.0, diag, -dgb[:-1] / 2.0, residual)
        levels = levels - step
        if np.max(np.abs(step)) < 1e-14:
            break
    cond_mean, prob, _ = _lloyd_map_half(levels)
    if np.max(np.abs(cond_mean - levels)) > 1e-12:
        raise RuntimeError(f"Lloyd-Max solver did not reach a 1e-12 fixed point for b={bits}")
    eta = 1.0 - 2.0 * float(prob @ (levels * levels))
    full_levels = np.concatenate((-levels[::-1], levels))
    full_levels.setflags(write=False)
    return full_levels, eta


def lloyd_max(bits: int) -> tuple[QuantizerSpec, DistortionFactor]:
    """MSE-optimal quantizer for a unit-variance Gaussian input.

    Returns the quantizer spec (levels odd-symmetric about 0, thresholds at
    level midpoints) and the distortion factor eta = E[(Q(y)-y)^2] / E[y^2].
    Results are memoized per bit depth.
    """
    bits = _check_bits(bits)
    levels, eta = _lloyd_fixed_point(bits)
    thresholds = 0.5 * (levels[1:] + levels[:-1])
    spec = QuantizerSpec(bits, thresholds, levels.copy())
    return spec, DistortionFactor(bits, eta)


def high_resolution_distortion(bits: int) -> float:
    """Asymptotic Gaussian distortion factor (pi*sqrt(3)/2) * 2^(-2b)."""
    _check_bits(bits)
    return float(np.pi * np.sqrt(3.0) / 2.0 * 4.0 ** (-bits))


def pam_error_probability(bits: int, snr: float) -> float:
    """Symbol error probability of 2^b-PAM with matched uniform quantization.

    P_e = 2 (1 - 2^-b) Q(delta / 2), delta the :func:`matched_stepsize`;
    for one bit this is Q(sqrt(snr)).  ``snr`` may be 0; any other value
    must be positive and finite.
    """
    bits = _check_bits(bits)
    if not snr >= 0:
        raise ValueError("snr must be nonnegative")
    if snr != 0:
        _check_positive(snr, "snr")
    return float(_pam_error_probability(bits, snr))


def _pam_error_probability(bits: int, snr):
    """:func:`pam_error_probability` element-wise over an SNR array, unchecked."""
    return 2.0 * (1.0 - 2.0**-bits) * qfunc(_step(bits, snr) / 2.0)
