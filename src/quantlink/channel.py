"""Clustered narrowband mmWave channel generation and its spectral decomposition.

Channels are sums of plane-wave paths grouped into clusters, observed by
half-wavelength uniform linear arrays at both link ends.  Generation is a pure
function of the configuration (including the seed), so realizations are
bit-reproducible across runs for a given BLAS kernel (README, "Reproducibility").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClusteredChannelConfig",
    "ChannelMatrix",
    "generate_channel",
    "svd_of",
]


@dataclass(frozen=True)
class ClusteredChannelConfig:
    """Geometry and RNG settings for one clustered-channel realization.

    The antenna, cluster and ray counts are integers of at least 1, the
    angle spread is positive and finite, and the seed fits in 64 bits.
    """

    n_tx_antennas: int
    n_rx_antennas: int
    n_clusters: int = 4
    n_rays_per_cluster: int = 5
    angle_spread_deg: float = 7.5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_tx_antennas", "n_rx_antennas", "n_clusters", "n_rays_per_cluster"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        _check_positive(self.angle_spread_deg, "angle_spread_deg")
        if not _is_integer(self.seed) or not 0 <= int(self.seed) < 2**64:
            raise ValueError(
                f"seed must be an integer that fits in an unsigned 64-bit integer, got {self.seed!r}"
            )


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(n, name: str) -> None:
    """A count: an integer (see :func:`_is_integer`) of at least 1."""
    if not _is_integer(n) or n < 1:
        raise ValueError(f"{name} must be at least 1")


# A Python float, so a Python int compares with it exactly; against a numpy
# float an int beyond float range raises OverflowError instead.
_MAX_DOUBLE = float(np.finfo(float).max)


def _check_positive(value, name: str) -> None:
    """A positive finite real, or an ``np.ndarray`` of them.

    Raises ``ValueError("{name} must be positive")`` first, NaN included,
    then ``"{name} must be finite"``, an integer beyond the largest double
    included.  A scalar takes two plain comparisons, not an array call,
    which costs far more: ``energy_efficiency`` checks once per CSV record.
    """
    if isinstance(value, np.ndarray):
        positive, finite = (value > 0).all(), (value <= _MAX_DOUBLE).all()
    else:
        positive, finite = value > 0, value <= _MAX_DOUBLE
    if not positive:
        raise ValueError(f"{name} must be positive")
    if not finite:
        raise ValueError(f"{name} must be finite")


@dataclass(eq=False)
class ChannelMatrix:
    """A channel H, or effective channel G = W_RF^* H F_RF, with cached singular values.

    Construction checks the entries and runs one SVD; ``singular_values`` is
    always that SVD, the matrix's own spectrum, never a constructor argument.
    """

    entries: np.ndarray
    singular_values: np.ndarray = field(init=False)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.size == 0:
            raise ValueError("entries must be a nonempty 2-D complex matrix")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("entries must be finite")
        self.singular_values = np.linalg.svd(self.entries, compute_uv=False)


def _matrix(m) -> ChannelMatrix:
    """A matrix argument as a ChannelMatrix: ``m`` itself, or ``m`` checked and decomposed once."""
    return m if isinstance(m, ChannelMatrix) else ChannelMatrix(m)


def _entries(m) -> np.ndarray:
    return _matrix(m).entries


def _ula_response(n_antennas: int, angles_rad: np.ndarray) -> np.ndarray:
    """Half-wavelength ULA steering vectors, one column per angle, unit norm."""
    n = np.arange(n_antennas)[:, None]
    return np.exp(1j * np.pi * n * np.sin(angles_rad)[None, :]) / np.sqrt(n_antennas)


def generate_channel(config: ClusteredChannelConfig) -> ChannelMatrix:
    """Draw one clustered channel realization.

    The matrix is ``sqrt(n_tx*n_rx / n_paths) * sum_p alpha_p a_rx(theta_p) a_tx(phi_p)^*``
    with unit-variance circularly-symmetric complex Gaussian path gains, so the
    expected squared Frobenius norm equals ``n_tx * n_rx``.

    Cluster center angles are uniform on [-pi/2, pi/2] at both ends; per-ray
    offsets are zero-mean Laplacian with standard deviation equal to
    ``angle_spread_deg`` (in radians).  The PCG64 stream seeded with
    ``config.seed`` is consumed in a fixed, documented order so that equal
    configs give bit-identical matrices for a given BLAS kernel (README,
    "Reproducibility"):

    1. arrival cluster centers    uniform(-pi/2, pi/2), n_clusters draws
    2. departure cluster centers  uniform(-pi/2, pi/2), n_clusters draws
    3. arrival ray offsets        laplace, (n_clusters, n_rays) draws
    4. departure ray offsets      laplace, (n_clusters, n_rays) draws
    5. gain real parts            standard normal, (n_clusters, n_rays) draws
    6. gain imaginary parts       standard normal, (n_clusters, n_rays) draws
    """
    rng = np.random.default_rng(config.seed)
    n_tx, n_rx = config.n_tx_antennas, config.n_rx_antennas
    n_c, n_l = config.n_clusters, config.n_rays_per_cluster
    spread = np.deg2rad(config.angle_spread_deg)
    laplace_scale = spread / np.sqrt(2.0)  # Laplace(scale s) has std s*sqrt(2)

    centers_rx = rng.uniform(-np.pi / 2, np.pi / 2, n_c)
    centers_tx = rng.uniform(-np.pi / 2, np.pi / 2, n_c)
    offsets_rx = rng.laplace(0.0, laplace_scale, (n_c, n_l))
    offsets_tx = rng.laplace(0.0, laplace_scale, (n_c, n_l))
    gains_re = rng.standard_normal((n_c, n_l))
    gains_im = rng.standard_normal((n_c, n_l))
    gains = (gains_re + 1j * gains_im) / np.sqrt(2.0)

    theta = (centers_rx[:, None] + offsets_rx).ravel()
    phi = (centers_tx[:, None] + offsets_tx).ravel()
    a_rx = _ula_response(n_rx, theta)
    a_tx = _ula_response(n_tx, phi)
    h = (a_rx * gains.ravel()[None, :]) @ a_tx.conj().T
    h *= np.sqrt(n_tx * n_rx / (n_c * n_l))
    return ChannelMatrix(h)


def svd_of(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition H = U diag(s) V*.

    Accepts a ChannelMatrix or a plain complex matrix and returns
    ``(U, s, V)`` where U and V have orthonormal columns and s is the
    nonincreasing vector of singular values.
    """
    u, s, vh = np.linalg.svd(_entries(h), full_matrices=False)
    return u, s, vh.conj().T

