"""Clustered narrowband mmWave channel generation and its spectral decomposition.

Channels are sums of plane-wave paths grouped into clusters, observed by
half-wavelength uniform linear arrays at both link ends.  Generation is a pure
function of the configuration (including the seed), so realizations are
bit-reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClusteredChannelConfig",
    "ChannelMatrix",
    "generate_channel",
    "svd_of",
    "save_channel_matrix",
    "load_channel_matrix",
]


@dataclass(frozen=True)
class ClusteredChannelConfig:
    """Geometry and RNG settings for one clustered-channel realization."""

    n_tx_antennas: int
    n_rx_antennas: int
    n_clusters: int = 4
    n_rays_per_cluster: int = 5
    angle_spread_deg: float = 7.5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_tx_antennas", "n_rx_antennas", "n_clusters", "n_rays_per_cluster"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not self.angle_spread_deg > 0:
            raise ValueError(f"angle_spread_deg must be > 0, got {self.angle_spread_deg!r}")
        if not np.isfinite(self.angle_spread_deg):
            raise ValueError("angle_spread_deg must be finite")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed!r}")


def _entries(m) -> np.ndarray:
    return np.asarray(getattr(m, "entries", m), dtype=complex)


def _spectrum(m) -> np.ndarray:
    sv = getattr(m, "singular_values", None)
    if sv is not None:
        return np.asarray(sv, dtype=float)
    return np.linalg.svd(_entries(m), compute_uv=False)


@dataclass(eq=False)
class ChannelMatrix:
    """A channel H, or effective channel G = W_RF^* H F_RF, with cached singular values.

    Construction checks the entries and runs one SVD; ``singular_values``, when
    given, must be nonincreasing and match it to a relative tolerance of 1e-10.
    """

    entries: np.ndarray
    singular_values: np.ndarray | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.size == 0:
            raise ValueError("entries must be a nonempty 2-D complex matrix")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("entries must be finite")
        fresh = np.linalg.svd(self.entries, compute_uv=False)
        if self.singular_values is None:
            self.singular_values = fresh
            return
        sv = self.singular_values = np.asarray(self.singular_values, dtype=float)
        if sv.shape != fresh.shape:
            raise ValueError("singular_values must have length min(n_rx, n_tx)")
        if np.any(sv < 0) or np.any(np.diff(sv) > 0):
            raise ValueError("singular_values must be nonnegative and nonincreasing")
        if np.max(np.abs(fresh - sv)) > 1e-10 * max(fresh[0], 1.0):
            raise ValueError("singular_values do not match entries (relative tol 1e-10)")

    @classmethod
    def from_entries(cls, entries) -> "ChannelMatrix":
        return cls(entries)

    from_matrix = from_entries  # the name EffectiveChannel callers know


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
    configs give bit-identical matrices:

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
    return ChannelMatrix.from_entries(h)


def svd_of(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition H = U diag(s) V*.

    Accepts a ChannelMatrix or a plain complex matrix and returns
    ``(U, s, V)`` where U and V have orthonormal columns and s is the
    nonincreasing vector of singular values.  Non-finite input is rejected.
    """
    entries = _entries(h)
    if entries.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must be finite")
    u, s, vh = np.linalg.svd(entries, full_matrices=False)
    return u, s, vh.conj().T


def save_channel_matrix(h, path) -> None:
    """Write a realization as text, one matrix row per line.

    Entries are ``re+imj`` tokens with 17 significant digits, enough for an
    exact float64 round trip, separated by single spaces.
    """
    entries = _entries(h)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in entries:
            fh.write(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
            fh.write("\n")


def load_channel_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_channel_matrix`."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                rows.append([complex(tok) for tok in tokens])
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    return np.asarray(rows, dtype=complex)
