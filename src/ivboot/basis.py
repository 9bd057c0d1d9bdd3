"""Core domain types, the cosine design matrix, and reproducible RNG streams."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

@dataclass(frozen=True)
class SampleTruth:
    """Structural parameters used to generate a synthetic sample."""

    beta_star: float
    pi_star: np.ndarray


@dataclass(frozen=True)
class IvSample:
    """One realized dataset of the two-equation benchmark model.

    ``z`` has shape (J, n): one row per instrument column of the design.
    The test statistics take the error covariance as the identity; the
    data-generating covariance may differ (misspecification runs).
    """

    y1: np.ndarray
    y2: np.ndarray
    z: np.ndarray
    truth: Optional[SampleTruth] = None

    def __post_init__(self):
        y1 = np.asarray(self.y1, dtype=float)
        y2 = np.asarray(self.y2, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if y1.ndim != 1 or y2.ndim != 1 or y1.shape != y2.shape:
            raise ValueError(f"y1, y2 must be equal-length vectors, got {y1.shape}, {y2.shape}")
        if y1.size < 1:
            raise ValueError("empty sample")
        if z.ndim != 2 or z.shape[1] != y1.size:
            raise ValueError(f"z must be (J, n={y1.size}), got {z.shape}")
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)
        object.__setattr__(self, "z", z)

    @property
    def n_obs(self) -> int:
        return self.y1.size

    @property
    def n_instruments(self) -> int:
        return self.z.shape[0]


@dataclass(frozen=True)
class GeneralDesign:
    """Instrument-weighted design of the penalized quasi log-likelihood.

    ``eta`` has shape (K, n, J): eta[k, i] is the regressor vector of
    observation i under instrument k.  ``zk`` has shape (K, n) and already
    carries the bias correction (responses minus delta_k).  ``penalty`` is
    the ridge weight on ||theta||^2 / 2.
    """

    eta: np.ndarray
    zk: np.ndarray
    penalty: float = 0.0

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        zk = np.asarray(self.zk, dtype=float)
        if eta.ndim != 3:
            raise ValueError(f"eta must be (K, n, J), got shape {eta.shape}")
        if zk.shape != eta.shape[:2]:
            raise ValueError(f"zk shape {zk.shape} does not match eta {eta.shape[:2]}")
        if self.penalty < 0:
            raise ValueError(f"penalty must be >= 0, got {self.penalty}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "zk", zk)

    @property
    def n_instruments(self) -> int:
        return self.eta.shape[0]

    @property
    def n_obs(self) -> int:
        return self.eta.shape[1]

    @property
    def dim(self) -> int:
        return self.eta.shape[2]


@dataclass(frozen=True)
class RngStream:
    """Counter-addressed random stream.

    Two streams with equal (master_seed, stream_id) produce bit-identical
    draw sequences, independent of thread count or scheduling.  Units of
    parallel work must each own their stream; streams are never shared.
    ``stream_id`` is an integer or a tuple of integers, such as a
    (role, unit) key; it becomes the SeedSequence spawn key.
    """

    master_seed: int
    stream_id: Union[int, tuple] = 0

    def generator(self) -> np.random.Generator:
        key = self.stream_id if isinstance(self.stream_id, tuple) else (self.stream_id,)
        return np.random.default_rng(np.random.SeedSequence(self.master_seed, spawn_key=key))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream or a ready numpy Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def cosine_design(n: int, n_basis: int) -> np.ndarray:
    """Cosine instrument matrix with entries cos(2*pi*i*j/n), shape (J, n).

    Rows are indexed j = 1..J, columns i = 1..n; there is no constant row.
    Rows j <= n/2 are exactly orthogonal, with squared norm n/2 (n for row
    n/2 of an even n); row j with n/2 < j < n repeats row n - j, so for
    n >= 3, Z Z' is singular exactly when 2 * n_basis > n.
    """
    if n < 1 or n_basis < 1:
        raise ValueError(f"need n >= 1 and n_basis >= 1, got n={n}, n_basis={n_basis}")
    i = np.arange(1, n + 1)
    j = np.arange(1, n_basis + 1)
    return np.cos(2.0 * np.pi * np.outer(j, i) / n)

