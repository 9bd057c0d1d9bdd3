"""Synthetic data generation for the two-equation benchmark: cosine
instruments, the linearly increasing coefficient vector rescaled to a target
concentration, and the four error laws of the power study."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .basis import IvSample, RngStream, SampleTruth, as_generator, cosine_design

ERROR_KINDS = ("gauss", "laplace", "hetero_linear", "hetero_periodic")


@dataclass(frozen=True)
class ErrorSpec:
    """Law of the paired disturbances.

    ``omega`` is the 2x2 covariance of the base draw (before any
    per-observation heteroskedastic multiplier); the Laplace kind uses
    unit-variance marginals so that omega keeps its covariance meaning.
    """

    kind: str = "gauss"
    omega: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.kind!r}; supported: {ERROR_KINDS}")
        om = np.asarray(self.omega, dtype=float)
        if om.shape != (2, 2) or not np.allclose(om, om.T):
            raise ValueError("omega must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(om).min() <= 0:
            raise ValueError("omega must be positive definite")
        object.__setattr__(self, "omega", om)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one synthetic experiment.

    ``concentration`` is the constant c of the weak-instrument scaling
    pi' Z Z' pi = c / n.  ``beta_grid`` holds the hypothesized beta0 values
    tested against data generated at beta_star (so the null sits at the grid
    value equal to beta_star).
    """

    n: int = 200
    q: int = 5
    concentration: float = 4.0
    beta_star: float = 1.0
    error: ErrorSpec = field(default_factory=ErrorSpec)
    beta_grid: tuple = (1.0,)
    reps: int = 1000
    boot_reps: int = 1000
    alpha: float = 0.05
    master_seed: int = 0

    def __post_init__(self):
        for name in ("n", "q", "reps", "boot_reps", "master_seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if not 1 <= self.q <= self.n / 2:
            raise ValueError(f"need 1 <= q <= n/2, got n={self.n}, q={self.q} (cosine row j "
                             f"repeats row n - j for n/2 < j < n, so Z Z' is singular)")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.boot_reps < 1:
            raise ValueError("boot_reps must be >= 1")
        if not 0.0 < self.alpha < 1.0 or 1.0 - self.alpha == 1.0:
            raise ValueError(f"alpha must be in (0, 1) and 1 - alpha < 1, got {self.alpha}")
        if not 0.0 < self.concentration < math.inf:
            raise ValueError(f"concentration must be finite and positive, got {self.concentration}")
        if not math.isfinite(self.beta_star):
            raise ValueError(f"beta_star must be finite, got {self.beta_star}")
        object.__setattr__(self, "beta_grid", tuple(float(v) for v in self.beta_grid))
        if not self.beta_grid:
            raise ValueError("beta_grid must hold at least one value, got an empty grid")
        if not all(map(math.isfinite, self.beta_grid)):
            raise ValueError(f"beta_grid values must be finite, got {self.beta_grid}")

    def rng(self, stream_id: int = 0) -> RngStream:
        return RngStream(self.master_seed, stream_id)


def gen_pi(z: np.ndarray, concentration: float) -> np.ndarray:
    """Coefficient vector proportional to (1, 2, ..., J), rescaled so that
    pi' Z Z' pi equals concentration / n exactly."""
    z = np.asarray(z, dtype=float)
    J, n = z.shape
    v = np.arange(1, J + 1, dtype=float)
    zz_v = z @ (z.T @ v)
    quad = float(v @ zz_v)
    if quad <= 0:
        raise ValueError("Z Z' is singular along the coefficient direction")
    s = np.sqrt((concentration / n) / quad)
    return s * v


def _gen_errors_batch(error: ErrorSpec, n: int, size: int,
                      gen: np.random.Generator) -> np.ndarray:
    """(size, n, 2) disturbance draws, one (n, 2) sample per row, with the
    laws of gen_errors; the samples follow one another in the stream."""
    if error.kind == "laplace":
        base = gen.laplace(0.0, 1.0 / np.sqrt(2.0), (size, n, 2))
    else:
        base = gen.standard_normal((size, n, 2))
    eps = base @ np.linalg.cholesky(error.omega).T
    i = np.arange(1, n + 1)
    if error.kind == "hetero_linear":
        eps *= np.sqrt(5.0 * i / n)[None, :, None]
    elif error.kind == "hetero_periodic":
        eps *= np.sqrt(2.0 + 1.5 * np.sin(6.0 * np.pi * i / n))[None, :, None]
    return eps


def gen_errors(spec: ErrorSpec, n: int, rng) -> np.ndarray:
    """(n, 2) disturbance draws: the batch of one of _gen_errors_batch.

    gauss            N(0, omega)
    laplace          independent unit-variance Laplace marginals, then the
                     omega factor (misspecification in shape, not scale)
    hetero_linear    N(0, (5 i / n) omega), i = 1..n
    hetero_periodic  N(0, (2 + 1.5 sin(6 pi i / n)) omega)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _gen_errors_batch(spec, n, 1, as_generator(rng))[0]


def gen_sample(config: SimConfig, rng=None) -> IvSample:
    """One realized dataset at the configured truth, its errors drawn from
    ``rng`` (default: the config's stream 0).

    The test statistics treat the error covariance as known and equal to I
    in every experiment, including the misspecified ones.
    """
    z = cosine_design(config.n, config.q)
    pi = gen_pi(z, config.concentration)
    x = z.T @ pi
    eps = gen_errors(config.error, config.n, config.rng() if rng is None else rng)
    y1 = config.beta_star * x + eps[:, 0]
    y2 = x + eps[:, 1]
    return IvSample(y1=y1, y2=y2, z=z,
                    truth=SampleTruth(beta_star=float(config.beta_star), pi_star=pi))
