"""Finite-sample diagnostics: the piecewise deviation-quantile function,
matrix Bernstein tail bounds with empirical domination checks, design and
moment condition checks, and empirical Kolmogorov-distance validators for
the Gaussian comparison and approximation results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .basis import GeneralDesign, as_generator, chunk_rows
from . import quasilik

KOLMOGOROV_GRID = 512
SUMMAND_LAWS = ("uniform_cube", "rademacher_product", "gauss")


@dataclass(frozen=True)
class DeviationParams:
    """Arguments of the deviation-quantile function.

    ``x2`` is the squared standardized-covariance matrix (PSD); ``g`` the
    sub-exponential range parameter, which must satisfy
    g^2 > 2 tr(x2) / 3 so the upper-branch constants are real.
    """

    x: float
    x2: np.ndarray
    g: float

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.x2, dtype=float))
        if not np.allclose(M, M.T):
            raise ValueError("x2 must be symmetric")
        if np.linalg.eigvalsh(M).min() < -1e-12 * max(1.0, np.abs(M).max()):
            raise ValueError("x2 must be positive semi-definite")
        if self.x < 0:
            raise ValueError("x must be >= 0")
        if self.g ** 2 <= 2.0 * np.trace(M) / 3.0:
            raise ValueError("need g^2 > 2 tr(x2) / 3")
        object.__setattr__(self, "x2", M)


def _z_pieces(x2: np.ndarray, g: float):
    tr2 = float(np.trace(x2))
    x4 = x2 @ x2
    tr4 = float(np.trace(x4))
    lam = float(np.linalg.eigvalsh(x2)[-1])
    # boundary where the sqrt and linear branches meet; the sqrt branch is
    # the binding bound below it
    x_lo = 2.0 * tr4 / (9.0 * lam * lam)
    z_c2 = (2.25 * g * g - 1.5 * tr2) / lam
    sign, logdet = np.linalg.slogdet(np.eye(x2.shape[0]) - 2.0 * x2 / (3.0 * lam))
    x_c = z_c2 / 3.0 + 0.5 * sign * logdet
    g_c = np.sqrt(g * g - 2.0 * tr2 / 3.0) / np.sqrt(lam)
    return tr2, tr4, lam, x_lo, x_c, np.sqrt(z_c2), g_c


def z_function(params: DeviationParams) -> float:
    """Squared deviation quantile z^2(x, X): sqrt branch for small x, linear
    branch in the middle, quadratic-in-x branch beyond x_c."""
    tr2, tr4, lam, x_lo, x_c, z_c, g_c = _z_pieces(params.x2, params.g)
    x = params.x
    if x <= x_lo:
        return tr2 + np.sqrt(8.0 * tr4 * x)
    if x <= x_c:
        return tr2 + 6.0 * x * lam
    return float(np.abs(z_c + 2.0 * (x - x_c) / g_c) ** 2 * lam)


def z_branch_continuity(x2, g) -> dict:
    """Measured jumps of z^2 at the two branch junctions (reported, not
    asserted: the upper junction is discontinuous by construction)."""
    M = np.atleast_2d(np.asarray(x2, dtype=float))
    tr2, tr4, lam, x_lo, x_c, z_c, g_c = _z_pieces(M, g)
    below_lo = tr2 + np.sqrt(8.0 * tr4 * x_lo)
    above_lo = tr2 + 6.0 * x_lo * lam
    below_c = tr2 + 6.0 * x_c * lam
    above_c = float(z_c ** 2 * lam)
    return {
        "x_low": x_lo,
        "x_c": x_c,
        "jump_low": abs(above_lo - below_lo) / max(abs(below_lo), 1e-300),
        "jump_c": abs(above_c - below_c) / max(abs(below_c), 1e-300),
    }


def bernstein_bound(t: float, sigma2: float, R: float, p: int) -> float:
    """Matrix Bernstein tail bound 2 p exp(-t^2 / (2 sigma^2 (1 + R t / (3 sigma^2)))).

    The value may exceed one; clamp when using it as a probability.
    """
    if t < 0 or sigma2 <= 0 or R < 0 or p < 1:
        raise ValueError("need t >= 0, sigma2 > 0, R >= 0, p >= 1")
    return 2.0 * p * np.exp(-t * t / (2.0 * sigma2 * (1.0 + R * t / (3.0 * sigma2))))


def empirical_opnorm_tail(matrix_sampler: Callable, t_grid, reps: int, rng) -> np.ndarray:
    """Monte Carlo tail P(||sum_i S_i||_op >= t) on a t grid.

    ``matrix_sampler(generator, batch)`` must return a (batch, n, p, p)
    array of summands; batches are drawn until ``reps`` realizations of the
    summed matrix have been collected.  The first batch is one realization,
    whose size sets the rest: chunk_rows of it, about basis.DRAW_BUDGET
    bytes of summands a batch.  A sampler whose realizations follow one
    another in the stream, as rademacher_spike_sampler's do, gives the same
    tail for any batch size.
    """
    gen = as_generator(rng)
    t_grid = np.asarray(t_grid, dtype=float)
    counts = np.zeros(t_grid.size)
    done, batch = 0, 1
    while done < reps:
        m = min(batch, reps - done)
        S = matrix_sampler(gen, m)
        batch = chunk_rows(S[0].nbytes)
        total = S.sum(axis=1)
        opnorm = np.abs(np.linalg.eigvalsh(total)).max(axis=1)
        counts += (opnorm[:, None] >= t_grid[None, :]).sum(axis=0)
        done += m
    return counts / reps


def rademacher_spike_sampler(n_summands: int, dim: int) -> Callable:
    """Summands epsilon_i e1 e1', epsilon_i Rademacher: ||S_i|| = 1,
    sum_i E S_i^2 has operator norm n_summands."""
    def sampler(gen: np.random.Generator, batch: int) -> np.ndarray:
        eps = gen.integers(0, 2, (batch, n_summands)) * 2.0 - 1.0
        out = np.zeros((batch, n_summands, dim, dim))
        out[:, :, 0, 0] = eps
        return out
    return sampler


def _kolmogorov_distance(a: np.ndarray, b: np.ndarray, grid_size: int = KOLMOGOROV_GRID) -> float:
    pooled = np.concatenate([a, b])
    lo, hi = np.quantile(pooled, [0.001, 0.999])
    grid = np.linspace(lo, hi, grid_size)
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


@dataclass(frozen=True)
class GaussCompareResult:
    empirical_kolmogorov: float
    bound_factor: float


def gauss_compare_distance(sigma0, sigma1, reps: int, rng) -> GaussCompareResult:
    """Empirical Kolmogorov distance between the norms of two centered
    Gaussians, with the comparison-bound factor up to its unknown constant:
    max_j sqrt(tr Sigma_j) * ||I - Sigma0^{-1} Sigma1||_op."""
    S0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
    S1 = np.atleast_2d(np.asarray(sigma1, dtype=float))
    if S0.shape != S1.shape:
        raise ValueError(f"dimension mismatch: {S0.shape} vs {S1.shape}")
    gen = as_generator(rng)
    d = S0.shape[0]
    c0 = np.linalg.cholesky(S0)
    c1 = np.linalg.cholesky(S1)
    n0 = np.linalg.norm(gen.standard_normal((reps, d)) @ c0.T, axis=1)
    n1 = np.linalg.norm(gen.standard_normal((reps, d)) @ c1.T, axis=1)
    dist = _kolmogorov_distance(n0, n1)
    dev = np.eye(d) - np.linalg.solve(S0, S1)
    op = float(np.linalg.svd(dev, compute_uv=False)[0])
    factor = max(np.sqrt(np.trace(S0)), np.sqrt(np.trace(S1))) * op
    return GaussCompareResult(empirical_kolmogorov=dist, bound_factor=float(factor))


def _draw_summand_sums(law: str, dim: int, n: int, reps: int,
                       gen: np.random.Generator) -> np.ndarray:
    """reps draws of xi = sum of n iid summands with covariance I/n, drawn
    in chunks of chunk_rows(8 n dim) draws; each draw's summands come from
    the stream in order, so the draws do not depend on the chunk size."""
    out = np.zeros((reps, dim))
    block = chunk_rows(8 * n * dim)
    done = 0
    while done < reps:
        m = min(block, reps - done)
        if law == "uniform_cube":
            s = gen.uniform(-np.sqrt(3.0 / n), np.sqrt(3.0 / n), (m, n, dim))
        elif law == "rademacher_product":
            s = (gen.integers(0, 2, (m, n, dim)) * 2.0 - 1.0) / np.sqrt(n)
        elif law == "gauss":
            s = gen.standard_normal((m, n, dim)) / np.sqrt(n)
        else:
            raise ValueError(f"unknown summand law {law!r}; supported: {SUMMAND_LAWS}")
        out[done:done + m] = s.sum(axis=1)
        done += m
    return out


def gar_scaling_check(summand_law: str, dim: int, n_list: Sequence[int],
                      reps: int, rng) -> list:
    """Empirical Kolmogorov distance between ||sum of iid non-Gaussian
    summands|| and the matched Gaussian norm, per summand count.

    Returns [(n, distance), ...]; the distances should decay roughly like
    n^{-1/2}.
    """
    n_list = list(n_list)
    if len(n_list) < 2 or any(np.diff(n_list) <= 0):
        raise ValueError("n_list must be increasing with at least 2 entries")
    gen = as_generator(rng)
    ref = np.linalg.norm(gen.standard_normal((reps, dim)), axis=1)
    out = []
    for n in n_list:
        sums = _draw_summand_sums(summand_law, dim, n, reps, gen)
        dist = _kolmogorov_distance(np.linalg.norm(sums, axis=1), ref)
        out.append((n, dist))
    return out


@dataclass(frozen=True)
class FscReport:
    """Measured finite-sample condition quantities.

    The design condition is pass/fail; the identifiability inequality is
    reported against the configured penalty; moment quantities are purely
    descriptive.
    """

    design_sup: float
    design_ok: bool
    identifiability_lhs: float
    penalty: float
    identifiability_ok: bool
    max_std_residual: float
    log_mgf: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "design_sup": self.design_sup,
            "design_ok": self.design_ok,
            "identifiability_lhs": self.identifiability_lhs,
            "penalty": self.penalty,
            "identifiability_ok": self.identifiability_ok,
            "max_std_residual": self.max_std_residual,
            "log_mgf": dict(self.log_mgf),
        }


def fsc_design_check(design: GeneralDesign) -> FscReport:
    """Evaluate the finite-sample design and identifiability conditions on a
    realized design, with a descriptive exponential-moment proxy."""
    J = design.dim
    try:
        inv_sqrt = quasilik._inv_sqrt_psd(quasilik.normal_matrix(design)
                                          + design.penalty * np.eye(J))
    except quasilik.SingularNuisanceError:
        # singular to working precision: no finite design bound, no fit
        design_sup, theta = np.inf, np.zeros(J)
    else:
        per_obs = design.eta.sum(axis=0)  # (n, J): sum over instruments
        design_sup = float(np.linalg.norm(per_obs @ inv_sqrt, axis=1).max())
        theta = quasilik.mle(design)
    design_ok = design_sup <= 0.5

    resid = design.zk - np.einsum("kij,j->ki", design.eta, theta)  # (K, n)
    sigma2 = (resid * resid).mean(axis=1)  # per instrument
    n = design.n_obs
    lhs_mat = np.zeros((J, J))
    for k in range(design.n_instruments):
        Ak = design.eta[k].T @ design.eta[k] / n
        lhs_mat += (sigma2[k] - 1.0) * Ak
    ident_lhs = float(np.linalg.eigvalsh(n * lhs_mat)[-1])
    ident_ok = ident_lhs < design.penalty

    eps = resid.sum(axis=0)  # (n,)
    eps_c = eps - eps.mean()
    sd = eps_c.std() or 1.0
    std_resid = eps_c / sd
    mgf = {f"{lam:.1f}": float(np.log(np.mean(np.exp(lam * std_resid))))
           for lam in (0.2, 0.5, 1.0)}
    return FscReport(
        design_sup=design_sup, design_ok=bool(design_ok),
        identifiability_lhs=ident_lhs, penalty=design.penalty,
        identifiability_ok=bool(ident_ok),
        max_std_residual=float(np.abs(std_resid).max()), log_mgf=mgf,
    )
