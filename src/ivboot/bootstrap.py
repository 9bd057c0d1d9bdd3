"""Multiplier bootstrap for the quasi log-likelihood: Gaussian N(1,1)
weights, the weighted maximizer, the bootstrap likelihood-ratio statistic
centered at the full-sample fit, empirical critical values, and the
resulting test decision."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .basis import GeneralDesign, as_generator
from . import quasilik

MAX_RETRY_FRACTION = 0.01


class RetryDrawError(RuntimeError):
    """Weighted normal matrix not positive definite; redraw the weights."""


class BootstrapAbortError(RuntimeError):
    """A bootstrap redrew more weight vectors than its budget allows."""


def check_redraws(n_redraws: int, n_boot: int) -> None:
    """The abort rule of every multiplier bootstrap: a bootstrap of n_boot
    draws may redraw at most max(1, floor(MAX_RETRY_FRACTION * n_boot))
    weight vectors, counting every redrawn vector, also one redrawn again."""
    limit = max(1, int(MAX_RETRY_FRACTION * n_boot))
    if n_redraws > limit:
        raise BootstrapAbortError(
            f"bootstrap aborted: too many indefinite weighted draws ({n_redraws} "
            f"redraws exceed the limit of {limit} for {n_boot} draws)")


@dataclass(frozen=True)
class TestOutcome:
    """Statistic, critical value, and decision of one test."""

    name: str
    statistic: float
    critical_value: float
    reject: bool
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BootstrapRun:
    """Bootstrap draws of the statistic and the resulting critical quantile.

    ``z_star_alpha`` is the right-continuous empirical (1-alpha) quantile of
    (T_BLR - J)/sqrt(J) over the draws.
    """

    n_boot: int
    t_blr_samples: np.ndarray
    z_star_alpha: float
    alpha: float
    n_retries: int = 0
    dim: int = 0


def draw_weights(n: int, rng) -> np.ndarray:
    """n independent multiplier weights, Gaussian with mean 1 and variance 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return as_generator(rng).normal(1.0, 1.0, n)


def boot_loglik(design: GeneralDesign, weights, theta) -> float:
    """Weighted quasi log-likelihood: observation i's residual terms and its
    1/n penalty share are both multiplied by u_i."""
    u = np.asarray(weights, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if u.shape != (design.n_obs,):
        raise ValueError(f"weights must be ({design.n_obs},), got {u.shape}")
    resid = design.zk - np.einsum("kij,j->ki", design.eta, theta)  # (K, n)
    per_obs = -0.5 * np.sum(resid * resid, axis=0)  # (n,)
    pen = 0.5 * design.penalty * float(theta @ theta)
    return float(u @ per_obs - pen * u.sum() / design.n_obs)


def _weighted_system(design: GeneralDesign, u: np.ndarray):
    """Weighted normal matrix A_u + lam mean(u) I and right-hand side r_u of
    the weighted objective.

    Negative weights can make the matrix indefinite; that raises
    RetryDrawError so the caller can redraw.
    """
    eta = design.eta
    A_u = np.einsum("kij,i,kil->jl", eta, u, eta)
    r_u = np.einsum("kij,i,ki->j", eta, u, design.zk)
    M = A_u + design.penalty * u.mean() * np.eye(design.dim)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise RetryDrawError("weighted normal matrix is not positive definite") from None
    return M, r_u


def boot_mle(design: GeneralDesign, weights) -> np.ndarray:
    """Maximizer of the weighted objective.

    Negative weights can make the weighted normal matrix indefinite; that
    raises RetryDrawError so the caller can redraw.
    """
    M, r_u = _weighted_system(design, np.asarray(weights, dtype=float))
    return np.linalg.solve(M, r_u)


def t_blr(design: GeneralDesign, weights, projector,
          theta_tilde: Optional[np.ndarray] = None) -> float:
    """Bootstrap likelihood-ratio statistic with the hypothesis centered at
    the full-sample maximizer: sup L_boot - sup over {Pi(theta - theta_tilde) = 0}."""
    u = np.asarray(weights, dtype=float)
    if theta_tilde is None:
        theta_tilde = quasilik.mle(design)
    M, r_u = _weighted_system(design, u)
    theta_b = np.linalg.solve(M, r_u)
    full = boot_loglik(design, u, theta_b)
    _, U0 = quasilik.projector_split(projector)
    if U0.shape[1] == 0:
        restricted_theta = theta_tilde
    else:
        # theta = theta_tilde + U0 gamma; quadratic in gamma with curvature M
        g = r_u - M @ theta_tilde
        gamma = np.linalg.solve(U0.T @ M @ U0, U0.T @ g)
        restricted_theta = theta_tilde + U0 @ gamma
    return full - boot_loglik(design, u, restricted_theta)


def boot_score_decomposition(design: GeneralDesign, weights, theta_ref, projector,
                             expected_fisher: Optional[np.ndarray] = None
                             ) -> quasilik.ScoreDecomposition:
    """Score decomposition of the centered resampled gradient
    sum_i (u_i - 1) grad l_i(theta_ref)."""
    u = np.asarray(weights, dtype=float)
    contrib = quasilik.grad_contributions(design, theta_ref)  # (n, J)
    g = (u - 1.0) @ contrib
    F = expected_fisher
    if F is None:
        F = quasilik.normal_matrix(design) + design.penalty * np.eye(design.dim)
    return quasilik.score_from_parts(g, F, projector)


def boot_wilks_gap(design: GeneralDesign, weights, projector,
                   theta_star=None, expected_fisher=None, exact: bool = False) -> float:
    """| sqrt(2 T_BLR) - ||xi_s_boot|| |.

    With ``exact=True`` the score uses the weighted sample quantities
    expanded at the full-sample maximizer, for which the quadratic identity
    is exact; otherwise the centered gradient at ``theta_star`` and
    ``expected_fisher`` give the rate-style gap.
    """
    u = np.asarray(weights, dtype=float)
    theta_tilde = quasilik.mle(design)
    t = t_blr(design, u, projector, theta_tilde=theta_tilde)
    if exact:
        F_b, r_u = _weighted_system(design, u)
        g_b = r_u - F_b @ theta_tilde
        sd = quasilik.score_from_parts(g_b, F_b, projector)
    else:
        if theta_star is None:
            raise ValueError("theta_star required unless exact=True")
        sd = boot_score_decomposition(design, u, theta_star, projector, expected_fisher)
    return float(abs(np.sqrt(2.0 * max(t, 0.0)) - np.linalg.norm(sd.xi_s)))


def empirical_upper_quantile(samples: np.ndarray, alpha: float):
    """Right-continuous empirical (1-alpha) quantile: order statistic at
    index ceil((1-alpha) * B), clamped to 1..B, of the last axis.

    Returns a float for a vector and an array for a stack of vectors.
    """
    B = samples.shape[-1]
    k = int(np.ceil((1.0 - alpha) * B))
    k = min(max(k, 1), B)
    q = np.partition(samples, k - 1, axis=-1)[..., k - 1]
    return float(q) if q.ndim == 0 else q


def boot_quantile(design: GeneralDesign, projector, n_boot: int, alpha: float,
                  rng) -> BootstrapRun:
    """Draw n_boot multiplier-bootstrap statistics and locate the critical
    quantile of (T_BLR - J)/sqrt(J).

    Indefinite weighted normal matrices (possible under negative weights)
    trigger a redraw, counted in ``n_retries``; check_redraws aborts the
    run when they exceed its budget.
    """
    if n_boot < 100:
        raise ValueError(f"n_boot must be >= 100, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    gen = as_generator(rng)
    theta_tilde = quasilik.mle(design)
    J = design.dim
    samples = np.empty(n_boot)
    retries = 0
    for b in range(n_boot):
        while True:
            u = gen.normal(1.0, 1.0, design.n_obs)
            try:
                samples[b] = t_blr(design, u, projector, theta_tilde=theta_tilde)
                break
            except RetryDrawError:
                retries += 1
            check_redraws(retries, n_boot)
    z = empirical_upper_quantile((samples - J) / np.sqrt(J), alpha)
    return BootstrapRun(n_boot=n_boot, t_blr_samples=samples, z_star_alpha=z,
                        alpha=alpha, n_retries=retries, dim=J)


def blr_test(design: GeneralDesign, projector, t_lr_value: float,
             run: BootstrapRun) -> TestOutcome:
    """Accept/reject H0 by comparing T_LR with J + z_star_alpha * sqrt(J)."""
    J = design.dim
    threshold = J + run.z_star_alpha * np.sqrt(J)
    return TestOutcome(
        name="BLR",
        statistic=float(t_lr_value),
        critical_value=float(threshold),
        reject=bool(t_lr_value > threshold),
        info={"alpha": run.alpha, "n_boot": run.n_boot, "n_retries": run.n_retries,
              "z_star_alpha": run.z_star_alpha},
    )
