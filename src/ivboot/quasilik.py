"""Penalized quasi log-likelihood: exact maximizers, the likelihood-ratio
statistic for linear hypotheses, and the standardized score decomposition
behind the square-root Wilks approximation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import GeneralDesign


class SingularDesignError(ValueError):
    """Normal matrix is singular; a positive penalty is required."""


class SingularNuisanceError(ValueError):
    """Nuisance block of the Fisher matrix is singular on its range."""


@dataclass(frozen=True)
class FitResult:
    """Full and restricted maximizers with their likelihood values."""

    theta_hat: np.ndarray
    theta_restricted: np.ndarray
    loglik_full: float
    loglik_restricted: float
    d0: np.ndarray
    projector: np.ndarray

    @property
    def t_lr(self) -> float:
        return self.loglik_full - self.loglik_restricted


@dataclass(frozen=True)
class ScoreDecomposition:
    """Standardized full score, profile score, and effective Fisher matrix."""

    xi: np.ndarray
    xi_s: np.ndarray
    fisher_eff: np.ndarray


def normal_matrix(design: GeneralDesign) -> np.ndarray:
    """sum_{k,i} eta eta^T, shape (J, J)."""
    eta = design.eta
    flat = eta.reshape(-1, design.dim)
    return flat.T @ flat


def score_vector_rhs(design: GeneralDesign) -> np.ndarray:
    """sum_{k,i} eta * z, shape (J,)."""
    return np.einsum("kij,ki->j", design.eta, design.zk)


def loglik(design: GeneralDesign, theta) -> float:
    """Penalized quasi log-likelihood at theta."""
    theta = np.asarray(theta, dtype=float)
    resid = design.zk - np.einsum("kij,j->ki", design.eta, theta)
    return float(-0.5 * np.sum(resid * resid) - 0.5 * design.penalty * theta @ theta)


def grad_loglik(design: GeneralDesign, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    A = normal_matrix(design)
    return score_vector_rhs(design) - A @ theta - design.penalty * theta


def grad_contributions(design: GeneralDesign, theta) -> np.ndarray:
    """Per-observation gradient terms, shape (n, J).

    Each observation carries its K residual terms plus a 1/n share of the
    penalty gradient, matching the per-observation weighting of the
    multiplier bootstrap.
    """
    theta = np.asarray(theta, dtype=float)
    resid = design.zk - np.einsum("kij,j->ki", design.eta, theta)  # (K, n)
    per_obs = np.einsum("kij,ki->ij", design.eta, resid)  # (n, J)
    return per_obs - (design.penalty / design.n_obs) * theta[None, :]


def mle(design: GeneralDesign) -> np.ndarray:
    """Exact maximizer (A + penalty*I)^{-1} sum eta z."""
    A = normal_matrix(design)
    M = A + design.penalty * np.eye(design.dim)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise SingularDesignError(
            "normal matrix is singular with penalty=0; refit with penalty > 0"
        ) from None
    return np.linalg.solve(M, score_vector_rhs(design))


def projector_split(projector) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (U1, U0) of the row space and null space of an
    idempotent projector; the null space is the H0 constraint set."""
    P = np.atleast_2d(np.asarray(projector, dtype=float))
    J = P.shape[0]
    if P.shape != (J, J):
        raise ValueError(f"projector must be square, got {P.shape}")
    if np.linalg.norm(P @ P - P) > 1e-8 * max(1.0, np.linalg.norm(P)):
        raise ValueError("projector must be idempotent")
    _, s, Vt = np.linalg.svd(P)
    keep = s > 0.5
    return Vt[keep].T, Vt[~keep].T


def restricted_mle(design: GeneralDesign, projector) -> np.ndarray:
    """Maximizer of loglik over the null space {theta : projector @ theta = 0},
    solved in an orthonormal basis of that space."""
    U1, U0 = projector_split(projector)
    if U0.shape[1] == 0:
        return np.zeros(design.dim)
    A = normal_matrix(design)
    M = U0.T @ (A + design.penalty * np.eye(design.dim)) @ U0
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise SingularDesignError(
            "restricted normal matrix is singular with penalty=0; refit with penalty > 0"
        ) from None
    gamma = np.linalg.solve(M, U0.T @ score_vector_rhs(design))
    return U0 @ gamma


def t_lr(design: GeneralDesign, projector) -> float:
    """Likelihood-ratio statistic sup L - sup_{H0} L (>= 0 up to rounding)."""
    return loglik(design, mle(design)) - loglik(design, restricted_mle(design, projector))


def fit(design: GeneralDesign, projector) -> FitResult:
    theta_hat = mle(design)
    theta_r = restricted_mle(design, projector)
    U1, U0 = projector_split(projector)
    F = normal_matrix(design) + design.penalty * np.eye(design.dim)
    d0 = _effective_fisher(F, U1, U0)
    return FitResult(
        theta_hat=theta_hat,
        theta_restricted=theta_r,
        loglik_full=loglik(design, theta_hat),
        loglik_restricted=loglik(design, theta_r),
        d0=d0,
        projector=np.asarray(projector, dtype=float),
    )


def _inv_sqrt_psd(M: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix; raises
    for a matrix that is not, or is singular to working precision."""
    vals, vecs = np.linalg.eigh(M)
    if vals.size and vals[0] <= 1e-12 * max(vals[-1], 0.0):
        raise SingularNuisanceError("matrix is not positive definite")
    return (vecs / np.sqrt(vals)) @ vecs.T


def _effective_fisher(F, U1, U0) -> np.ndarray:
    F11 = U1.T @ F @ U1
    if U0.shape[1] == 0:
        return F11
    F10 = U1.T @ F @ U0
    F00 = U0.T @ F @ U0
    vals = np.linalg.eigvalsh(F00)
    if vals[0] <= 1e-12 * max(vals[-1], 1.0):
        raise SingularNuisanceError("nuisance block of the Fisher matrix is singular")
    return F11 - F10 @ np.linalg.solve(F00, F10.T)


def score_from_parts(gradient, fisher, projector) -> ScoreDecomposition:
    """Score decomposition from an explicit gradient vector and Fisher matrix.

    The profile score removes the nuisance-direction component of the
    gradient through the Fisher cross block and standardizes by the inverse
    square root of the effective (Schur-complement) Fisher matrix.  For an
    exactly quadratic objective expanded at a feasible point these pieces
    satisfy 2 * T_LR = ||xi_s||^2 identically.
    """
    g = np.asarray(gradient, dtype=float)
    F = np.asarray(fisher, dtype=float)
    U1, U0 = projector_split(projector)
    xi = _inv_sqrt_psd(F) @ g
    if U1.shape[1] == 0:
        return ScoreDecomposition(xi=xi, xi_s=np.zeros(0), fisher_eff=np.zeros((0, 0)))
    g1 = U1.T @ g
    d0 = _effective_fisher(F, U1, U0)
    if U0.shape[1] == 0:
        xi_s = _inv_sqrt_psd(d0) @ g1
        return ScoreDecomposition(xi=xi, xi_s=xi_s, fisher_eff=d0)
    F10 = U1.T @ F @ U0
    F00 = U0.T @ F @ U0
    g0 = U0.T @ g
    xi_s = _inv_sqrt_psd(d0) @ (g1 - F10 @ np.linalg.solve(F00, g0))
    return ScoreDecomposition(xi=xi, xi_s=xi_s, fisher_eff=d0)


def score_decomposition(design: GeneralDesign, theta_star, projector,
                        expected_fisher: Optional[np.ndarray] = None) -> ScoreDecomposition:
    """Score decomposition at theta_star.

    ``expected_fisher`` is the negative expected Hessian; when omitted the
    sample normal matrix plus the penalty is used in its place.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    F = expected_fisher
    if F is None:
        F = normal_matrix(design) + design.penalty * np.eye(design.dim)
    return score_from_parts(grad_loglik(design, theta_star), F, projector)


def wilks_gap(design: GeneralDesign, projector, theta_star,
              expected_fisher: Optional[np.ndarray] = None) -> float:
    """| sqrt(2 max(T_LR, 0)) - ||xi_s|| | at theta_star."""
    t = t_lr(design, projector)
    sd = score_decomposition(design, theta_star, projector, expected_fisher)
    return float(abs(np.sqrt(2.0 * max(t, 0.0)) - np.linalg.norm(sd.xi_s)))
