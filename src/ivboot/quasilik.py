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


def packed_cholesky_solve(gram: np.ndarray, rhs: np.ndarray):
    """Batched Cholesky solve with a positive-definiteness verdict per row.

    ``gram`` (m, J(J+1)/2) holds the upper triangle of each symmetric G row
    by row (numpy.triu_indices order) and ``rhs`` is (m, c, J).  G = C'C is
    factored by a J-step loop vectorized over the m rows.  Returns
    A = C'^{-1} rhs, shaped (m, c, J), and the verdict: every pivot of the
    factorization is positive.  The A of a row that fails is finite but
    meaningless.
    """
    m, c, J = rhs.shape
    crow = []  # crow[i] = C[i, i:], row i of the Cholesky factor
    a = np.empty((m, c, J))  # a[:, :, k] = row k of A
    pd = np.ones(m, dtype=bool)
    for k in range(J):
        start = k * J - k * (k - 1) // 2  # row k of G, from its diagonal on
        g = gram[:, start:start + J - k]
        wk = rhs[:, :, k]
        for i in range(k):
            cik = crow[i][:, k - i, None]
            g = g - cik * crow[i][:, k - i:]
            wk = wk - cik * a[:, :, i]
        pd &= g[:, 0] > 0
        piv = np.sqrt(np.where(pd, g[:, 0], 1.0))[:, None]
        crow.append(g / piv)
        a[:, :, k] = wk / piv
    return a, pd


def lr_features(design: GeneralDesign, projector, theta_ref) -> tuple[np.ndarray, int]:
    """Per-observation features of the quadratic objective in the basis
    Q = [U0 | U1] of ``projector_split``, and dim U0.

    Row i packs the upper triangle of sum_k Q'eta_ki eta_ki'Q, then
    Q' grad l_i(theta_ref), the term of ``grad_contributions``; shape
    (n, J(J+1)/2 + J).  ``theta_ref`` must satisfy the hypothesis.
    """
    U1, U0 = projector_split(projector)
    Q = np.hstack([U0, U1])
    eta = design.eta @ Q
    iu = np.triu_indices(design.dim)
    gram = np.sum(eta[:, :, iu[0]] * eta[:, :, iu[1]], axis=0)
    grad = grad_contributions(design, theta_ref) @ Q
    return np.hstack([gram, grad]), U0.shape[1]


def weighted_lr(design: GeneralDesign, features: np.ndarray, n_null: int, weights):
    """Likelihood-ratio statistic of the weighted objective for each weight
    row of ``weights`` (m, n), with the ``lr_features`` of a design, and
    each row's positive-definiteness verdict.

    Expanded at theta_ref, the weighted objective is quadratic with
    curvature M_u = A_u + penalty mean(u) I and gradient g_u.  One GEMM
    gives every row's packed A_u and g_u in the basis Q; with the Cholesky
    factor L of M_u and w = L^{-1} g_u, the full supremum gains ||w||^2 / 2
    and the restricted one the part in its leading n_null coordinates, so
    the statistic is ||w[n_null:]||^2 / 2.  A row whose M_u is not positive
    definite gets a meaningless value and a False verdict.
    """
    J = design.dim
    sums = weights @ features
    gram, grad = sums[:, :-J], sums[:, -J:]
    diagonal = [k * J - k * (k - 1) // 2 for k in range(J)]
    gram[:, diagonal] += design.penalty * weights.mean(axis=1)[:, None]
    w, pd = packed_cholesky_solve(gram, grad[:, None, :])
    tail = w[:, 0, n_null:]
    return 0.5 * np.einsum("mj,mj->m", tail, tail), pd


def t_lr(design: GeneralDesign, projector) -> float:
    """Likelihood-ratio statistic sup L - sup_{H0} L, a sum of squares.

    The batch of one of ``weighted_lr`` at unit weights, expanded at the
    feasible point theta = 0.
    """
    features, n_null = lr_features(design, projector, np.zeros(design.dim))
    value, pd = weighted_lr(design, features, n_null, np.ones((1, design.n_obs)))
    if not pd[0]:
        raise SingularDesignError(
            "normal matrix is singular with penalty=0; refit with penalty > 0")
    return float(value[0])


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
