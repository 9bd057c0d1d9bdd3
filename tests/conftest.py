from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from ivboot import GeneralDesign, IvSample, RngStream
from ivboot.benchmark import ar_from, lm_from, tclr_from
from ivboot.quasilik import _inv_sqrt_psd

COSINE_DIM = 5
H0_PROJECTOR = np.diag([1.0, 1.0, 0.0, 0.0, 0.0])
THETA_FEASIBLE = np.array([0.0, 0.0, 0.4, -0.2, 0.1])


def random_cosine_design(n, gen, theta=THETA_FEASIBLE, noise_sd=np.sqrt(2.0),
                         penalty=0.0, n_instruments=1):
    """Random-regressor linear quasi-likelihood design with known population
    curvature: X uniform on (0,1), basis cos(2*pi*j*X), so E eta eta' = I/2."""
    J = theta.size
    eta = np.empty((n_instruments, n, J))
    zk = np.empty((n_instruments, n))
    for k in range(n_instruments):
        X = gen.uniform(0.0, 1.0, n)
        eta[k] = np.cos(2 * np.pi * np.outer(X, np.arange(1, J + 1)))
        zk[k] = eta[k] @ theta + noise_sd * gen.standard_normal(n)
    return GeneralDesign(eta=eta, zk=zk, penalty=penalty)


def population_fisher(n, J, penalty=0.0, n_instruments=1):
    return n_instruments * (n / 2.0) * np.eye(J) + penalty * np.eye(J)


@pytest.fixture
def gen():
    return RngStream(1234, 0).generator()


def reference_packed_cholesky_solve(gram, rhs, pd_rtol=1e-12):
    """The row-major form of ``quasilik.packed_cholesky_solve``: ``gram``
    (m, J(J+1)/2) and ``rhs`` (m, c, J) one batch entry per row, every step
    on strided columns; returns A (m, c, J) and the verdicts.  Its factors
    are the reference that the coordinate-major kernel must equal bit for
    bit."""
    m, c, J = rhs.shape
    crow = []
    a = np.empty((m, c, J))
    pd = np.ones(m, dtype=bool)
    for k in range(J):
        start = k * J - k * (k - 1) // 2
        g = gram[:, start:start + J - k]
        wk = rhs[:, :, k]
        for i in range(k):
            cik = crow[i][:, k - i, None]
            g = g - cik * crow[i][:, k - i:]
            wk = wk - cik * a[:, :, i]
        pd &= g[:, 0] > pd_rtol * gram[:, start]
        piv = np.sqrt(np.where(pd, g[:, 0], np.inf))[:, None]
        crow.append(g / piv)
        a[:, :, k] = wk / piv
    return a, pd


def reference_profile_from_sums(sums, J):
    """hb11, hb12, hb22 and the verdict of ``benchmark.profile_from_sums``
    for sum rows (m, d), from the row-major reference kernel, each entry of
    A'A summed by numpy's einsum."""
    n_gram = J * (J + 1) // 2
    a, pd = reference_packed_cholesky_solve(sums[:, :n_gram], sums[:, n_gram:].reshape(-1, 2, J))
    return (np.einsum("mj,mj->m", a[:, 0], a[:, 0]), np.einsum("mj,mj->m", a[:, 0], a[:, 1]),
            np.einsum("mj,mj->m", a[:, 1], a[:, 1]), pd)


def boot_loglik(design: GeneralDesign, weights, theta) -> float:
    """Weighted quasi log-likelihood: observation i's residual terms and its
    1/n penalty share are both multiplied by u_i.  The bootstrap itself works
    on sums of ``quasilik.lr_features``; this direct form is the reference
    evaluator that the tests maximize against it."""
    u = np.asarray(weights, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if u.shape != (design.n_obs,):
        raise ValueError(f"weights must be ({design.n_obs},), got {u.shape}")
    resid = design.zk - np.einsum("kij,j->ki", design.eta, theta)  # (K, n)
    per_obs = -0.5 * np.sum(resid * resid, axis=0)  # (n,)
    pen = 0.5 * design.penalty * float(theta @ theta)
    return float(u @ per_obs - pen * u.sum() / design.n_obs)


@dataclass(frozen=True)
class STPair:
    """Sufficient-statistic vectors for a hypothesized beta0."""

    s: np.ndarray
    t: np.ndarray
    beta0: float


def st_vectors(sample: IvSample, beta0: float) -> STPair:
    """S and T vectors at beta0, with the symmetric square root of the
    instrument Gram matrix and the error covariance taken as the identity:
    the reference for ``benchmark.st_quadratics``, whose S'S, T'T and S'T
    need no eigendecomposition."""
    z = sample.z
    gram_inv_sqrt = _inv_sqrt_psd(z @ z.T)
    norm = np.sqrt(1.0 + beta0 * beta0)
    s = gram_inv_sqrt @ (z @ (sample.y1 - beta0 * sample.y2)) / norm
    t = gram_inv_sqrt @ (z @ (beta0 * sample.y1 + sample.y2)) / norm
    return STPair(s=s, t=t, beta0=float(beta0))


def t_clr(pair: STPair) -> float:
    """S'S - T'T + sqrt((S'S - T'T)^2 + 4 (S'T)^2), always >= 0."""
    return float(tclr_from(float(pair.s @ pair.s), float(pair.t @ pair.t),
                           float(pair.s @ pair.t)))


def t_lm(pair: STPair) -> float:
    """(S'T)^2 / T'T, compared against the chi-square(1) quantile."""
    tt = float(pair.t @ pair.t)
    if tt <= 0.0:
        raise ValueError("T'T = 0: the Lagrange-multiplier statistic is undefined")
    return lm_from(tt, float(pair.s @ pair.t))


def t_ar(pair: STPair, n_instruments: Optional[int] = None) -> float:
    """S'S / J, compared against the chi-square(J)/J quantile."""
    J = n_instruments if n_instruments is not None else pair.s.size
    return ar_from(float(pair.s @ pair.s), J)
