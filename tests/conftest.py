import numpy as np
import pytest

from ivboot import GeneralDesign, RngStream

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
