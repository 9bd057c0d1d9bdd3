import numpy as np
import pytest
from scipy.optimize import minimize

from ivboot import GeneralDesign, RngStream, SingularDesignError, SingularNuisanceError
from ivboot.quasilik import (
    grad_loglik,
    loglik,
    mle,
    restricted_mle,
    score_decomposition,
    score_vector_rhs,
    t_lr,
    wilks_gap,
)

from conftest import H0_PROJECTOR, THETA_FEASIBLE, population_fisher, random_cosine_design


def tiny_design(eta_row, z_val, penalty=0.0):
    eta = np.asarray(eta_row, dtype=float).reshape(1, 1, -1)
    return GeneralDesign(eta=eta, zk=np.array([[z_val]]), penalty=penalty)


def test_loglik_empty_sum():
    d = GeneralDesign(eta=np.zeros((1, 3, 2)), zk=np.zeros((1, 3)))
    assert loglik(d, np.zeros(2)) == 0.0


def test_loglik_exact_fit():
    d = tiny_design([1.0, 0.0], 2.0)
    assert loglik(d, [2.0, 0.0]) == 0.0


def test_loglik_miss():
    d = tiny_design([1.0, 0.0], 2.0)
    assert loglik(d, [0.0, 0.0]) == pytest.approx(-2.0)


def test_mle_penalty_only():
    d = GeneralDesign(eta=np.random.default_rng(0).standard_normal((1, 5, 2)),
                      zk=np.zeros((1, 5)), penalty=0.5)
    assert np.allclose(mle(d), 0.0)


def test_mle_small_closed_form():
    d = tiny_design([1.0, 0.0], 2.0, penalty=1.0)
    assert np.allclose(mle(d), [1.0, 0.0])


def test_mle_matches_numeric_optimizer(gen):
    d = random_cosine_design(20, gen, theta=np.array([0.5, -0.2, 0.1]), penalty=0.7)
    theta_hat = mle(d)
    res = minimize(lambda th: -loglik(d, th), np.zeros(3), method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000})
    assert np.linalg.norm(theta_hat - res.x) < 1e-4


def test_mle_gradient_stationary(gen):
    d = random_cosine_design(50, gen)
    g = grad_loglik(d, mle(d))
    assert np.linalg.norm(g) <= 1e-8 * (1 + np.linalg.norm(score_vector_rhs(d)))


def test_mle_is_strict_maximum(gen):
    d = random_cosine_design(50, gen, penalty=0.1)
    theta_hat = mle(d)
    base = loglik(d, theta_hat)
    for _ in range(10):
        v = gen.standard_normal(theta_hat.size)
        v *= 1e-2 / np.linalg.norm(v)
        assert loglik(d, theta_hat + v) < base


def test_ridge_shrinkage_monotone(gen):
    d0 = random_cosine_design(50, gen, penalty=0.0)
    norms = []
    for lam in (0.0, 1.0, 10.0, 100.0):
        d = GeneralDesign(eta=d0.eta, zk=d0.zk, penalty=lam)
        norms.append(np.linalg.norm(mle(d)))
    assert all(norms[i + 1] <= norms[i] + 1e-10 for i in range(3))


def test_singular_design_error_advises_penalty():
    eta = np.zeros((1, 2, 3))
    eta[0, :, 0] = [1.0, 2.0]  # rank 1 in 3 dims
    d = GeneralDesign(eta=eta, zk=np.ones((1, 2)), penalty=0.0)
    with pytest.raises(SingularDesignError, match="penalty"):
        mle(d)
    d_pen = GeneralDesign(eta=eta, zk=np.ones((1, 2)), penalty=1e-6)
    assert np.all(np.isfinite(mle(d_pen)))


def test_restricted_mle_unconstrained(gen):
    d = random_cosine_design(30, gen)
    assert np.allclose(restricted_mle(d, np.zeros((5, 5))), mle(d))


def test_restricted_mle_fully_constrained(gen):
    d = random_cosine_design(30, gen)
    assert np.allclose(restricted_mle(d, np.eye(5)), 0.0)


def test_restricted_mle_reduced_problem(gen):
    d = random_cosine_design(30, gen, theta=np.array([0.3, -0.4]))
    proj = np.diag([1.0, 0.0])
    r = restricted_mle(d, proj)
    assert r[0] == pytest.approx(0.0, abs=1e-12)
    reduced = GeneralDesign(eta=d.eta[:, :, 1:], zk=d.zk, penalty=d.penalty)
    assert r[1] == pytest.approx(mle(reduced)[0])


def test_t_lr_zero_for_trivial_projector(gen):
    d = random_cosine_design(30, gen)
    assert t_lr(d, np.zeros((5, 5))) == pytest.approx(0.0, abs=1e-10)


def test_t_lr_one_point_example():
    d = tiny_design([1.0], 2.0)
    assert t_lr(d, np.eye(1)) == pytest.approx(2.0)


def test_t_lr_nonnegative(gen):
    for _ in range(20):
        d = random_cosine_design(25, gen, penalty=float(gen.uniform(0, 2)))
        assert t_lr(d, H0_PROJECTOR) >= -1e-10


def test_t_lr_null_mean_matches_chi2():
    # truth feasible under H0 and noise variance 2: T_LR is chi2 with
    # rank(projector) degrees of freedom
    J1 = 2
    vals = []
    for r in range(400):
        gen = RngStream(99, r).generator()
        d = random_cosine_design(500, gen)
        vals.append(t_lr(d, H0_PROJECTOR))
    centered = (np.array(vals) - J1) / np.sqrt(J1)
    assert abs(centered.mean()) < 0.25


def test_score_zero_at_truth_noiseless():
    gen = RngStream(7, 0).generator()
    d = random_cosine_design(40, gen, noise_sd=0.0)
    sd = score_decomposition(d, THETA_FEASIBLE, H0_PROJECTOR)
    assert np.linalg.norm(sd.xi) <= 1e-9
    assert np.linalg.norm(sd.xi_s) <= 1e-9


def test_score_full_projector_degenerates(gen):
    d = random_cosine_design(40, gen)
    sd = score_decomposition(d, THETA_FEASIBLE, np.eye(5))
    assert np.allclose(np.linalg.norm(sd.xi_s), np.linalg.norm(sd.xi))


@pytest.mark.parametrize("fisher", [np.zeros((5, 5)), -np.eye(5), np.diag([1.0, 1, 1, 1, 0])],
                         ids=["zero", "negative", "singular"])
def test_score_rejects_fisher_not_positive_definite(gen, fisher):
    d = random_cosine_design(30, gen)
    with pytest.raises(SingularNuisanceError):
        score_decomposition(d, THETA_FEASIBLE, np.eye(5), expected_fisher=fisher)


def test_score_norm_squared_equals_twice_t_lr(gen):
    # exactly-quadratic likelihood with sample expectation matrices
    for _ in range(5):
        d = random_cosine_design(30, gen, penalty=0.2)
        sd = score_decomposition(d, THETA_FEASIBLE, H0_PROJECTOR)
        assert np.linalg.norm(sd.xi_s) ** 2 == pytest.approx(2 * t_lr(d, H0_PROJECTOR), abs=1e-8)


def test_wilks_gap_exact_quadratic(gen):
    d = random_cosine_design(60, gen, penalty=0.5)
    assert wilks_gap(d, H0_PROJECTOR, THETA_FEASIBLE) <= 1e-8


def test_wilks_gap_noiseless():
    gen = RngStream(8, 0).generator()
    d = random_cosine_design(40, gen, noise_sd=0.0)
    assert wilks_gap(d, H0_PROJECTOR, THETA_FEASIBLE) <= 1e-10


def test_wilks_gap_shrinks_with_n():
    def med(n, seed):
        gaps = []
        for r in range(60):
            g = RngStream(seed, r).generator()
            d = random_cosine_design(n, g)
            gaps.append(wilks_gap(d, H0_PROJECTOR, THETA_FEASIBLE,
                                  expected_fisher=population_fisher(n, 5)))
        return np.median(gaps)

    assert med(200, 31) / med(2000, 32) >= 2.0
