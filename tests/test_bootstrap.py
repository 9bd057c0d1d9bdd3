import numpy as np
import pytest

from ivboot import GeneralDesign, RngStream, RetryDrawError
from ivboot.bootstrap import (
    blr_test,
    boot_quantile,
    boot_wilks_gap,
    empirical_upper_quantile,
    t_blr,
)
from ivboot.quasilik import loglik, mle, t_lr

from conftest import (H0_PROJECTOR, THETA_FEASIBLE, boot_loglik, population_fisher,
                      random_cosine_design)


def test_boot_loglik_unit_weights_reduce(gen):
    d = random_cosine_design(30, gen, penalty=0.4)
    theta = gen.standard_normal(5)
    assert boot_loglik(d, np.ones(30), theta) == pytest.approx(loglik(d, theta))


def test_boot_loglik_zero_weights(gen):
    d = random_cosine_design(30, gen, penalty=0.4)
    assert boot_loglik(d, np.zeros(30), gen.standard_normal(5)) == 0.0


def test_boot_loglik_scaling(gen):
    d = random_cosine_design(30, gen, penalty=0.4)
    theta = gen.standard_normal(5)
    assert boot_loglik(d, 2 * np.ones(30), theta) == pytest.approx(2 * loglik(d, theta))


def test_boot_loglik_linearity_in_weights(gen):
    d = random_cosine_design(25, gen, penalty=0.1)
    theta = gen.standard_normal(5)
    w1 = gen.normal(1, 1, 25)
    w2 = gen.normal(1, 1, 25)
    a, b = 0.7, -1.3
    lhs = boot_loglik(d, a * w1 + b * w2, theta)
    rhs = a * boot_loglik(d, w1, theta) + b * boot_loglik(d, w2, theta)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_t_blr_indefinite_raises():
    eta = np.ones((1, 1, 1))
    d = GeneralDesign(eta=eta, zk=np.ones((1, 1)), penalty=0.0)
    with pytest.raises(RetryDrawError):
        t_blr(d, np.array([-1.0]), np.eye(1))


def test_t_blr_unit_weights_zero(gen):
    d = random_cosine_design(30, gen, penalty=0.2)
    assert t_blr(d, np.ones(30), H0_PROJECTOR) == pytest.approx(0.0, abs=1e-10)


def test_t_blr_trivial_projector(gen):
    d = random_cosine_design(30, gen, penalty=0.2)
    u = gen.normal(1, 1, 30)
    assert t_blr(d, u, np.zeros((5, 5))) == pytest.approx(0.0, abs=1e-10)


def test_t_blr_nonnegative(gen):
    d = random_cosine_design(40, gen)
    done = 0
    while done < 25:
        u = gen.normal(1, 1, 40)
        try:
            value = t_blr(d, u, H0_PROJECTOR)
        except RetryDrawError:
            continue  # small-n draws can go indefinite; redraw as callers do
        assert value >= -1e-10
        done += 1


def test_t_blr_mean_near_chi2_limit():
    # variance-2 noise: T_BLR is approximately chi2 with rank(projector)
    # degrees of freedom for large n
    n, J1 = 2000, 2
    gen = RngStream(17, 0).generator()
    d = random_cosine_design(n, gen)
    theta_tilde = mle(d)
    vals = [t_blr(d, gen.normal(1, 1, n), H0_PROJECTOR, theta_tilde=theta_tilde)
            for _ in range(2000)]
    assert abs(np.mean(vals) - J1) <= 0.15 * J1


def test_empirical_quantile_median_convention():
    samples = np.arange(1.0, 102.0)  # symmetric, odd count
    assert empirical_upper_quantile(samples, 0.5) == np.median(samples)


def test_boot_quantile_deterministic(gen):
    d = random_cosine_design(120, gen, penalty=0.1)
    r1 = boot_quantile(d, H0_PROJECTOR, 150, 0.05, RngStream(5, 9))
    r2 = boot_quantile(d, H0_PROJECTOR, 150, 0.05, RngStream(5, 9))
    assert r1.z_star_alpha == r2.z_star_alpha
    assert np.array_equal(r1.t_blr_samples, r2.t_blr_samples)
    assert np.all(r1.t_blr_samples >= -1e-10)
    # quantile definition: order statistic at ceil((1-alpha) B)
    z_manual = np.sort((r1.t_blr_samples - 5) / np.sqrt(5))[int(np.ceil(0.95 * 150)) - 1]
    assert r1.z_star_alpha == pytest.approx(z_manual)


def test_boot_quantile_retry_abort():
    # single-observation design: negative weights make the weighted matrix
    # indefinite in ~16% of draws, far past the 1% abort budget
    d = GeneralDesign(eta=np.ones((1, 1, 1)), zk=np.ones((1, 1)), penalty=0.0)
    with pytest.raises(RuntimeError, match="abort"):
        boot_quantile(d, np.eye(1), 200, 0.05, RngStream(1, 0))


def test_blr_test_threshold_rule(gen):
    d = random_cosine_design(120, gen, penalty=0.1)
    run = boot_quantile(d, H0_PROJECTOR, 200, 0.05, RngStream(5, 10))
    J = 5
    thr = J + run.z_star_alpha * np.sqrt(J)
    above = blr_test(d, H0_PROJECTOR, thr + np.sqrt(J), run)
    below = blr_test(d, H0_PROJECTOR, 0.0, run)
    assert above.reject
    assert not below.reject
    assert above.critical_value == pytest.approx(thr)


def test_blr_size_on_null_linear_design():
    # truth satisfies the hypothesis; rejection frequency should sit near the
    # nominal level
    n, B, alpha = 150, 120, 0.05
    rejects = 0
    reps = 250
    for r in range(reps):
        gen = RngStream(23, r).generator()
        d = random_cosine_design(n, gen)
        run = boot_quantile(d, H0_PROJECTOR, B, alpha, RngStream(24, r))
        out = blr_test(d, H0_PROJECTOR, t_lr(d, H0_PROJECTOR), run)
        rejects += out.reject
    freq = rejects / reps
    assert 0.02 <= freq <= 0.10


def test_unit_weights_collapse_entire_pipeline(gen):
    d = random_cosine_design(40, gen, penalty=0.3)
    u = np.ones(40)
    assert boot_loglik(d, u, THETA_FEASIBLE) == loglik(d, THETA_FEASIBLE)
    assert t_blr(d, u, H0_PROJECTOR) == pytest.approx(0.0, abs=1e-10)


def test_boot_wilks_gap_exact(gen):
    d = random_cosine_design(50, gen, penalty=0.2)
    u = gen.normal(1, 1, 50)
    assert boot_wilks_gap(d, u, H0_PROJECTOR, exact=True) <= 1e-8


def test_boot_wilks_gap_shrinks_with_n():
    def med(n, seed):
        gaps = []
        for r in range(60):
            g = RngStream(seed, r).generator()
            d = random_cosine_design(n, g)
            gaps.append(boot_wilks_gap(d, g.normal(1, 1, n), H0_PROJECTOR,
                                       theta_star=THETA_FEASIBLE,
                                       expected_fisher=population_fisher(n, 5)))
        return np.median(gaps)

    assert med(200, 41) / med(2000, 42) >= 2.0
