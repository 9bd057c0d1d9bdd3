import math

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2

from ivboot import IvSample, RngStream, SimConfig, cosine_design
from ivboot.benchmark import (
    STPair,
    _sup_profile_g,
    ams_blr_statistic,
    ams_lr_statistic,
    ams_profile_loglik,
    chi2_ppf,
    clr_critical,
    profile_sup,
    st_vectors,
    t_ar,
    t_clr,
    t_lm,
)
from ivboot.harness import table_config
from ivboot.simgen import gen_sample


def make_sample(seed=0, beta=1.0, n=80, q=4, noise=1.0):
    gen = RngStream(seed, 0).generator()
    z = cosine_design(n, q)
    pi = 0.3 * np.arange(1, q + 1.0)
    x = z.T @ pi
    y1 = beta * x + noise * gen.standard_normal(n)
    y2 = x + noise * gen.standard_normal(n)
    return IvSample(y1=y1, y2=y2, z=z)


def test_st_vectors_noiseless_null_kills_s():
    s = make_sample(noise=0.0, beta=0.7)
    pair = st_vectors(s, 0.7)
    assert np.linalg.norm(pair.s) <= 1e-10


def test_st_vectors_beta0_zero_specialization():
    s = make_sample(seed=3)
    pair = st_vectors(s, 0.0)
    gram = s.z @ s.z.T
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    assert np.allclose(pair.s, inv_sqrt @ (s.z @ s.y1))


def test_st_vectors_standardized_under_null():
    # S should have identity covariance across replications under the null
    n, q, reps = 50, 3, 2000
    z = cosine_design(n, q)
    pi = 0.2 * np.arange(1, q + 1.0)
    x = z.T @ pi
    gen = RngStream(11, 0).generator()
    gram = z @ z.T
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    beta0 = 1.0
    eps = gen.standard_normal((reps, n, 2))
    y1 = beta0 * x + eps[:, :, 0]
    y2 = x + eps[:, :, 1]
    S = (y1 - beta0 * y2) @ z.T @ inv_sqrt / np.sqrt(1 + beta0 ** 2)
    cov = np.cov(S.T)
    assert np.abs(cov - np.eye(q)).max() <= 0.1


def test_t_clr_zero_s():
    pair = STPair(s=np.zeros(3), t=np.array([1.0, 0, 0]), beta0=0.0)
    assert t_clr(pair) == 0.0


def test_t_clr_orthogonal_case():
    pair = STPair(s=np.array([np.sqrt(2), 0.0]), t=np.array([0.0, 1.0]), beta0=0.0)
    assert t_clr(pair) == pytest.approx(2.0)


def test_t_clr_aligned_unit_vectors():
    e1 = np.array([1.0, 0.0])
    assert t_clr(STPair(s=e1, t=e1, beta0=0.0)) == pytest.approx(2.0)


def test_t_clr_quadratic_root_identity(gen):
    for _ in range(20):
        pair = STPair(s=gen.standard_normal(5), t=gen.standard_normal(5), beta0=0.3)
        ss = pair.s @ pair.s
        tt = pair.t @ pair.t
        st = pair.s @ pair.t
        roots = np.roots([1.0, -(ss - tt), -(st ** 2)])
        assert t_clr(pair) == pytest.approx(2 * roots.max(), abs=1e-10)
        assert t_clr(pair) >= 0


def test_t_lm_t_ar_basics():
    s = np.array([2.0, 0.0])
    t = np.array([0.0, 3.0])
    assert t_lm(STPair(s=s, t=t, beta0=0.0)) == 0.0  # S orthogonal to T
    assert t_ar(STPair(s=np.zeros(2), t=t, beta0=0.0)) == 0.0
    with pytest.raises(ValueError):
        t_lm(STPair(s=s, t=np.zeros(2), beta0=0.0))


def test_t_ar_unit_when_norm_matches_dim():
    s = np.full(4, 1.0)  # ||S||^2 = 4 = J
    assert t_ar(STPair(s=s, t=np.ones(4), beta0=0.0)) == pytest.approx(1.0)


def test_t_ar_rotation_invariant(gen):
    s = gen.standard_normal(4)
    q, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    p1 = STPair(s=s, t=np.ones(4), beta0=0.0)
    p2 = STPair(s=q @ s, t=np.ones(4), beta0=0.0)
    assert t_ar(p1) == pytest.approx(t_ar(p2))


def test_clr_critical_large_tau_limit():
    crit = clr_critical(1e6, 5, 0.05, n_sims=100_000, rng=RngStream(2, 0))
    assert crit == pytest.approx(2 * chi2.ppf(0.95, 1), rel=0.05)


def test_clr_critical_zero_tau_limit():
    crit = clr_critical(0.0, 5, 0.05, n_sims=100_000, rng=RngStream(2, 1))
    assert crit == pytest.approx(2 * chi2.ppf(0.95, 5), rel=0.05)


def test_clr_critical_alpha_one_degenerate():
    crit = clr_critical(3.0, 4, 1.0, n_sims=2000, rng=RngStream(2, 2))
    assert crit >= 0.0
    assert crit <= 1.0  # minimum of a nonnegative statistic, near zero


def test_clr_critical_is_an_order_statistic():
    n_sims, J, tau, alpha = 5000, 4, 7.5, 0.05
    crit = clr_critical(tau, J, alpha, n_sims=n_sims, rng=RngStream(2, 4))
    S = RngStream(2, 4).generator().standard_normal((n_sims, J))
    d = np.einsum("mj,mj->m", S, S) - tau
    stats = d + np.sqrt(d * d + 4.0 * tau * S[:, 0] ** 2)
    k = int(np.ceil((1 - alpha) * n_sims))
    assert crit == np.sort(stats)[k - 1]


def test_clr_critical_monotone_in_tau():
    taus = [0.0, 2.0, 8.0, 32.0, 128.0]
    crits = [clr_critical(t, 5, 0.05, n_sims=40_000, rng=RngStream(2, 3)) for t in taus]
    assert all(crits[i + 1] <= crits[i] + 1e-9 for i in range(len(crits) - 1))


def test_profile_noiseless_recovery():
    s = make_sample(noise=0.0, beta=1.3)
    assert ams_profile_loglik(s, 1.3) == pytest.approx(0.0, abs=1e-10)


def test_profile_zero_weights_fallback():
    s = make_sample()
    assert ams_profile_loglik(s, 1.0, weights=np.zeros(s.n_obs)) == 0.0


def test_lr_statistic_equals_t_clr(gen):
    # the profile-likelihood route and the closed S/T formula agree
    for seed in range(6):
        s = make_sample(seed=seed, beta=1.0)
        for beta0 in (0.4, 1.0, 1.7):
            lr = ams_lr_statistic(s, beta0)
            direct = t_clr(st_vectors(s, beta0))
            assert lr == pytest.approx(direct, abs=1e-6)


@pytest.mark.parametrize("beta_star", [5.0, 12.0, 30.0])
def test_lr_statistic_equals_t_clr_far_from_beta0(beta_star):
    # strong instruments put the profile maximizer near beta_star, more than
    # 10 away from beta0 = 1 for the larger values
    cfg = SimConfig(n=200, q=5, concentration=50.0 * 200, beta_star=beta_star,
                    master_seed=17)
    s = gen_sample(cfg, rng=cfg.rng())
    assert ams_lr_statistic(s, 1.0) == pytest.approx(t_clr(st_vectors(s, 1.0)), rel=1e-8)


def test_profile_sup_at_infinity():
    # top direction (1, 0): the supremum is the limit as beta grows
    beta_max, gmax = _sup_profile_g(np.diag([2.0, 1.0]))
    assert beta_max == np.inf
    assert gmax == pytest.approx(2.0)
    s = make_sample(seed=2)
    limit = ams_profile_loglik(s, np.inf)
    assert limit == pytest.approx(ams_profile_loglik(s, 1e9), abs=1e-6)


def test_profile_unimodal_on_grid():
    # grid scan: no secondary local maximum above tolerance
    for seed in range(20):
        s = make_sample(seed=seed)
        grid = np.linspace(-4, 4, 161)
        vals = np.array([ams_profile_loglik(s, b) for b in grid])
        peaks = 0
        for i in range(1, len(grid) - 1):
            if vals[i] > vals[i - 1] + 1e-10 and vals[i] > vals[i + 1] + 1e-10:
                peaks += 1
        assert peaks <= 1


def test_blr_statistic_unit_weights_zero():
    s = make_sample(seed=4)
    assert abs(ams_blr_statistic(s, np.ones(s.n_obs))) <= 1e-8


def test_blr_statistic_nonnegative(gen):
    s = make_sample(seed=5)
    for _ in range(20):
        u = gen.normal(1, 1, s.n_obs)
        assert ams_blr_statistic(s, u) >= -1e-8


def test_blr_statistic_center_flag():
    s = make_sample(seed=6)
    gen = RngStream(31, 0).generator()
    u = gen.normal(1, 1, s.n_obs)
    beta_tilde, _ = profile_sup(s)
    assert ams_blr_statistic(s, u) == pytest.approx(
        ams_blr_statistic(s, u, center=beta_tilde))
    # centering away from the maximizer can only increase the statistic
    assert ams_blr_statistic(s, u, center=beta_tilde + 0.5) >= ams_blr_statistic(s, u) - 1e-9


def test_profile_sup_matches_grid_oracle():
    s = make_sample(seed=9)
    bhat, sup_val = profile_sup(s)
    grid = np.linspace(bhat - 0.5, bhat + 0.5, 4001)
    vals = [ams_profile_loglik(s, b) for b in grid]
    assert sup_val >= max(vals) - 1e-9


def _chi2_quantile_mp(p, df, start):
    """The chi-square(df) quantile at p to 40 digits: Newton's method in
    mpmath from ``start``, on the tail that holds the smaller probability."""
    with mpmath.workdps(40):
        k, x = mpmath.mpf(df) / 2, mpmath.mpf(start)
        upper = p >= 0.5
        target = 1 - mpmath.mpf(p) if upper else mpmath.mpf(p)
        for _ in range(4):
            if upper:
                excess = mpmath.gammainc(k, x / 2, mpmath.inf, regularized=True) - target
            else:
                excess = target - mpmath.gammainc(k, 0, x / 2, regularized=True)
            density = mpmath.exp((k - 1) * mpmath.log(x / 2) - x / 2 - mpmath.loggamma(k)) / 2
            step = excess / density
            x += step
        assert abs(step) < mpmath.mpf(10) ** -30 * x
        return x


def test_chi2_ppf_within_4_ulp_of_mpmath():
    ps = (0.001, 0.01, 0.05, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999)
    worst = 0.0
    for df in range(1, 201):
        for p in ps:
            x = chi2_ppf(p, df)
            exact = _chi2_quantile_mp(p, df, x)
            worst = max(worst, float(abs(x - exact)) / math.ulp(float(exact)))
    assert worst <= 4.0, worst


@pytest.mark.parametrize("df", [1000, 5000, 10_000])
def test_chi2_ppf_large_df(df):
    for p in (0.001, 0.05, 0.5, 0.95, 0.999):
        x = chi2_ppf(p, df)
        exact = _chi2_quantile_mp(p, df, x)
        assert float(abs(x - exact) / exact) <= 1e-12


@pytest.mark.parametrize("p, df", [(0.0, 5), (1.0, 5), (-0.1, 5), (1.5, 5), (math.nan, 5),
                                   (0.95, 0), (0.95, -3), (0.95, 2.5), (0.95, 5.0),
                                   (np.array([0.9, 0.95]), 5)])
def test_chi2_ppf_rejects_bad_arguments(p, df):
    with pytest.raises(ValueError):
        chi2_ppf(p, df)
