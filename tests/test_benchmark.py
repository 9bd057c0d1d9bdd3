import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc
from scipy.stats import chi2

from ivboot import IvSample, RngStream, SimConfig, cosine_design
from ivboot.benchmark import (
    _sup_profile_g,
    ams_blr_statistic,
    ams_lr_statistic,
    ams_profile_loglik,
    chi2_ppf,
    clr_critical,
    clr_critical_values,
    profile_features,
    profile_from_sums,
    profile_sup,
    tclr_from,
)
from ivboot.bootstrap import RetryDrawError
from ivboot.harness import _Engine, table_config
from ivboot.quasilik import SingularNuisanceError
from ivboot.simgen import _gen_errors_batch, gen_sample

from conftest import STPair, st_vectors, t_ar, t_clr, t_lm


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log_ss=hs.floats(-3.0, 3.0), log_ratio=hs.floats(-5.0, 40.0),
       rho=hs.floats(-1.0, 1.0), log_scale=hs.integers(-100, 120))
def test_tclr_from_matches_mpmath(log_ss, log_ratio, rho, log_scale):
    # T'T up to 1e40 S'S, where d + sqrt(d^2 + 4 st^2) cancels, T'T up to
    # 1e166, where d^2 overflows, and S'T down to where st^2 underflows,
    # within Cauchy-Schwarz; the reference is that direct form at 1000
    # digits, more than d^2 / st^2 can span here
    ss = 10.0 ** (log_ss + log_scale)
    tt = ss * 10.0 ** log_ratio
    st = rho * math.sqrt(ss) * math.sqrt(tt)
    with mpmath.workdps(1000):
        d = mpmath.mpf(ss) - mpmath.mpf(tt)
        ref = d + mpmath.sqrt(d * d + 4 * mpmath.mpf(st) ** 2)
        # a value below the smallest normal double rounds absolutely
        assert abs(float(tclr_from(ss, tt, st)) - ref) <= 1e-14 * ref + sys.float_info.min


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


def _clr_critical_reference(tau, k, alpha):
    """Exact conditional critical value of t_clr by scipy quadrature, with
    S1^2 = c s^2 in place of the library's c sin^2(phi)."""
    if k == 1:
        return 2 * chi2.ppf(1 - alpha, 1)

    def cdf(c):
        def f(s):
            return (math.sqrt(2 * c / math.pi) * math.exp(-0.5 * c * s * s)
                    * gammainc(0.5 * (k - 1), 0.5 * (c + tau) * (1 - s * s)))
        points = [math.sqrt(max(0.0, 1 - y / (c + tau))) for y in (k - 1, 2 * (k + 40))]
        return quad(f, 0, 1, points=points, epsabs=1e-14, epsrel=1e-12, limit=200)[0]

    return 2 * brentq(lambda c: cdf(c) - (1 - alpha), 0.99 * chi2.ppf(1 - alpha, 1),
                      1.01 * chi2.ppf(1 - alpha, k), xtol=1e-13)


@pytest.mark.parametrize("k", range(1, 9))
def test_clr_critical_values_match_quadrature_reference(k):
    taus = [0.0, 0.3, 3.0, 20.0, 100.0, 560.0, 3000.0, 1e4]
    for alpha in (0.01, 0.05, 0.10):
        ref = [_clr_critical_reference(tau, k, alpha) for tau in taus]
        np.testing.assert_allclose(clr_critical_values(taus, k, alpha), ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("k", [1, 2, 5, 8])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
def test_clr_critical_limits_and_monotone(k, alpha):
    # tau = 0: t_clr = 2 S'S; tau -> infinity: t_clr -> 2 S1^2
    assert clr_critical(0.0, k, alpha) == pytest.approx(2 * chi2_ppf(1 - alpha, k), rel=1e-12)
    assert clr_critical(1e8, k, alpha) == pytest.approx(2 * chi2_ppf(1 - alpha, 1), rel=1e-6)
    crit = clr_critical_values(np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 2000)]), k, alpha)
    assert np.diff(crit).max() <= 1e-12  # at k = 1, rounding about a constant


@pytest.mark.parametrize("k, seed", [(2, 1), (5, 2)])
def test_clr_critical_is_the_null_quantile(k, seed):
    m, alpha = 400_000, 0.05
    S = RngStream(seed, 0).generator().standard_normal((m, k))
    ss = np.einsum("mj,mj->m", S, S)
    for tau in (1.0, 20.0, 300.0):
        stat = tclr_from(ss, tau, math.sqrt(tau) * S[:, 0])
        rate = np.mean(stat > clr_critical(tau, k, alpha))
        assert abs(rate - alpha) <= 4 * math.sqrt(alpha * (1 - alpha) / m)


@pytest.mark.parametrize("taus, k, alpha", [
    ([np.nan], 5, 0.05), ([-1e-9], 5, 0.05), ([np.inf], 5, 0.05),
    ([3.0], 5, 0.0), ([3.0], 5, 1.0), ([3.0], 5, 1.5), ([3.0], 5, np.nan),
    ([3.0], 5, 1e-17), ([3.0], 0, 0.05), ([3.0], 2.5, 0.05),
], ids=["tau-nan", "tau-negative", "tau-inf", "alpha-0", "alpha-1", "alpha-1.5", "alpha-nan",
        "alpha-1e-17", "k-0", "k-2.5"])
def test_clr_critical_values_reject_bad_input(taus, k, alpha):
    with pytest.raises(ValueError):
        clr_critical_values(taus, k, alpha)


def test_profile_noiseless_recovery():
    s = make_sample(noise=0.0, beta=1.3)
    assert ams_profile_loglik(s, 1.3) == pytest.approx(0.0, abs=1e-10)


def test_profile_zero_weights_fallback():
    # all-zero weights leave no weighted maximizer: the scalar BLR reference
    # redraws them, as the batched kernel does
    s = make_sample()
    with pytest.raises(RetryDrawError):
        ams_blr_statistic(s, np.zeros(s.n_obs))
    J = s.n_instruments
    assert not profile_from_sums(np.zeros((1, J * (J + 1) // 2 + 2 * J)), J)[3][0]


@hs.composite
def profile_cases(draw):
    """Instruments z (J, n) with columns of unequal scale, the whole matrix
    scaled by 1 or 1e-6, outcomes y1, y2 and 30 N(1, 1) weight vectors; at
    n close to J many weighted Gram matrices are indefinite.  The last
    vector puts a large negative weight on one observation, which makes
    G = Z diag(u) Z' indefinite for J >= 2."""
    gen = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    J = draw(hs.integers(1, 6))
    n = draw(hs.integers(J + 1, 80))
    z = gen.standard_normal((J, n)) * gen.uniform(0.1, 10.0, (J, 1))
    z *= draw(hs.sampled_from([1.0, 1e-6]))
    y1, y2 = gen.standard_normal((2, J)) @ z / np.abs(z).max() + gen.standard_normal((2, n))
    u = gen.normal(1.0, 1.0, (30, n))
    u[-1] = 1.0
    u[-1, 0] = 1.0 - 2.0 * np.sum(z * z) / np.sum(z[:, 0] ** 2)  # z_0'G z_0 < 0
    return z, y1, y2, u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=profile_cases())
def test_profile_from_sums_matches_numpy_solve(case):
    # each row's 2x2 matrix W'G^{-1}W against numpy's solve, where G is
    # clearly definite; a clearly indefinite G must get a False verdict
    z, y1, y2, u = case
    J = len(z)
    hb11, hb12, hb22, pd = profile_from_sums(u @ profile_features(z, y1, y2), J)
    y = np.stack([y1, y2], axis=1)
    for b in range(len(u)):
        G, W = (z * u[b]) @ z.T, (z * u[b]) @ y
        d = np.sqrt(np.abs(np.diag(G)))
        lowest = np.linalg.eigvalsh(G / np.outer(d, d))[0]  # in units free of z's scale
        if b == len(u) - 1 and J >= 2:
            assert np.linalg.eigvalsh(G)[-1] > 0 > lowest  # indefinite
        if lowest < -1e-8 or np.any(np.diag(G) <= 0):
            assert not pd[b]
        elif lowest > 1e-6:
            assert pd[b]
            M = W.T @ np.linalg.solve(G, W)
            scale = 1e-9 * (M[0, 0] + M[1, 1])
            assert abs(hb11[b] - M[0, 0]) <= scale
            assert abs(hb12[b] - M[0, 1]) <= scale
            assert abs(hb22[b] - M[1, 1]) <= scale


@pytest.mark.parametrize("table", [1, 2, 3, 4])
def test_engine_quadratics_are_the_kernel_at_unit_weights(table):
    # the harness's unweighted quadratics, one gram_root of Z Z' for every
    # replication, are profile_from_sums at u = 1
    cfg = table_config(table, reps=50)
    engine = _Engine(cfg)
    eps = _gen_errors_batch(cfg.error, cfg.n, cfg.reps, RngStream(table, 0).generator())
    y1 = cfg.beta_star * engine.x + eps[:, :, 0]
    y2 = engine.x + eps[:, :, 1]
    q = engine.quadratics(np.concatenate([y1 @ engine.z.T, y2 @ engine.z.T], -1))
    *hb, pd = profile_from_sums(profile_features(engine.z, y1, y2).sum(axis=1), cfg.q)
    assert pd.all()
    for got, kernel in zip(q, hb):
        assert np.allclose(got, kernel, rtol=1e-12, atol=0)


def test_profile_is_invariant_to_instrument_units():
    # the Gram matrix of z * 1e-6 has eigenvalues near 1e-10: the profile
    # statistics must not mistake it for zero
    cfg = table_config(1, master_seed=3)
    s = gen_sample(cfg, rng=cfg.rng())
    small = IvSample(y1=s.y1, y2=s.y2, z=s.z * 1e-6)
    expected = t_clr(st_vectors(s, 1.0))
    assert t_clr(st_vectors(small, 1.0)) == pytest.approx(expected, rel=1e-9)
    assert ams_lr_statistic(small, 1.0) == pytest.approx(expected, rel=1e-8)
    assert profile_sup(small)[1] == pytest.approx(profile_sup(s)[1], rel=1e-9)


def test_profile_rejects_singular_gram_like_st_vectors():
    # n = 8, q = 5: cosine row 5 repeats row 3, so Z Z' is singular
    gen = RngStream(8, 0).generator()
    s = IvSample(y1=gen.standard_normal(8), y2=gen.standard_normal(8), z=cosine_design(8, 5))
    with pytest.raises(SingularNuisanceError):
        st_vectors(s, 1.0)
    with pytest.raises(SingularNuisanceError):
        ams_lr_statistic(s, 1.0)
    with pytest.raises(SingularNuisanceError):
        ams_profile_loglik(s, 1.0)


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
