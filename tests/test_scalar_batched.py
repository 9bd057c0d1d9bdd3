"""The scalar statistics against the batched kernels of the power harness:
each statistic has one implementation, and a single sample is a batch of
one."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.stats import ks_2samp

from ivboot import GeneralDesign, RngStream
from ivboot.benchmark import (
    ams_blr_statistic,
    ams_lr_statistic,
    ar_from,
    clr_critical_values,
    lm_from,
    profile_sup,
    st_quadratics,
    st_vectors,
    t_ar,
    t_clr,
    t_lm,
    tclr_from,
)
from ivboot.bootstrap import (RetryDrawError, boot_loglik, boot_quantile, check_redraws,
                              empirical_upper_quantile)
from ivboot.harness import (TABLE_SPECS, _UNIT, _blr_quantiles, _blr_values, _Engine,
                            _profile_from_sums, _sample_unit, _sum_law, power_curve,
                            table_config)
from ivboot.quasilik import (lr_features, loglik, mle, projector_split, restricted_mle, t_lr,
                             weighted_lr)
from ivboot.simgen import ERROR_KINDS, ErrorSpec, _gen_errors_batch, gen_errors, gen_sample

from conftest import H0_PROJECTOR, random_cosine_design

seeds = hs.integers(0, 2**32 - 1)
kinds = hs.sampled_from(ERROR_KINDS)
# distance of beta0 from the estimate: near it, and more than 10 away
offsets = hs.one_of(hs.floats(-3.0, 3.0), hs.floats(10.5, 60.0), hs.floats(-60.0, -10.5))


def _config(seed, kind, boot_reps=1000):
    cfg = table_config(1, reps=1, boot_reps=boot_reps, master_seed=seed)
    return dataclasses.replace(cfg, error=ErrorSpec(kind, omega=cfg.error.omega))


def _batch_of_one(cfg, sample):
    engine = _Engine(cfg)
    y1, y2 = sample.y1[None], sample.y2[None]
    return engine, y1, y2, engine.quadratics(y1 @ engine.z.T, y2 @ engine.z.T)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, kind=kinds, offset=offsets)
def test_scalar_statistics_match_batched_formulas(seed, kind, offset):
    cfg = _config(seed, kind)
    sample = gen_sample(cfg, rng=cfg.rng())
    beta0 = profile_sup(sample)[0] + offset
    _, _, _, q = _batch_of_one(cfg, sample)
    ss, tt, st = (x[0] for x in st_quadratics(*q, beta0))
    # t_clr cancels in d + sqrt(d^2 + 4 st^2): bound the error on the scale
    # of S'S + T'T, not of the statistic
    tol = 1e-10 * (ss + tt)
    pair = st_vectors(sample, beta0)
    batched = tclr_from(ss, tt, st)
    assert abs(t_clr(pair) - batched) <= tol
    assert abs(ams_lr_statistic(sample, beta0) - batched) <= tol
    assert abs(t_ar(pair) - ar_from(ss, cfg.q)) <= tol
    assert abs(t_lm(pair) - lm_from(tt, st)) <= tol


def test_power_curve_clr_column_uses_clr_critical_values():
    # the CLR column is the rejection rate against the scalar API's critical
    # values, recomputed from the shared quadratics of power_curve's units
    cfg = table_config(3, reps=2 * _UNIT + 7, boot_reps=50, master_seed=3)
    table = power_curve(cfg)
    engine = _Engine(cfg)
    units = [_sample_unit(engine, u)[:3] for u in range(3)]
    q11, q12, q22 = (np.concatenate(p) for p in zip(*units))
    for v, rate in zip(cfg.beta_grid, table.column("CLR")):
        ss, tt, st = st_quadratics(q11, q12, q22, v)
        assert rate == np.mean(tclr_from(ss, tt, st) > clr_critical_values(tt, cfg.q, cfg.alpha))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, kind=kinds, n=hs.integers(1, 1000))
def test_gen_errors_is_the_batch_of_one(seed, kind, n):
    spec = ErrorSpec(kind, omega=np.array([[1.5, 0.3], [0.3, 0.8]]))
    single = gen_errors(spec, n, RngStream(seed, 0))
    batch = _gen_errors_batch(spec, n, 1, RngStream(seed, 0).generator())
    assert batch.shape == (1, n, 2)
    assert np.array_equal(single, batch[0])


def _weights_quantile(engine, y1, y2, q, block, redraw):
    """The BLR critical value and redraw count of one replication from weight
    vectors: each row u of ``block`` (B, n) gives the sums F'u, then the
    profile from sums, and a rejected row is replaced in draw order by
    redraw.normal(1, 1, n) vectors until one is accepted."""
    F = engine.sum_features(y1, y2)
    values, pd = _blr_values(engine, np.matmul(block[None], F), *q)
    n_redrawn = 0
    for b in np.flatnonzero(~pd[0]):
        ok = [False]
        while not ok[0]:
            n_redrawn += 1
            u = redraw.normal(1.0, 1.0, (1, 1, engine.config.n))
            value, ok = _blr_values(engine, np.matmul(u, F), *q)
        values[0, b] = value[0, 0]
    return empirical_upper_quantile(values[0], engine.config.alpha), n_redrawn


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=seeds, kind=kinds)
def test_blr_batch_of_one_matches_scalar_loop(seed, kind):
    cfg = _config(seed, kind, boot_reps=200)
    sample = gen_sample(cfg, rng=cfg.rng())
    gen = RngStream(seed, 1).generator()
    beta_tilde, _ = profile_sup(sample)
    block = gen.normal(1.0, 1.0, (cfg.boot_reps, cfg.n))
    loop = [ams_blr_statistic(sample, u, center=beta_tilde) for u in block]
    engine, y1, y2, q = _batch_of_one(cfg, sample)
    crit, n_retries = _weights_quantile(engine, y1, y2, q, block, gen)
    assert n_retries == 0
    assert crit == pytest.approx(empirical_upper_quantile(np.array(loop), cfg.alpha),
                                 rel=1e-10)


class _FirstBlock:
    """Generator whose first standard_normal() call returns ``block``; later
    calls draw from ``gen``."""

    def __init__(self, block, gen):
        self.block, self.gen = block, gen

    def standard_normal(self, size):
        if self.block is None:
            return self.gen.standard_normal(size)
        block, self.block = self.block, None
        return block


@pytest.mark.parametrize("n_bad, reps", [(1, 1), (2, 1), (3, 1), (3, 2)])
def test_blr_redraws_are_counted(n_bad, reps):
    # each replication is one bootstrap of 200 draws, which may redraw 2;
    # a third aborts, also in a unit of 2 x 200 draws
    cfg = _config(3, "gauss", boot_reps=200)
    engine = _Engine(cfg)
    samples = [gen_sample(cfg, rng=cfg.rng(r)) for r in range(reps)]
    y1 = np.stack([s.y1 for s in samples])
    y2 = np.stack([s.y2 for s in samples])
    q = engine.quadratics(y1 @ engine.z.T, y2 @ engine.z.T)
    gen = np.random.default_rng(5)
    block = gen.standard_normal((reps, cfg.boot_reps, 25))
    # with F = QR, the normal draw -2 Q'1 gives the sums of the weights u = -1:
    # the weighted Gram matrix -Z Z' is negative definite
    Q, _ = np.linalg.qr(engine.sum_features(y1[-1:], y2[-1:])[0])
    block[-1, 17:17 + n_bad] = -2.0 * Q.sum(axis=0)
    if n_bad > 2:
        with pytest.raises(RuntimeError, match="too many indefinite"):
            _blr_quantiles(engine, y1, y2, *q, _FirstBlock(block, gen))
        return
    crit, n_retries = _blr_quantiles(engine, y1, y2, *q, _FirstBlock(block, gen))
    assert n_retries == n_bad
    assert np.all(np.isfinite(crit))


def test_blr_redraws_every_indefinite_gram():
    # at n = 40 a weighted Gram matrix G can be indefinite while both
    # diagonal entries of W'G^{-1}W stay >= 0; the batched kernel must
    # redraw such a draw exactly as the scalar reference does
    cfg = dataclasses.replace(_config(2, "gauss", boot_reps=200), n=40,
                              concentration=40 * TABLE_SPECS[1]["lam"])
    sample = gen_sample(cfg, rng=cfg.rng())
    z, y = sample.z, np.stack([sample.y1, sample.y2], axis=1)
    gen = np.random.default_rng(11)
    bad, rows = None, []
    while bad is None or len(rows) < cfg.boot_reps - 1:
        u = gen.normal(1.0, 1.0, cfg.n)
        G, W = (z * u) @ z.T, (z * u) @ y
        if np.linalg.eigvalsh(G)[0] > 0:
            rows.append(u)
        elif bad is None and np.all(np.diag(W.T @ np.linalg.solve(G, W)) >= 0):
            bad = u
    block = np.array(rows[:cfg.boot_reps - 1])
    block = np.insert(block, 17, bad, axis=0)

    redraw = np.random.default_rng(12)
    beta_tilde, _ = profile_sup(sample)
    loop, n_redrawn = [], 0
    for u in block:
        while True:
            try:
                loop.append(ams_blr_statistic(sample, u, center=beta_tilde))
                break
            except RetryDrawError:
                n_redrawn += 1
                u = redraw.normal(1.0, 1.0, cfg.n)
    engine, y1, y2, q = _batch_of_one(cfg, sample)
    crit, n_retries = _weights_quantile(engine, y1, y2, q, block, np.random.default_rng(12))
    assert n_redrawn >= 1
    assert n_retries == n_redrawn
    assert crit == pytest.approx(empirical_upper_quantile(np.array(loop), cfg.alpha),
                                 rel=1e-10)


def _drawn_and_weighted(cfg, reps, n_draws, seed):
    """``reps`` replications of cfg's table-1 model, and for each the sums F'u
    of n_draws weight vectors u and n_draws sums drawn from their Gaussian
    law, with independent streams."""
    engine = _Engine(cfg)
    eps = _gen_errors_batch(cfg.error, cfg.n, reps, RngStream(seed, 0).generator())
    y1 = cfg.beta_star * engine.x[None, :] + eps[:, :, 0]
    y2 = engine.x[None, :] + eps[:, :, 1]
    u = RngStream(seed, 1).generator().normal(1.0, 1.0, (reps, n_draws, cfg.n))
    weighted = np.matmul(u, engine.sum_features(y1, y2))
    mean, factor = _sum_law(engine, y1, y2)
    z = RngStream(seed, 2).generator().standard_normal((reps, n_draws, factor.shape[1]))
    drawn = mean[:, None] + np.matmul(z, factor)
    return engine, y1, y2, weighted, drawn


def test_drawn_sums_have_the_law_of_weighted_sums():
    # the Gaussian law of the drawn sums has the mean F'1 and covariance
    # F'F of the sums F'u; per replication, two-sample KS tests compare the
    # drawn path with the n-vector path on the bootstrap statistic and on
    # one fixed linear combination of the 25 sums
    cfg = table_config(1, reps=8, boot_reps=1000)
    engine, y1, y2, weighted, drawn = _drawn_and_weighted(cfg, 8, 5000, 7)
    F = engine.sum_features(y1, y2)
    mean, factor = _sum_law(engine, y1, y2)
    cov = np.matmul(F.transpose(0, 2, 1), F)
    assert np.allclose(mean, F.sum(axis=1), rtol=0, atol=1e-12 * np.abs(F).sum())
    assert np.allclose(np.matmul(factor.transpose(0, 2, 1), factor), cov,
                       rtol=0, atol=1e-12 * np.abs(cov).max())
    q = engine.quadratics(y1 @ engine.z.T, y2 @ engine.z.T)
    t_weighted, pd_weighted = _blr_values(engine, weighted, *q)
    t_drawn, pd_drawn = _blr_values(engine, drawn, *q)
    assert pd_weighted.all() and pd_drawn.all()
    direction = RngStream(7, 3).generator().standard_normal(25)
    p_values = []
    for r in range(8):
        p_values.append(ks_2samp(t_weighted[r], t_drawn[r]).pvalue)
        p_values.append(ks_2samp(weighted[r] @ direction, drawn[r] @ direction).pvalue)
    # 16 tests: under the null, all exceed 1e-3 with probability 0.98
    assert min(p_values) > 1e-3


def test_drawn_sums_redraw_as_often_as_weighted_sums():
    # at n = 30, q = 5 about 4% of N(1, 1) weight vectors give an indefinite
    # weighted Gram matrix; drawing the sums must reject as often
    cfg = dataclasses.replace(table_config(1, reps=1, boot_reps=1000), n=30,
                              concentration=30 * TABLE_SPECS[1]["lam"])
    n_draws = 50_000
    engine, _, _, weighted, drawn = _drawn_and_weighted(cfg, 1, n_draws, 11)
    rate_weighted = 1.0 - _profile_from_sums(engine, weighted)[3].mean()
    rate_drawn = 1.0 - _profile_from_sums(engine, drawn)[3].mean()
    sd = np.sqrt(2.0 * rate_weighted * (1.0 - rate_weighted) / n_draws)
    assert 0.03 < rate_weighted < 0.05
    assert abs(rate_drawn - rate_weighted) < 4.0 * sd


def reference_maxima(design, u, projector, theta_tilde):
    """The full and the restricted maxima of boot_loglik for one weight
    vector, each from its own linear solve; their difference is T_BLR.
    Raises RetryDrawError when numpy's Cholesky rejects the weighted normal
    matrix."""
    A_u = np.einsum("kij,i,kil->jl", design.eta, u, design.eta)
    r_u = np.einsum("kij,i,ki->j", design.eta, u, design.zk)
    M = A_u + design.penalty * u.mean() * np.eye(design.dim)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise RetryDrawError("weighted normal matrix is not positive definite") from None
    full = boot_loglik(design, u, np.linalg.solve(M, r_u))
    _, U0 = projector_split(projector)
    restricted = theta_tilde
    if U0.shape[1]:
        # theta = theta_tilde + U0 gamma; quadratic in gamma with curvature M
        g = r_u - M @ theta_tilde
        restricted = theta_tilde + U0 @ np.linalg.solve(U0.T @ M @ U0, U0.T @ g)
    return full, boot_loglik(design, u, restricted)


def _close_to_reference(batched, full, restricted):
    # the reference subtracts two maxima, so it carries an absolute
    # rounding error of a few ulps of their size
    reference = full - restricted
    return (abs(batched - reference)
            <= 1e-9 * abs(reference) + 1e-13 * (1.0 + abs(full) + abs(restricted)))


@hs.composite
def quasilik_cases(draw):
    """A random design with J = 1..6 regressors and K = 1..3 instruments, a
    random orthogonal projector of rank 0..J, and a penalty, 0 included."""
    gen = np.random.default_rng(draw(seeds))
    J = draw(hs.integers(1, 6))
    K = draw(hs.integers(1, 3))
    n = draw(hs.integers(J + 2, 200))
    eta = gen.normal(0.0, 1.0, (K, n, J)) * gen.uniform(0.2, 3.0, J)
    zk = eta @ gen.normal(0.0, 1.0, J) + gen.normal(0.0, 1.5, (K, n))
    penalty = draw(hs.sampled_from([0.0, 1e-3, 0.5, 5.0]))
    basis, _ = np.linalg.qr(gen.standard_normal((J, J)))
    rank = draw(hs.integers(0, J))
    projector = basis[:, :rank] @ basis[:, :rank].T
    return GeneralDesign(eta=eta, zk=zk, penalty=penalty), projector, gen


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=quasilik_cases())
def test_weighted_lr_matches_reference_per_draw(case):
    design, projector, gen = case
    theta_tilde = mle(design)
    u = gen.normal(1.0, 1.0, (40, design.n_obs))
    values, pd = weighted_lr(design, *lr_features(design, projector, theta_tilde), u)
    for b in range(len(u)):
        try:
            maxima = reference_maxima(design, u[b], projector, theta_tilde)
        except RetryDrawError:
            assert not pd[b]
            continue
        assert pd[b]
        assert _close_to_reference(values[b], *maxima)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=quasilik_cases())
def test_t_lr_matches_difference_of_maxima(case):
    design, projector, _ = case
    assert _close_to_reference(t_lr(design, projector), loglik(design, mle(design)),
                               loglik(design, restricted_mle(design, projector)))


def _sequential_boot(design, projector, n_boot, gen):
    """boot_quantile's samples and redraw count, one gen.normal(1, 1, n)
    vector at a time, skipping each vector numpy's Cholesky rejects."""
    theta_tilde = mle(design)
    samples, retries = [], 0
    while len(samples) < n_boot:
        try:
            full, restricted = reference_maxima(design, gen.normal(1.0, 1.0, design.n_obs),
                                                projector, theta_tilde)
            samples.append(full - restricted)
        except RetryDrawError:
            retries += 1
            check_redraws(retries, n_boot)
    return np.array(samples), retries


@pytest.mark.parametrize("n, n_instruments, n_boot, seed", [
    (50, 1, 1000, 3), (60, 1, 1000, 1), (40, 2, 1000, 2), (100, 1, 1000, 1),  # 9, 4, 3, 1 redraws
    (30, 1, 1000, 2), (25, 2, 500, 4),  # aborts
])
def test_boot_quantile_is_the_sequential_redraw_loop(n, n_instruments, n_boot, seed):
    # at small n, N(1, 1) weights make some weighted normal matrices
    # indefinite: the batched bootstrap must keep and count the same draws,
    # and abort at the same count, as the draw-by-draw loop
    design = random_cosine_design(n, RngStream(seed, 0).generator(),
                                  n_instruments=n_instruments)
    try:
        samples, retries = _sequential_boot(design, H0_PROJECTOR, n_boot,
                                            RngStream(seed, 1).generator())
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=re.escape(str(exc))):
            boot_quantile(design, H0_PROJECTOR, n_boot, 0.05, RngStream(seed, 1))
        return
    run = boot_quantile(design, H0_PROJECTOR, n_boot, 0.05, RngStream(seed, 1))
    assert retries > 0
    assert run.n_retries == retries
    assert np.allclose(run.t_blr_samples, samples, rtol=1e-9, atol=1e-12)
