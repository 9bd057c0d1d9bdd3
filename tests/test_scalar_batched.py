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

from ivboot import GeneralDesign, RngStream, basis
from ivboot.benchmark import (
    _top_eigvec_2x2,
    gram_root,
    ams_blr_statistic,
    ams_lr_statistic,
    ar_from,
    blr_values,
    clr_critical_values,
    lm_from,
    profile_features,
    profile_from_sums,
    profile_sup,
    st_quadratics,
    tclr_from,
)
from ivboot.bootstrap import (RetryDrawError, boot_quantile, check_redraws,
                              empirical_upper_quantile, sum_law)
from ivboot.cli import run_all_tests_once
from ivboot.harness import (TABLE_SPECS, TEST_NAMES, _UNIT, _blr_quantiles, _Engine,
                            _grid_rates, _lr_critical, _replications, _sample_unit, power_curve,
                            table_config)
from ivboot.quasilik import (lr_features, loglik, mle, projector_split, restricted_mle, t_lr,
                             weighted_lr)
from ivboot.simgen import ERROR_KINDS, ErrorSpec, _gen_errors_batch, gen_errors, gen_sample

from conftest import (H0_PROJECTOR, boot_loglik, random_cosine_design,
                      reference_profile_from_sums, st_vectors, t_ar, t_clr, t_lm)

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
    w = np.concatenate([y1 @ engine.z.T, y2 @ engine.z.T], -1)
    return engine, y1, y2, engine.quadratics(w)


def _harness_statistic(engine, q):
    """The harness's BLR statistic of sum rows (R', m, d) of the
    replications in slice r, centred at the top eigenvector of each
    replication's unweighted matrix q."""
    _, vx, vy = _top_eigvec_2x2(*q)
    return lambda sums, r=slice(None): blr_values(sums, engine.config.q, vx[r, None], vy[r, None])


def reference_center(sample):
    """The full-sample profile maximizer: the top eigenvector (b, 1) of
    W'(ZZ')^{-1}W, W = Z (y1, y2), from numpy's solve and eigh."""
    z, y = sample.z, np.stack([sample.y1, sample.y2], axis=1)
    _, vecs = np.linalg.eigh(y.T @ z.T @ np.linalg.solve(z @ z.T, z @ y))
    return vecs[0, 1] / vecs[1, 1]


def reference_blr(sample, u, center):
    """The BLR statistic of one weight vector u on the t_clr scale, beta
    fixed at ``center``: 2 (top eigenvalue of M - d'M d / d'd), d = (center,
    1), M = W'G^{-1}W with G = Z diag(u) Z' and W = Z diag(u) (y1, y2), from
    numpy's solve and eigvalsh.  Raises RetryDrawError when numpy's
    Cholesky rejects G."""
    z, y = sample.z, np.stack([sample.y1, sample.y2], axis=1)
    G, W = (z * u) @ z.T, (z * u) @ y
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise RetryDrawError("weighted instrument Gram matrix is not positive definite") from None
    M = W.T @ np.linalg.solve(G, W)
    d = np.array([center, 1.0])
    return 2.0 * (np.linalg.eigvalsh(M)[-1] - d @ M @ d / (d @ d))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, kind=kinds, offset=offsets)
def test_scalar_statistics_match_batched_formulas(seed, kind, offset):
    cfg = _config(seed, kind)
    sample = gen_sample(cfg, rng=cfg.rng())
    beta0 = profile_sup(sample)[0] + offset
    _, _, _, q = _batch_of_one(cfg, sample)
    ss, tt, st = (x[0] for x in st_quadratics(*q, beta0))
    # tclr_from does not cancel, but st_quadratics' sums and the difference
    # of ams_lr_statistic's two profile values do: bound the error on the
    # scale of S'S + T'T, not of the statistic
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


@pytest.mark.parametrize("kind", ERROR_KINDS)
def test_ivboot_test_is_the_batch_of_one_of_the_power_pipeline(kind):
    # `ivboot test` rejects where its statistic exceeds its critical value;
    # its verdicts are power_curve's rates on its one replication, with its
    # own streams and LR critical value; its LR statistic is the profile
    # likelihood's
    cfg = _config(5, kind, boot_reps=200)
    beta0 = float(TABLE_SPECS[1]["grid"][6])  # 0.96: verdicts differ across tests and laws
    outcomes = run_all_tests_once(cfg, beta0)
    assert [o.name for o in outcomes] == list(TEST_NAMES)
    assert [o.reject for o in outcomes] == [o.statistic > o.critical_value for o in outcomes]
    sample = gen_sample(cfg, rng=cfg.rng())
    engine, y1, y2, _ = _batch_of_one(cfg, sample)
    *replication, _ = _replications(engine, y1, y2, RngStream(cfg.master_seed, 1).generator())
    rates = _grid_rates(engine, replication, beta0, outcomes[0].critical_value)
    assert list(rates) == [float(o.reject) for o in outcomes]
    assert outcomes[0].statistic == pytest.approx(ams_lr_statistic(sample, beta0), rel=1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, kind=kinds, n=hs.integers(1, 1000))
def test_gen_errors_is_the_batch_of_one(seed, kind, n):
    spec = ErrorSpec(kind, omega=np.array([[1.5, 0.3], [0.3, 0.8]]))
    single = gen_errors(spec, n, RngStream(seed, 0))
    batch = _gen_errors_batch(spec, n, 1, RngStream(seed, 0).generator())
    assert batch.shape == (1, n, 2)
    assert np.array_equal(single, batch[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, shape=hs.sampled_from([(40, 3), (200, 5), (30, 2)]),
       reps=hs.integers(1, _UNIT), n_draws=hs.integers(1, 60), redraw=hs.booleans())
def test_shared_gram_kernel_is_the_reference_per_draw(seed, shape, reps, n_draws, redraw):
    # the unit kernel factors each draw's weighted Gram once for all of a
    # unit's bootstraps: per draw and bootstrap it is the row-major
    # reference to rounding, with the same verdict, and it is the kernel
    # run on each bootstrap's own sums bit for bit.  At n = 40, q = 3 some
    # Grams are near singular; the -2 Q'1 draw makes every one negative
    # definite (see test_blr_redraws_are_counted)
    n, J = shape
    cfg = dataclasses.replace(table_config(1, reps=reps), n=n, q=J, concentration=n * 60.0)
    engine = _Engine(cfg)
    gen = np.random.default_rng(seed)
    eps = _gen_errors_batch(cfg.error, n, reps, gen)
    y1, y2 = engine.x + eps[:, :, 0], engine.x + eps[:, :, 1]
    F = profile_features(engine.z, y1, y2)
    mean, factor = sum_law(F)
    z = gen.standard_normal((n_draws, factor.shape[1]))
    if redraw:
        Q, _ = np.linalg.qr(F[0])
        z[n_draws // 2] = -2.0 * Q.sum(axis=0)
    sums = np.matmul(z, factor) + mean[:, None]
    *hb, pd = profile_from_sums(sums, J, gram_root(sums[0], J))
    *own, own_pd = profile_from_sums(sums, J)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(hb + [pd], own + [own_pd]))
    if redraw:
        assert not pd[:, n_draws // 2].any()
    for r in range(reps):
        *ref, ref_pd = reference_profile_from_sums(sums[r], J)
        assert np.array_equal(pd[r], ref_pd)
        h11, _, h22 = ref
        for got, want, scale in zip(hb, ref, (h11, np.sqrt(h11) * np.sqrt(h22), h22)):
            assert np.all(np.isfinite(got[r]))
            ok = ref_pd
            assert np.all(np.abs(got[r][ok] - want[ok]) <= 1e-12 * scale[ok])


@pytest.mark.parametrize("rows_per_chunk", [1, 2, 3, None])  # None: one chunk
def test_batched_decisions_are_the_per_value_decisions(monkeypatch, rows_per_chunk):
    # power_curve's decisions run on chunks of grid values; every rate is the
    # per-value _decisions rate bit for bit, also at the chunks' edges
    cfg = table_config(3, reps=_UNIT + 7, boot_reps=50, master_seed=8)
    if rows_per_chunk is not None:
        monkeypatch.setattr(basis, "DRAW_BUDGET", rows_per_chunk * 16 * 8 * cfg.reps)
    table = power_curve(cfg)
    engine = _Engine(cfg)
    units = [_sample_unit(engine, u)[:4] for u in range(2)]
    sample = [np.concatenate(p) for p in zip(*units)]
    lr_crit = _lr_critical(engine, cfg.beta_grid, cfg.error)
    for i, (v, c) in enumerate(zip(cfg.beta_grid, lr_crit)):
        rates = _grid_rates(engine, sample, v, c)
        assert [table.column(t)[i] for t in TEST_NAMES] == list(rates)
        assert all(table.column(t)[i].tobytes() == np.float64(x).tobytes()
                   for t, x in zip(TEST_NAMES, rates))


def _weights_quantile(engine, y1, y2, q, block, redraw):
    """The BLR critical value and redraw count of one replication from weight
    vectors: each row u of ``block`` (B, n) gives the sums F'u, then the
    profile from sums, and a rejected row is replaced in draw order by
    redraw.normal(1, 1, n) vectors until one is accepted."""
    F = profile_features(engine.z, y1, y2)
    statistic = _harness_statistic(engine, q)
    values, pd = statistic(np.matmul(block[None], F))
    n_redrawn = 0
    for b in np.flatnonzero(~pd[0]):
        ok = [False]
        while not ok[0]:
            n_redrawn += 1
            u = redraw.normal(1.0, 1.0, (1, 1, engine.config.n))
            value, ok = statistic(np.matmul(u, F))
        values[0, b] = value[0, 0]
    return empirical_upper_quantile(values[0], engine.config.alpha), n_redrawn


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=seeds, kind=kinds)
def test_blr_batch_of_one_matches_scalar_loop(seed, kind):
    cfg = _config(seed, kind, boot_reps=200)
    sample = gen_sample(cfg, rng=cfg.rng())
    gen = RngStream(seed, 1).generator()
    beta_tilde = reference_center(sample)
    block = gen.normal(1.0, 1.0, (cfg.boot_reps, cfg.n))
    loop = np.array([reference_blr(sample, u, beta_tilde) for u in block])
    engine, y1, y2, q = _batch_of_one(cfg, sample)
    crit, n_retries = _weights_quantile(engine, y1, y2, q, block, gen)
    assert n_retries == 0
    assert crit == pytest.approx(empirical_upper_quantile(loop, cfg.alpha), rel=1e-10)
    # the scalar API is the kernel's batch of one, at its default centre
    scalar = np.array([ams_blr_statistic(sample, u) for u in block[:20]])
    assert np.allclose(scalar, loop[:20], rtol=1e-8, atol=1e-8)


class _FirstBlock:
    """Generator whose first standard_normal() call, which must ask for the
    shape of ``block``, returns ``block``; later calls draw from ``gen``."""

    def __init__(self, block, gen):
        self.block, self.gen = block, gen

    def standard_normal(self, size):
        if self.block is None:
            return self.gen.standard_normal(size)
        assert tuple(np.atleast_1d(size)) == self.block.shape
        block, self.block = self.block, None
        return block


def _in_place_quantiles(engine, y1, y2, q, block, gen):
    """The critical values and redraw count of the per-row rule: the sums
    of the shared ``block`` (B, k) under each replication's law, and each
    rejected draw (r, b), in order, redrawn in place from one
    gen.standard_normal(k) row at a time until it is accepted."""
    mean, factor = sum_law(profile_features(engine.z, y1, y2))
    statistic = _harness_statistic(engine, q)
    values, ok = statistic(np.matmul(block, factor) + mean[:, None])
    n_redrawn = 0
    for r, b in zip(*np.nonzero(~ok)):
        while not ok[r, b]:
            n_redrawn += 1
            sums = mean[r] + gen.standard_normal(factor.shape[1]) @ factor[r]
            value, verdict = statistic(sums[None, None], slice(r, r + 1))
            values[r, b], ok[r, b] = value[0, 0], verdict[0, 0]
    return empirical_upper_quantile(values, engine.config.alpha), n_redrawn


@pytest.mark.parametrize("n_bad, reps", [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2)])
def test_blr_redraws_are_counted(n_bad, reps):
    # each replication is one bootstrap of 200 draws, which may redraw 2;
    # a third aborts, also in a unit of 2 x 200 draws.  The replications of
    # a unit share one (200, 25) normal block, and a draw's weighted Gram
    # matrix comes from the instruments alone, so a draw that fails fails
    # for every replication, and each one redraws it
    cfg = _config(3, "gauss", boot_reps=200)
    engine = _Engine(cfg)
    samples = [gen_sample(cfg, rng=cfg.rng(r)) for r in range(reps)]
    y1 = np.stack([s.y1 for s in samples])
    y2 = np.stack([s.y2 for s in samples])
    q = engine.quadratics(np.concatenate([y1 @ engine.z.T, y2 @ engine.z.T], -1))
    gen = np.random.default_rng(5)
    block = gen.standard_normal((cfg.boot_reps, 25))
    # with F = QR, the normal draw -2 Q'1 gives the sums of the weights u = -1:
    # the weighted Gram matrix -Z Z' is negative definite
    Q, _ = np.linalg.qr(profile_features(engine.z, y1[-1:], y2[-1:])[0])
    block[17:17 + n_bad] = -2.0 * Q.sum(axis=0)
    if n_bad > 2:
        with pytest.raises(RuntimeError, match="too many indefinite"):
            _blr_quantiles(engine, y1, y2, *q, _FirstBlock(block, gen))
        return
    crit, n_retries = _blr_quantiles(engine, y1, y2, *q, _FirstBlock(block, gen))
    assert n_retries == n_bad * reps
    assert np.all(np.isfinite(crit))
    # the block rule redraws the normals of the per-row rule: same quantiles
    gen = np.random.default_rng(5)
    gen.standard_normal(block.shape)
    in_place, n_redrawn = _in_place_quantiles(engine, y1, y2, q, block, gen)
    assert np.array_equal(crit, in_place)
    assert n_redrawn == n_bad * reps


def test_each_replication_is_its_bootstrap_alone():
    # a unit's replication r equals the bootstrap of r alone on the unit's
    # block; the redraws follow the block in replication order, so one
    # generator, positioned after the block, serves the bootstraps alone in
    # turn.  At n = 40, q = 3 one shared draw of the second unit and one of
    # the short last unit have an indefinite weighted Gram matrix
    cfg = dataclasses.replace(
        table_config(1, reps=2 * _UNIT + 7, boot_reps=200, master_seed=14),
        n=40, q=3, concentration=40 * 60.0, beta_star=1.0, error=ErrorSpec("gauss"))
    engine = _Engine(cfg)
    redraws = []
    for unit in range(3):
        *q, crit, n_redrawn = _sample_unit(engine, unit)
        gen = RngStream(cfg.master_seed, (0, unit)).generator()  # the unit's stream
        eps = _gen_errors_batch(cfg.error, cfg.n, len(crit), gen)
        y1 = cfg.beta_star * engine.x + eps[:, :, 0]
        y2 = engine.x + eps[:, :, 1]
        block = gen.standard_normal((cfg.boot_reps, 12))  # k = 12 at q = 3
        alone, n_alone = [], 0
        for r in range(len(crit)):
            one = slice(r, r + 1)
            c, n = _blr_quantiles(engine, y1[one], y2[one], *(x[one] for x in q),
                                  _FirstBlock(block, gen))
            alone.append(c[0])
            n_alone += n
        assert np.array_equal(crit, alone)
        assert n_redrawn == n_alone
        redraws.append(n_redrawn)
    assert redraws == [0, 25, 7]


def _reference_batch_of_one(engine, sample, gen):
    """The BLR critical value of one replication with no redraw, from the
    row-major reference kernel: one (B, k) block of gen's normals times its
    sum law's factor."""
    F = profile_features(engine.z, sample.y1, sample.y2)
    mean, factor = sum_law(F)
    sums = mean + gen.standard_normal((engine.config.boot_reps, len(factor))) @ factor
    hb11, hb12, hb22, pd = reference_profile_from_sums(sums, engine.config.q)
    assert pd.all()
    _, vx, vy = _top_eigvec_2x2(*engine.quadratics(np.concatenate(
        [sample.y1[None] @ engine.z.T, sample.y2[None] @ engine.z.T], -1)))
    lmax = np.linalg.eigvalsh(np.stack([np.stack([hb11, hb12], -1),
                                        np.stack([hb12, hb22], -1)], -1))[:, -1]
    gb = vx * vx * hb11 + 2 * vx * vy * hb12 + vy * vy * hb22
    return empirical_upper_quantile(2.0 * (lmax - gb), engine.config.alpha)


@pytest.mark.parametrize("n, seed, n_redraws", [(200, 7, 0), (40, 11, 2)])
def test_batch_of_one_draws_one_block_and_its_redraws(n, seed, n_redraws):
    # one replication takes the (B, k) block of a bootstrap alone, then k
    # normals per redrawn draw, and nothing more from its stream; without
    # redraws its critical value is the reference kernel's to rounding
    cfg = dataclasses.replace(_config(seed, "gauss", boot_reps=200), n=n,
                              concentration=n * TABLE_SPECS[1]["lam"])
    sample = gen_sample(cfg, rng=cfg.rng())
    engine, y1, y2, q = _batch_of_one(cfg, sample)
    gen = RngStream(seed, 1).generator()
    crit, n_retries = _blr_quantiles(engine, y1, y2, *q, gen)
    assert n_retries == n_redraws
    used = RngStream(seed, 1).generator()
    used.standard_normal((cfg.boot_reps + n_retries) * 25)
    assert gen.bit_generator.state == used.bit_generator.state
    if n_retries == 0:
        reference = _reference_batch_of_one(engine, sample, RngStream(seed, 1).generator())
        assert crit[0] == pytest.approx(reference, rel=1e-12)


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
    beta_tilde = reference_center(sample)
    loop, n_redrawn = [], 0
    for u in block:
        while True:
            try:
                loop.append(reference_blr(sample, u, beta_tilde))
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


def _harness_sums(n, reps, seed):
    """Sum features F (reps, n, 25) of ``reps`` replications of the table-1
    model at n observations, and the BLR statistic of their sums."""
    cfg = dataclasses.replace(table_config(1, reps=reps, boot_reps=1000), n=n,
                              concentration=n * TABLE_SPECS[1]["lam"])
    engine = _Engine(cfg)
    eps = _gen_errors_batch(cfg.error, n, reps, RngStream(seed, 0).generator())
    y1 = cfg.beta_star * engine.x[None, :] + eps[:, :, 0]
    y2 = engine.x[None, :] + eps[:, :, 1]
    q = engine.quadratics(np.concatenate([y1 @ engine.z.T, y2 @ engine.z.T], -1))
    return profile_features(engine.z, y1, y2), _harness_statistic(engine, q)


def _quasilik_sums(n, reps, seed):
    """``lr_features`` F (reps, n, 21) of ``reps`` random cosine designs of n
    observations, and the T_BLR of their sums."""
    gen = RngStream(seed, 0).generator()
    designs = [random_cosine_design(n, gen) for _ in range(reps)]
    features = [lr_features(d, H0_PROJECTOR, mle(d)) for d in designs]

    def statistic(sums):
        out = [weighted_lr(d, n_null, s) for d, (_, n_null), s in zip(designs, features, sums)]
        return tuple(np.stack(x) for x in zip(*out))
    return np.stack([f for f, _ in features]), statistic


SUM_CASES = {"harness": _harness_sums, "quasilik": _quasilik_sums}


def _drawn_and_weighted(F, n_draws, seed):
    """For each replication's features F (reps, n, d), the sums F'u of
    n_draws weight vectors u and n_draws sums drawn from their Gaussian
    law, with independent streams."""
    reps, n, _ = F.shape
    u = RngStream(seed, 1).generator().normal(1.0, 1.0, (reps, n_draws, n))
    weighted = np.matmul(u, F)
    mean, factor = sum_law(F)
    z = RngStream(seed, 2).generator().standard_normal((reps, n_draws, factor.shape[1]))
    drawn = mean[:, None] + np.matmul(z, factor)
    return weighted, drawn


@pytest.mark.parametrize("case", SUM_CASES)
def test_drawn_sums_have_the_law_of_weighted_sums(case):
    # the Gaussian law of the drawn sums has the mean F'1 and covariance
    # F'F of the sums F'u; per replication, two-sample KS tests compare the
    # drawn path with the n-vector path on the bootstrap statistic and on
    # one fixed linear combination of the sums
    F, statistic = SUM_CASES[case](200, 8, 7)
    weighted, drawn = _drawn_and_weighted(F, 5000, 7)
    mean, factor = sum_law(F)
    cov = np.matmul(F.transpose(0, 2, 1), F)
    assert np.allclose(mean, F.sum(axis=1), rtol=0, atol=1e-12 * np.abs(F).sum())
    assert np.allclose(np.matmul(factor.transpose(0, 2, 1), factor), cov,
                       rtol=0, atol=1e-12 * np.abs(cov).max())
    t_weighted, pd_weighted = statistic(weighted)
    t_drawn, pd_drawn = statistic(drawn)
    assert pd_weighted.all() and pd_drawn.all()
    direction = RngStream(7, 3).generator().standard_normal(F.shape[2])
    p_values = []
    for r in range(8):
        p_values.append(ks_2samp(t_weighted[r], t_drawn[r]).pvalue)
        p_values.append(ks_2samp(weighted[r] @ direction, drawn[r] @ direction).pvalue)
    # 16 tests: under the null, all exceed 1e-3 with probability 0.98
    assert min(p_values) > 1e-3


@pytest.mark.parametrize("case, n", [("harness", 30), ("quasilik", 35)])
def test_drawn_sums_redraw_as_often_as_weighted_sums(case, n):
    # at these n about 4% of N(1, 1) weight vectors give an indefinite
    # weighted matrix; drawing the sums must reject as often
    n_draws = 50_000
    F, statistic = SUM_CASES[case](n, 1, 11)
    weighted, drawn = _drawn_and_weighted(F, n_draws, 11)
    rate_weighted = 1.0 - statistic(weighted)[1].mean()
    rate_drawn = 1.0 - statistic(drawn)[1].mean()
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
    features, n_null = lr_features(design, projector, theta_tilde)
    values, pd = weighted_lr(design, n_null, u @ features)
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


def reference_gains(design, n_null, sums):
    """The full and the restricted maximum, over the value at theta_ref, of
    the weighted objective whose sums over ``lr_features`` are ``sums``,
    each from its own linear solve; their difference is T_BLR.  Raises
    RetryDrawError when numpy's Cholesky rejects the weighted normal
    matrix."""
    J = design.dim
    upper = np.zeros((J, J))
    upper[np.triu_indices(J)] = sums[:J * (J + 1) // 2]
    M = upper + np.triu(upper, 1).T + design.penalty * sums[-1] / design.n_obs * np.eye(J)
    g = sums[-J - 1:-1]
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise RetryDrawError("weighted normal matrix is not positive definite") from None
    full = 0.5 * g @ np.linalg.solve(M, g)
    h = slice(0, n_null)
    restricted = 0.5 * g[h] @ np.linalg.solve(M[h, h], g[h]) if n_null else 0.0
    return full, restricted


def _sequential_boot(design, projector, n_boot, gen):
    """boot_quantile's samples and redraw count: the sums drawn from their
    law one gen.standard_normal(k) row at a time, skipping each row whose
    matrix numpy's Cholesky rejects."""
    features, n_null = lr_features(design, projector, mle(design))
    mean, factor = features.sum(axis=0), np.linalg.qr(features, mode="r")
    samples, retries = [], 0
    while len(samples) < n_boot:
        try:
            full, restricted = reference_gains(
                design, n_null, mean + gen.standard_normal(len(factor)) @ factor)
            samples.append(full - restricted)
        except RetryDrawError:
            retries += 1
            check_redraws(retries, n_boot)
    return np.array(samples), retries


@pytest.mark.parametrize("n, n_instruments, n_boot, seed", [
    (50, 1, 1000, 3), (60, 1, 1000, 1), (40, 2, 1000, 1), (100, 1, 1000, 9),  # 8, 2, 5, 1 redraws
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


@pytest.mark.parametrize("n, seed, expected_redraws", [(50, 3, 8), (30, 2, None)])  # None: aborts
def test_boot_quantile_does_not_depend_on_the_draw_budget(monkeypatch, n, seed,
                                                           expected_redraws):
    # a chunk of one draw row, of 7 rows (a short last piece), and one chunk
    # for the whole block: the same samples, redraw count or abort message
    design = random_cosine_design(n, RngStream(seed, 0).generator(), n_instruments=1)

    def outcome():
        try:
            run = boot_quantile(design, H0_PROJECTOR, 1000, 0.05, RngStream(seed, 1))
        except RuntimeError as exc:
            return str(exc)
        return run.t_blr_samples.tobytes(), run.n_retries, run.z_star_alpha

    expected = outcome()
    if expected_redraws is None:
        assert expected.startswith("bootstrap aborted")
    else:
        assert expected[1] == expected_redraws
    d = lr_features(design, H0_PROJECTOR, mle(design))[0].shape[1]
    for budget in (1, 7 * 16 * d, 1 << 40):
        monkeypatch.setattr(basis, "DRAW_BUDGET", budget)
        assert outcome() == expected
