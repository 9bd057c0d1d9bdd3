"""The scalar statistics against the batched kernels of the power harness:
each statistic has one implementation, and a single sample is a batch of
one."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ivboot import RngStream
from ivboot.benchmark import (
    ams_blr_statistic,
    ams_lr_statistic,
    ar_from,
    lm_from,
    profile_sup,
    st_quadratics,
    st_vectors,
    t_ar,
    t_clr,
    t_lm,
    tclr_from,
)
from ivboot.bootstrap import RetryDrawError, empirical_upper_quantile
from ivboot.harness import TABLE_SPECS, _blr_quantiles, _Engine, table_config
from ivboot.simgen import ERROR_KINDS, ErrorSpec, _gen_errors_batch, gen_errors, gen_sample

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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, kind=kinds, n=hs.integers(1, 1000))
def test_gen_errors_is_the_batch_of_one(seed, kind, n):
    spec = ErrorSpec(kind, omega=np.array([[1.5, 0.3], [0.3, 0.8]]))
    single = gen_errors(spec, n, RngStream(seed, 0))
    batch = _gen_errors_batch(spec, n, 1, RngStream(seed, 0).generator())
    assert batch.shape == (1, n, 2)
    assert np.array_equal(single, batch[0])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=seeds, kind=kinds)
def test_blr_batch_of_one_matches_scalar_loop(seed, kind):
    cfg = _config(seed, kind, boot_reps=200)
    sample = gen_sample(cfg, rng=cfg.rng())
    gen = RngStream(seed, 1).generator()
    beta_tilde, _ = profile_sup(sample)
    loop = [ams_blr_statistic(sample, gen.normal(1.0, 1.0, cfg.n), center=beta_tilde)
            for _ in range(cfg.boot_reps)]
    engine, y1, y2, q = _batch_of_one(cfg, sample)
    crit, n_retries = _blr_quantiles(engine, y1, y2, *q, RngStream(seed, 1).generator())
    assert n_retries == 0
    assert crit[0] == pytest.approx(empirical_upper_quantile(np.array(loop), cfg.alpha),
                                    rel=1e-10)


class _FirstBlock:
    """Generator whose first normal() call returns ``block``; later calls
    draw from ``gen``."""

    def __init__(self, block, gen):
        self.block, self.gen = block, gen

    def normal(self, loc, scale, size):
        if self.block is None:
            return self.gen.normal(loc, scale, size)
        block, self.block = self.block, None
        return block


@pytest.mark.parametrize("n_bad, reps", [(1, 1), (2, 1), (3, 1), (3, 2)])
def test_blr_redraws_are_counted(n_bad, reps):
    # each replication is one bootstrap of 200 draws, which may redraw 2
    # weight vectors; a third aborts, also in a unit of 2 x 200 draws
    cfg = _config(3, "gauss", boot_reps=200)
    engine = _Engine(cfg)
    samples = [gen_sample(cfg, rng=cfg.rng(r)) for r in range(reps)]
    y1 = np.stack([s.y1 for s in samples])
    y2 = np.stack([s.y2 for s in samples])
    q = engine.quadratics(y1 @ engine.z.T, y2 @ engine.z.T)
    gen = np.random.default_rng(5)
    block = gen.normal(1.0, 1.0, (reps, cfg.boot_reps, cfg.n))
    # all-negative weights make the weighted Gram matrix negative definite
    block[-1, 17:17 + n_bad] = -np.abs(block[-1, 17:17 + n_bad])
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
    block = np.insert(block, 17, bad, axis=0)[None]

    redraw = np.random.default_rng(12)
    beta_tilde, _ = profile_sup(sample)
    loop, n_redrawn = [], 0
    for u in block[0]:
        while True:
            try:
                loop.append(ams_blr_statistic(sample, u, center=beta_tilde))
                break
            except RetryDrawError:
                n_redrawn += 1
                u = redraw.normal(1.0, 1.0, cfg.n)
    engine, y1, y2, q = _batch_of_one(cfg, sample)
    crit, n_retries = _blr_quantiles(engine, y1, y2, *q,
                                     _FirstBlock(block, np.random.default_rng(12)))
    assert n_redrawn >= 1
    assert n_retries == n_redrawn
    assert crit[0] == pytest.approx(empirical_upper_quantile(np.array(loop), cfg.alpha),
                                    rel=1e-10)
