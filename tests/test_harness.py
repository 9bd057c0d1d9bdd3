import dataclasses
import functools
import json
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from numpy.polynomial import Chebyshev

from ivboot import ErrorSpec, SimConfig, basis, benchmark, harness
from ivboot.bootstrap import empirical_upper_quantile
from ivboot.cli import run
from ivboot.harness import (
    PowerTable,
    TABLE_SPECS,
    compare_to_reference,
    load_reference_table,
    oracle_lr_critical,
    power_curve,
    table_config,
)


def small_config(**kw):
    base = dict(n=80, q=3, concentration=80 * 60.0, beta_star=1.0,
                error=ErrorSpec("gauss"), beta_grid=(0.7, 1.0, 1.3),
                reps=40, boot_reps=120, alpha=0.05, master_seed=314)
    base.update(kw)
    return SimConfig(**base)


def _curve(monkeypatch, config, threads):
    """power_curve on ``threads`` workers, set through IVBOOT_THREADS."""
    monkeypatch.setenv("IVBOOT_THREADS", str(threads))
    return power_curve(config)


def test_power_curve_shapes_and_ranges(monkeypatch):
    t = _curve(monkeypatch, small_config(), 1)
    assert t.grid.shape == (3,)
    for name in ("LR", "BLR", "CLR", "AR", "LM"):
        col = t.column(name)
        assert col.shape == (3,)
        assert np.all((0.0 <= col) & (col <= 1.0))
    assert t.reps_used == 40


def test_power_curve_thread_count_invariant(monkeypatch):
    cfg = small_config(reps=2 * harness._UNIT + 7)  # three units, the last one short
    t1 = _curve(monkeypatch, cfg, 1)
    for threads in (2, 3):
        t = _curve(monkeypatch, cfg, threads)
        for name in ("LR", "BLR", "CLR", "AR", "LM"):
            assert np.array_equal(t1.column(name), t.column(name))
        assert t1.to_csv_text() == t.to_csv_text()


def test_power_json_thread_count_invariant_with_redraw_count(monkeypatch):
    # at n = 40, q = 3 a few weighted Grams are indefinite: the JSON counts
    # every unit's redraws, and is identical at any thread count
    cfg = small_config(n=40, concentration=40 * 60.0, reps=2 * harness._UNIT + 7,
                       boot_reps=200, master_seed=14)
    texts = [json.dumps(_curve(monkeypatch, cfg, k).to_dict(), sort_keys=True)
             for k in (1, 2, 3)]
    assert texts[0] == texts[1] == texts[2]
    engine = harness._Engine(cfg)
    redraws = sum(harness._sample_unit(engine, u)[4] for u in range(3))
    assert redraws > 0
    assert json.loads(texts[0])["blr_redraws"] == redraws


def test_power_curve_cell_depends_only_on_its_grid_value(monkeypatch):
    # every draw is shared across the grid, so the other grid values do not
    # change the row at 1.0
    wide = _curve(monkeypatch, small_config(beta_grid=(0.7, 1.0, 1.3)), 2)
    alone = _curve(monkeypatch, small_config(beta_grid=(1.0,)), 1)
    for name in ("LR", "BLR", "CLR", "AR", "LM"):
        assert wide.column(name)[1] == alone.column(name)[0]


def test_power_curve_deterministic_rerun(monkeypatch):
    t1 = _curve(monkeypatch, small_config(), 2)
    t2 = _curve(monkeypatch, small_config(), 2)
    assert t1.to_csv_text() == t2.to_csv_text()


def test_clr_curve_is_built_once_by_concurrent_workers(monkeypatch):
    # two threads reach the CLR curve together; its first use builds it
    # once, not once per thread
    builds = []
    interpolate = Chebyshev.interpolate

    def counting_interpolate(*args, **kwargs):
        builds.append(threading.get_ident())
        return interpolate(*args, **kwargs)

    monkeypatch.setattr(Chebyshev, "interpolate", counting_interpolate)
    benchmark._clr_curve.cache_clear()
    barrier = threading.Barrier(2)
    values = []

    def first_use():
        barrier.wait()
        values.append(benchmark.clr_critical_values([1.0, 10.0], 5, 0.05))

    threads = [threading.Thread(target=first_use) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(values) == 2 and np.array_equal(values[0], values[1])
    assert len(builds) == 1


def _recorded_submits(monkeypatch):
    """The (function, arguments) of every task submitted to the pool from
    now on, in submission order."""
    submitted = []
    pool = harness._pool

    class CountingPool:
        def __init__(self, ex):
            self.ex = ex

        def submit(self, fn, *args):
            submitted.append((fn, args))
            return self.ex.submit(fn, *args)

    def counting_pool(*key):
        return CountingPool(pool(*key))

    monkeypatch.setattr(harness, "_pool", counting_pool)
    return submitted


def test_power_curve_runs_one_pool_round(monkeypatch):
    # the pool runs the LR null's blocks and the replication units, the work
    # that draws random numbers, the units spread evenly among the blocks;
    # the grid's decisions run in the caller
    submitted = _recorded_submits(monkeypatch)
    cfg = small_config()  # two units
    _curve(monkeypatch, cfg, 2)
    assert len(submitted) == harness._N_BLOCKS + 2
    units = [i for i, (fn, _) in enumerate(submitted) if fn is harness._sample_unit]
    assert units == [0, 1 + harness._N_BLOCKS // 2]


def test_oracle_runs_a_pool_round_of_blocks(monkeypatch):
    # oracle_lr_critical reaches the pool as power_curve does: one round,
    # here of the null's blocks alone, in block order
    submitted = _recorded_submits(monkeypatch)
    monkeypatch.setenv("IVBOOT_THREADS", "2")
    oracle_lr_critical(small_config(), 1.0)
    assert [(fn, args[2]) for fn, args in submitted] == [
        (harness._null_block, b) for b in range(harness._N_BLOCKS)]


def test_power_curve_reuses_its_workers(monkeypatch):
    # one pool per thread count for the life of the process: a second call
    # starts no thread, its units run on threads alive before it
    workers = set()
    sample_unit = harness._sample_unit

    def recording_unit(engine, unit):
        workers.add(threading.current_thread())
        return sample_unit(engine, unit)

    _curve(monkeypatch, small_config(), 2)
    alive = set(threading.enumerate())
    monkeypatch.setattr(harness, "_sample_unit", recording_unit)
    _curve(monkeypatch, small_config(reps=4 * harness._UNIT), 2)
    assert workers and workers <= alive


def test_power_curve_waits_for_its_tasks_when_one_fails(monkeypatch):
    done = []
    null_block = harness._null_block

    def slow_block(*args):
        time.sleep(0.01)
        result = null_block(*args)
        done.append(True)
        return result

    def failing_unit(engine, unit):
        raise RuntimeError("unit failed")

    monkeypatch.setattr(harness, "_null_block", slow_block)
    monkeypatch.setattr(harness, "_sample_unit", failing_unit)
    with pytest.raises(RuntimeError, match="unit failed"):
        _curve(monkeypatch, small_config(), 2)
    assert len(done) == harness._N_BLOCKS


def test_power_curve_u_shape_and_signal(monkeypatch):
    # strong signal config: full power at the grid edges, near-level at the null
    cfg = small_config(beta_grid=(0.3, 1.0, 1.7), reps=80)
    t = _curve(monkeypatch, cfg, 2)
    for name in ("LR", "BLR", "CLR", "AR", "LM"):
        col = t.column(name)
        assert col[0] >= col[1]
        assert col[2] >= col[1]


def test_power_increases_with_concentration(monkeypatch):
    grid = (0.8,)
    weak = _curve(monkeypatch, small_config(beta_grid=grid, reps=60), 2)
    strong = _curve(monkeypatch, small_config(beta_grid=grid, reps=60,
                                              concentration=80 * 240.0), 2)
    assert strong.column("LR")[0] >= weak.column("LR")[0]


def test_csv_text_layout(monkeypatch):
    t = _curve(monkeypatch, small_config(reps=10, boot_reps=100), 1)
    lines = t.to_csv_text().splitlines()
    assert lines[0] == "offset,LR,BLR,CLR,AR,LM"
    assert len(lines) == 4


def test_load_reference_tables():
    for k, spec in TABLE_SPECS.items():
        grid, cols = load_reference_table(k)
        assert np.allclose(grid, spec["grid"])
        for name in ("LR", "BLR", "CLR", "AR", "LM"):
            assert np.all((0 <= cols[name]) & (cols[name] <= 1))


def test_compare_self_is_exact():
    grid, cols = load_reference_table(1)
    table = PowerTable(grid=grid, rows=cols, config=table_config(1), reps_used=100)
    rep = compare_to_reference(table, 1)
    assert rep.passed
    assert rep.frac_within_008 == 1.0
    assert all(np.allclose(rep.diffs[t], 0.0) for t in rep.diffs)


def test_compare_flags_corruption():
    grid, cols = load_reference_table(1)
    rows = {k: v.copy() for k, v in cols.items()}
    rows["BLR"][5] += 0.5
    table = PowerTable(grid=grid, rows=rows, config=table_config(1), reps_used=100)
    rep = compare_to_reference(table, 1)
    assert not rep.passed
    assert rep.frac_within_015 < 1.0


def test_compare_grid_mismatch():
    grid, cols = load_reference_table(1)
    table = PowerTable(grid=grid + 0.01, rows=cols, config=table_config(1), reps_used=100)
    with pytest.raises(ValueError, match="mismatch"):
        compare_to_reference(table, 1)


def test_table_config_round_trip():
    for k in (1, 2, 3, 4):
        cfg = table_config(k, reps=7, boot_reps=150)
        assert cfg.reps == 7
        assert len(cfg.beta_grid) == len(TABLE_SPECS[k]["grid"])
        assert cfg.error.kind == TABLE_SPECS[k]["kind"]
    with pytest.raises(ValueError):
        table_config(9)


def _recorded_lr_quantiles(monkeypatch, config, threads, lr_oracle_error=None):
    """The table of power_curve on ``threads`` workers and the LR critical
    values that it takes from _lr_quantiles in the caller."""
    seen = []
    kernel = harness._lr_quantiles

    def recording(*args):
        seen.append(kernel(*args))
        return seen[-1]

    monkeypatch.setattr(harness, "_lr_quantiles", recording)
    monkeypatch.setenv("IVBOOT_THREADS", str(threads))
    table = power_curve(config, lr_oracle_error)
    monkeypatch.setattr(harness, "_lr_quantiles", kernel)
    assert len(seen) == 1
    return table, seen[0]


def test_oracle_lr_critical_is_null_quantile(monkeypatch):
    cfg = small_config(beta_grid=(0.7, 1.0), reps=400)
    t, curve_crits = _recorded_lr_quantiles(monkeypatch, cfg, 2)
    # rejection rate of null data against the oracle critical value ~ alpha
    assert 0.01 <= t.column("LR")[1] <= 0.12
    # the scalar oracle is the power curve's LR kernel with a grid of one
    for v, crit in zip(cfg.beta_grid, curve_crits):
        assert oracle_lr_critical(cfg, v) == crit


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("law", [None, ErrorSpec("laplace")], ids=["config-law", "override"])
def test_pooled_lr_null_is_the_serial_one(monkeypatch, threads, law):
    # the null's blocks run as pool tasks beside the units, in any order on
    # any worker, and still give the oracle's critical values (a pool round
    # of blocks alone) under the null's law bit for bit, here also at two of
    # table 3's negative values, 0 and 1e4
    cfg = small_config(beta_grid=(-0.26, -0.12, 0.0, 0.7, 1.0, 1.3, 1e4), reps=30,
                       boot_reps=100)
    _, curve_crits = _recorded_lr_quantiles(monkeypatch, cfg, threads, law)
    null_cfg = cfg if law is None else dataclasses.replace(cfg, error=law)
    serial = np.array([oracle_lr_critical(null_cfg, v) for v in cfg.beta_grid])
    assert curve_crits.tobytes() == serial.tobytes()


# a chunk of one draw row or null sample, and one chunk for every block
BUDGETS = (1, 1 << 40)


def _units(cfg):
    engine = harness._Engine(cfg)
    n_units = (cfg.reps + harness._UNIT - 1) // harness._UNIT
    return [harness._sample_unit(engine, u) for u in range(n_units)]


def test_sample_units_do_not_depend_on_the_draw_budget(monkeypatch):
    # n = 40, q = 3: each draw is k = d = 12 sums; one shared draw has an
    # indefinite weighted Gram in the second unit and one in the short last
    # unit, so each of their replications redraws once (25 + 7); also pieces
    # of 7 draws, the last one short, and 3 bootstraps a chunk
    cfg = small_config(n=40, concentration=40 * 60.0, reps=2 * harness._UNIT + 7,
                       boot_reps=200, master_seed=14)
    expected = _units(cfg)
    assert [unit[4] for unit in expected] == [0, 25, 7]
    for budget in BUDGETS + (16 * 12 * 7, 16 * 12 * 200 * 3):
        monkeypatch.setattr(basis, "DRAW_BUDGET", budget)
        for got, want in zip(_units(cfg), expected):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_bootstrap_abort_does_not_depend_on_the_draw_budget(monkeypatch, capsys):
    argv = ["test", "--n", "30", "--q", "5", "--seed", "1"]
    assert run(argv) == 1
    expected = capsys.readouterr().err
    assert "bootstrap aborted" in expected
    for budget in BUDGETS:
        monkeypatch.setattr(basis, "DRAW_BUDGET", budget)
        assert run(argv) == 1
        assert capsys.readouterr().err == expected


@pytest.mark.parametrize("kind", ["gauss", "laplace", "hetero_linear", "hetero_periodic"])
def test_lr_null_does_not_depend_on_the_draw_budget(monkeypatch, kind):
    # also at q = 1 and 2, and at n = 2000 in chunks of 3 samples (the last
    # one short): shapes where a product over a whole block of samples
    # rounds differently from products over chunks of it
    omega, default = np.array([[1.5, 0.4], [0.4, 0.7]]), basis.DRAW_BUDGET
    for n, q, budgets in ((40, 3, BUDGETS + (16 * 40 * 7,)),  # chunks of 7, the last short
                          (40, 1, BUDGETS), (40, 2, BUDGETS), (2000, 5, (16 * 2000 * 3,))):
        cfg = small_config(n=n, q=q, error=ErrorSpec(kind, omega))
        engine = harness._Engine(cfg)
        monkeypatch.setattr(basis, "DRAW_BUDGET", default)
        expected = harness._lr_critical(engine, cfg.beta_grid, cfg.error)
        for budget in budgets:
            monkeypatch.setattr(basis, "DRAW_BUDGET", budget)
            got = harness._lr_critical(engine, cfg.beta_grid, cfg.error)
            assert got.tobytes() == expected.tobytes()


def test_lr_null_at_n_2000_does_not_depend_on_the_worker_count(monkeypatch):
    cfg = SimConfig(n=2000, q=5, concentration=2000 * 4.0, beta_grid=(0.5, 1.0, 3.0))
    engine = harness._Engine(cfg)
    got = []
    for threads in ("1", "2"):
        monkeypatch.setenv("IVBOOT_THREADS", threads)
        got.append(harness._lr_critical(engine, cfg.beta_grid, cfg.error).tobytes())
    assert got[0] == got[1]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unit_memory_is_bounded_in_boot_reps():
    # a unit holds its (25, B) values, its one shared block of normals and
    # one bootstrap's sums (B x 25 doubles each), not a (25, B, 25) block:
    # 218 MB at B = 20 000, 16 MB now
    engine = harness._Engine(table_config(1, reps=harness._UNIT, boot_reps=20_000))
    assert _traced_peak(lambda: harness._sample_unit(engine, 0)) < 20 * 2**20


# The e1 and e2 of one null block at n = 2000 (2 x 250 x n doubles, 7.6 MB):
# a peak below it shows that no worker holds a whole block's draws.
_BLOCK_AT_2000 = 2 * harness._NULL_BLOCK * 2000 * 8


def test_lr_null_memory_is_a_chunk_of_draws(monkeypatch):
    # on one worker the null holds a chunk of draws (its normals and its
    # errors, about 2 x DRAW_BUDGET) and the (10 000, q) projections, less
    # than one block's e1 and e2: 230 MB at n = 2000 with unchunked
    # 2500-sample blocks, 80 MB with chunked ones, 12 MB with a 250-sample
    # block's buffer, 3.5 MB with a chunk of draws
    monkeypatch.setenv("IVBOOT_THREADS", "1")
    cfg = SimConfig(n=2000, q=5, concentration=2000 * 4.0)
    engine = harness._Engine(cfg)
    peak = _traced_peak(lambda: harness._lr_critical(engine, (1.0,), cfg.error))
    assert peak < 4 * basis.DRAW_BUDGET < _BLOCK_AT_2000


def test_lr_null_memory_is_a_chunk_of_draws_per_worker(monkeypatch):
    # on two workers the oracle's null holds a chunk of draws per worker and
    # the projections: 23 MB with a block's buffer per worker, 2.9 MB with a
    # chunk of draws; one block's buffer would pass the bound
    monkeypatch.setattr(basis, "DRAW_BUDGET", 1 << 18)  # 8 samples a chunk at n = 2000
    monkeypatch.setenv("IVBOOT_THREADS", "2")
    cfg = SimConfig(n=2000, q=5, concentration=2000 * 4.0)
    engine = harness._Engine(cfg)
    peak = _traced_peak(lambda: harness._lr_critical(engine, (1.0,), cfg.error))
    assert peak < 4 * 2**20 < _BLOCK_AT_2000


def test_pooled_lr_null_memory_is_a_chunk_of_draws_per_worker(monkeypatch):
    # power_curve's null blocks run on the pool: each worker holds a chunk
    # of draws at a time; the rest is the blocks' projections, their moments
    # and the unit (3.0 MB in all, 18 MB with a block's buffer per worker).
    # One block's buffer would pass the bound
    monkeypatch.setattr(basis, "DRAW_BUDGET", 1 << 18)  # 8 samples a chunk at n = 2000
    cfg = SimConfig(n=2000, q=5, concentration=2000 * 4.0, beta_grid=(1.0,), reps=1,
                    boot_reps=100)
    monkeypatch.setenv("IVBOOT_THREADS", "2")
    peak = _traced_peak(lambda: power_curve(cfg))
    assert peak < 4 * 2**20 < _BLOCK_AT_2000


def test_table_lr_null_memory(monkeypatch):
    # table 1's null at n = 200 over its 17 grid values on one worker: 12 MB
    # with 2500-sample blocks, 3.8 MB with a 250-sample block's buffer,
    # 3.1 MB with a chunk of draws (a further worker holds one more chunk)
    monkeypatch.setenv("IVBOOT_THREADS", "1")
    cfg = table_config(1)
    engine = harness._Engine(cfg)
    peak = _traced_peak(lambda: harness._lr_critical(engine, cfg.beta_grid, cfg.error))
    assert peak < 4 * 2**20


KINDS = ["gauss", "laplace", "hetero_linear", "hetero_periodic"]


def _null_config(kind):
    return small_config(n=40, error=ErrorSpec(kind, np.array([[1.5, 0.4], [0.4, 0.7]])))


@pytest.mark.parametrize("kind", KINDS)
def test_lr_null_streams_are_its_blocks(monkeypatch, kind):
    # block b of the null is _NULL_BLOCK samples drawn at once from stream
    # (_NULL, b), each projected on its own (Z e, one product per sample),
    # whatever the chunks the stream is walked in: one sample, 7 (the last
    # one short), or the whole block
    cfg = _null_config(kind)
    engine = harness._Engine(cfg)
    expected = []
    for b in range(harness._N_BLOCKS):
        eps = harness._gen_errors_batch(cfg.error, cfg.n, harness._NULL_BLOCK,
                                        harness._stream(cfg, harness._NULL, b))
        proj = np.array([engine.z @ e for e in eps])
        expected.append(np.concatenate([proj[:, :, 0], proj[:, :, 1]], -1).tobytes())
    for budget in BUDGETS + (16 * cfg.n * 7,):
        monkeypatch.setattr(basis, "DRAW_BUDGET", budget)
        for b, want in enumerate(expected):
            assert harness._null_block(engine, cfg.error, b).tobytes() == want


@functools.cache
def _null_projections(kind, n_blocks=8):
    cfg = _null_config(kind)
    engine = harness._Engine(cfg)
    return engine, np.concatenate([harness._null_block(engine, cfg.error, b)
                                   for b in range(n_blocks)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=hs.sampled_from(KINDS),
       v=hs.one_of(hs.sampled_from([0.0, 1e-8, -1e-8, -0.26, -0.12, 1e8, -1e8]),
                   hs.floats(-1e8, 1e8), hs.floats(-3.0, 3.0)))
def test_lr_quantiles_match_the_direct_quadratics(kind, v):
    # _lr_quantiles takes the null's quadratics at v from moments of Z e1,
    # Z e2 and Z x, not from v Z x + Z e1 and Z x + Z e2: they agree to
    # rounding, relative to the Cauchy-Schwarz bound of each entry, and the
    # critical values to 1e-12 relative (they round differently on purpose)
    engine, w = _null_projections(kind)
    seen = []

    def recording(*args):
        seen.append(args)
        return benchmark.st_quadratics(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "st_quadratics", recording)
        crit = harness._lr_quantiles(engine, (v,), w)[0]
    (q11, q12, q22, _), = seen
    zx = engine.z @ engine.x
    ze1, ze2 = np.split(w, 2, axis=1)
    y1, y2 = v * zx + ze1, zx + ze2
    direct = engine.quadratics(np.concatenate([y1, y2], -1))
    gram = engine.z @ engine.z.T

    def norm(a):
        return np.sqrt(np.einsum("...j,...j->...", a, np.linalg.solve(gram, a.T).T))

    n1 = abs(v) * norm(zx) + norm(ze1)
    n2 = norm(zx) + norm(ze2)
    for got, want, bound in zip((q11, q12, q22), direct, (n1 * n1, n1 * n2, n2 * n2)):
        assert np.all(np.abs(got - want) <= 1e-14 * bound)
    want = empirical_upper_quantile(
        benchmark.tclr_from(*benchmark.st_quadratics(*direct, v)), engine.config.alpha)
    assert crit == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("table", [1, 2, 3, 4])
def test_replication_quadratics_do_not_depend_on_their_unit(table):
    # a replication's quadratics are the same bits alone, as `ivboot test`
    # takes them, and inside its unit of _UNIT replications (with an
    # explicit inverse of Z Z', 58 of the 800 replications of tables 1-4
    # moved in their last bits)
    cfg = table_config(table, reps=8 * harness._UNIT)
    engine = harness._Engine(cfg)
    for unit in range(8):
        eps = harness._gen_errors_batch(cfg.error, cfg.n, harness._UNIT,
                                        harness._stream(cfg, harness._SAMPLE, unit))
        y1 = cfg.beta_star * engine.x + eps[:, :, 0]
        y2 = engine.x + eps[:, :, 1]
        w = np.concatenate([y1 @ engine.z.T, y2 @ engine.z.T], -1)
        together = engine.quadratics(w)
        for r in range(harness._UNIT):
            alone = engine.quadratics(w[r:r + 1])
            assert [a.tobytes() for a in alone] == [t[r:r + 1].tobytes() for t in together]


@pytest.mark.parametrize("n", [40, 200, 2000])
@pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
def test_quadratics_of_a_row_do_not_depend_on_its_batch(q, n):
    # W rows (Z y1, Z y2) of 50 replications, in batches of 1, 7 (the last
    # one short) and 25, give the bits of one call on all of them
    engine = harness._Engine(small_config(n=n, q=q))
    y = np.random.default_rng(100 * q + n).standard_normal((50, 2, n))
    w = (y @ engine.z.T).reshape(50, 2 * q)
    want = [x.tobytes() for x in engine.quadratics(w)]
    for size in (1, 7, 25):
        parts = [engine.quadratics(w[a:a + size]) for a in range(0, len(w), size)]
        assert [np.concatenate(x).tobytes() for x in zip(*parts)] == want


def test_lr_null_at_large_beta0_converges():
    # T'T of the null grows like v^2 while S'S stays of order one: t_clr
    # must not cancel (the direct form read 7.6875 at 1e6 and 0 from 1e8),
    # and past about 3e76 T'T overflows, which is an error
    cfg = table_config(1)
    engine = harness._Engine(cfg)
    crit = harness._lr_critical(engine, (1e4, 1e8, 1e12), cfg.error)
    assert np.all(crit > 0)
    np.testing.assert_allclose(crit, crit[0], rtol=1e-5)
    with pytest.raises(ValueError, match="too large"):
        harness._lr_critical(engine, (1.0, 1e100), cfg.error)


def test_max_threads_counts_the_cpus_of_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("IVBOOT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert harness.max_threads() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    assert harness.max_threads() == 4
    monkeypatch.setenv("IVBOOT_THREADS", "3")  # the variable comes first
    assert harness.max_threads() == 3
    monkeypatch.delenv("IVBOOT_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity mask
    assert harness.max_threads() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert harness.max_threads() == 2
