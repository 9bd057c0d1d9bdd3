import json
import threading
import time

import numpy as np
import pytest

from ivboot import ErrorSpec, SimConfig, harness
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


def test_power_curve_shapes_and_ranges():
    t = power_curve(small_config(), n_threads=1)
    assert t.grid.shape == (3,)
    for name in ("LR", "BLR", "CLR", "AR", "LM"):
        col = t.column(name)
        assert col.shape == (3,)
        assert np.all((0.0 <= col) & (col <= 1.0))
    assert t.reps_used == 40


def test_power_curve_thread_count_invariant():
    cfg = small_config(reps=2 * harness._UNIT + 7)  # three units, the last one short
    t1 = power_curve(cfg, n_threads=1)
    for threads in (2, 3):
        t = power_curve(cfg, n_threads=threads)
        for name in ("LR", "BLR", "CLR", "AR", "LM"):
            assert np.array_equal(t1.column(name), t.column(name))
        assert t1.to_csv_text() == t.to_csv_text()


def test_power_json_thread_count_invariant_with_redraw_count():
    # at n = 40, q = 3 a few weighted Grams are indefinite: the JSON counts
    # every unit's redraws, and is identical at any thread count
    cfg = small_config(n=40, concentration=40 * 60.0, reps=2 * harness._UNIT + 7,
                       boot_reps=200)
    texts = [json.dumps(power_curve(cfg, n_threads=k).to_dict(), sort_keys=True)
             for k in (1, 2, 3)]
    assert texts[0] == texts[1] == texts[2]
    engine = harness._Engine(cfg)
    redraws = sum(harness._sample_unit(engine, u)[4] for u in range(3))
    assert redraws > 0
    assert json.loads(texts[0])["blr_redraws"] == redraws


def test_power_curve_cell_depends_only_on_its_grid_value():
    # every draw is shared across the grid, so the other grid values do not
    # change the row at 1.0
    wide = power_curve(small_config(beta_grid=(0.7, 1.0, 1.3)), n_threads=2)
    alone = power_curve(small_config(beta_grid=(1.0,)), n_threads=1)
    for name in ("LR", "BLR", "CLR", "AR", "LM"):
        assert wide.column(name)[1] == alone.column(name)[0]


def test_power_curve_deterministic_rerun():
    t1 = power_curve(small_config(), n_threads=2)
    t2 = power_curve(small_config(), n_threads=2)
    assert t1.to_csv_text() == t2.to_csv_text()


def test_power_curve_reuses_its_workers(monkeypatch):
    # one pool per thread count for the life of the process: a second call
    # starts no thread, its units run on threads alive before it
    workers = set()
    sample_unit = harness._sample_unit

    def recording_unit(engine, unit):
        workers.add(threading.current_thread())
        return sample_unit(engine, unit)

    power_curve(small_config(), n_threads=2)
    alive = set(threading.enumerate())
    monkeypatch.setattr(harness, "_sample_unit", recording_unit)
    power_curve(small_config(reps=4 * harness._UNIT), n_threads=2)
    assert workers and workers <= alive


def test_power_curve_waits_for_its_tasks_when_one_fails(monkeypatch):
    done = []

    def slow_oracle(*args):
        time.sleep(0.2)
        done.append(True)
        return np.zeros(3)

    def failing_unit(engine, unit):
        raise RuntimeError("unit failed")

    monkeypatch.setattr(harness, "_lr_critical", slow_oracle)
    monkeypatch.setattr(harness, "_sample_unit", failing_unit)
    with pytest.raises(RuntimeError, match="unit failed"):
        power_curve(small_config(), n_threads=2)
    assert done == [True]


def test_power_curve_u_shape_and_signal():
    # strong signal config: full power at the grid edges, near-level at the null
    cfg = small_config(beta_grid=(0.3, 1.0, 1.7), reps=80)
    t = power_curve(cfg, n_threads=2)
    for name in ("LR", "BLR", "CLR", "AR", "LM"):
        col = t.column(name)
        assert col[0] >= col[1]
        assert col[2] >= col[1]


def test_power_increases_with_concentration():
    grid = (0.8,)
    weak = power_curve(small_config(beta_grid=grid, reps=60), n_threads=2)
    strong = power_curve(small_config(beta_grid=grid, reps=60,
                                      concentration=80 * 240.0), n_threads=2)
    assert strong.column("LR")[0] >= weak.column("LR")[0]


def test_csv_text_layout():
    t = power_curve(small_config(reps=10, boot_reps=100), n_threads=1)
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


def test_oracle_lr_critical_is_null_quantile(monkeypatch):
    seen = []
    kernel = harness._lr_critical

    def recording(*args, **kwargs):
        seen.append(kernel(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(harness, "_lr_critical", recording)
    cfg = small_config(beta_grid=(0.7, 1.0), reps=400)
    t = power_curve(cfg, n_threads=2)
    # rejection rate of null data against the oracle critical value ~ alpha
    assert 0.01 <= t.column("LR")[1] <= 0.12
    # the scalar oracle is the power curve's LR kernel with a grid of one
    curve_crits = seen[0]
    for v, crit in zip(cfg.beta_grid, curve_crits):
        assert oracle_lr_critical(cfg, v) == crit
