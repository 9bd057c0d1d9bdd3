"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ivboot import harness  # noqa: E402


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setenv("IVBOOT_THREADS", "1")  # restored after the test
    return tmp_path


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(workload, out_dir):
    for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result, record = run.run_workload(workload, seed=7, seconds=0.01, trace=trace,
                                          size="tiny", setup_samples=1)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert [m[0] for m in table] == list(result["metrics"])
        for name, unit, *_ in table:
            assert result["metrics"][name]["unit"] == unit
            assert math.isfinite(result["metrics"][name]["value"])
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["correct"], record["problems"]
    assert (out_dir / f"spans-{workload}-seed7.json").is_file()


def test_power_grid_csv_identical_across_worker_counts(monkeypatch):
    cfg = workloads.PowerGrid(3, workloads.TINY).next_input()
    monkeypatch.setenv("IVBOOT_THREADS", "1")
    one = harness.power_curve(cfg).to_csv_text().encode()
    monkeypatch.setenv("IVBOOT_THREADS", str(max(2, run.nproc())))
    many = harness.power_curve(cfg).to_csv_text().encode()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = harness.power_curve(cfg).to_csv_text().encode()
    finally:
        tracer.uninstall()
    assert one == many == traced
    assert tracer.spans
    assert not hasattr(harness.power_curve, "__wrapped__")


def test_checks_reject_wrong_outputs():
    grid = workloads.PowerGrid(0, workloads.TINY)
    cfg = grid.next_input()
    flat = {t: np.full(len(cfg.beta_grid), 0.5) for t in harness.TEST_NAMES}
    table = harness.PowerTable(grid=np.array(cfg.beta_grid), rows=flat, config=cfg,
                               reps_used=1000)
    assert grid.check(cfg, table)

    single = workloads.SingleSample(0, workloads.TINY)
    argv, pairs = single.next_input()
    code, text = single.run_test(argv)
    assert single.check_test(argv, (code, text)) == []
    report = json.loads(text)
    report["tests"][0]["statistic"] += 1e-3
    assert single.check_test(argv, (code, json.dumps(report)))
    assert single.check_test(argv, (1, ""))

    out = single.run_qlik(pairs)
    assert single.check_qlik(pairs, out) == []
    t, boot, outcome = out[0]
    shifted = dataclasses.replace(outcome, critical_value=outcome.critical_value + 0.1)
    assert single.check_qlik(pairs[:1], [(t, boot, shifted)])


def test_self_time_subtracts_union_of_children():
    # parent 0..10 on the main thread; two overlapping children on workers
    rows = [(1, "op", 0.0, 10.0, None, 1, {}),
            (2, "harness.power_curve", 0.0, 10.0, 1, 1, {"workers": 2}),
            (3, "harness.unit", 1.0, 5.0, 2, 2, {}),
            (4, "harness.unit", 3.0, 7.0, 2, 3, {}),
            (5, "check", 10.0, 11.0, None, 1, {})]
    table = spans.SpanTable(rows, root="op")
    assert table.self_time("harness.power_curve") == pytest.approx(4.0)
    assert table.busy("harness.unit") == pytest.approx(8.0)
    assert table.pool() == pytest.approx((12.0, 6.0, 10.0))
    assert table.count("check") == 0


def test_tail_latency_keeps_ten_calls_beyond():
    assert run.tail_latency(list(range(10))) is None
    tail = run.tail_latency([float(i) for i in range(40)])
    assert tail == {"value_s": 29.0, "percentile": 75.0, "calls": 40}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert [[m["name"], m["unit"], m["better"], m["bound"]] for m in spec["end_to_end"]] \
        == [list(m) for m in run.END_TO_END]
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] \
        == [list(m[:3]) for m in run.PER_LAYER]


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "power-grid",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
