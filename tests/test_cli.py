import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import ivboot
from ivboot.benchmark import clr_critical
from ivboot.cli import run


MODEL = ["--n", "60", "--q", "3", "--concentration", "3000", "--seed", "11"]
BOOT = ["--boot-reps", "120"]
POWER = MODEL + ["--reps", "25"] + BOOT

MODEL_FLAGS = ["--config", "--n", "--q", "--concentration", "--beta-star", "--error", "--seed"]
FLAGS = {
    "simulate": MODEL_FLAGS + ["--format", "--out"],
    "power": MODEL_FLAGS + ["--alpha", "--reps", "--boot-reps", "--grid", "--format", "--out"],
    "test": MODEL_FLAGS + ["--alpha", "--boot-reps", "--beta0", "--out"],
    "reproduce-table": ["--table", "--alpha", "--reps", "--boot-reps", "--seed", "--format",
                        "--out"],
    "diagnose": MODEL_FLAGS + ["--out"],
}
# a valid value for every flag of the CLI
VALUES = {"--config": "cfg.json", "--n": "60", "--q": "3", "--concentration": "3000",
          "--beta-star": "1.0", "--error": "laplace", "--seed": "11", "--alpha": "0.05",
          "--reps": "25", "--boot-reps": "120", "--grid": "0.8:0.2:1.2", "--format": "json",
          "--out": "o.txt", "--beta0": "1.0", "--table": "1"}


def test_help_lists_flags(capsys):
    assert run(["power", "--help"]) == 0
    text = capsys.readouterr().out
    for flag in ("--reps", "--boot-reps", "--alpha", "--seed", "--error",
                 "--concentration", "--n", "--q", "--grid", "--out", "--format"):
        assert flag in text
    assert run(["reproduce-table", "--help"]) == 0
    text = capsys.readouterr().out
    assert "--table" in text
    assert "master seed (default: the table's own seed)" in text


@pytest.mark.parametrize("subcommand", FLAGS)
def test_subcommand_takes_exactly_the_flags_it_reads(capsys, subcommand):
    assert run([subcommand, "--help"]) == 0
    listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert listed == set(FLAGS[subcommand]) | {"--help"}
    required = ["--table", "1"] if subcommand == "reproduce-table" else []
    for flag in sorted(set(VALUES) - set(FLAGS[subcommand])):
        assert run([subcommand] + required + [flag, VALUES[flag]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {flag} " in err


def test_simulate_csv_deterministic(tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    argv = ["simulate"] + MODEL
    assert run(argv + ["--out", str(f1)]) == 0
    assert run(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    header = f1.read_text().splitlines()[0]
    assert header == "y1,y2,z1,z2,z3"
    assert len(f1.read_text().splitlines()) == 61


def test_power_csv_shape(tmp_path):
    out = tmp_path / "p.csv"
    code = run(["power", "--grid", "0.8:0.2:1.2"] + POWER + ["--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "offset,LR,BLR,CLR,AR,LM"
    assert len(lines) == 4
    vals = np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)
    assert np.all((0 <= vals) & (vals <= 1))


def test_power_identical_across_thread_env(tmp_path, monkeypatch):
    argv = ["power", "--grid", "0.8:0.2:1.2"] + POWER
    f1 = tmp_path / "t1.csv"
    monkeypatch.setenv("IVBOOT_THREADS", "1")
    assert run(argv + ["--out", str(f1)]) == 0
    f2 = tmp_path / "t2.csv"
    monkeypatch.setenv("IVBOOT_THREADS", "3")
    assert run(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_power_json_format(tmp_path):
    out = tmp_path / "p.json"
    assert run(["power", "--grid", "0.9:0.2:1.1"] + POWER + ["--format", "json",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["rows"].keys() == {"LR", "BLR", "CLR", "AR", "LM"}
    assert payload["config"]["master_seed"] == 11
    assert payload["blr_redraws"] == 0


def test_test_subcommand_emits_all_five(tmp_path):
    out = tmp_path / "t.json"
    assert run(["test", "--beta0", "1.0"] + MODEL + BOOT + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    names = [t["name"] for t in payload["tests"]]
    assert names == ["LR", "BLR", "CLR", "AR", "LM"]
    for t in payload["tests"]:
        assert isinstance(t["reject"], bool)
        assert np.isfinite(t["statistic"])
        assert np.isfinite(t["critical_value"])
    assert payload["tests"][1]["info"]["n_retries"] == 0
    # the CLR critical value is the scalar API's, bit for bit
    clr = payload["tests"][2]
    assert clr["critical_value"] == clr_critical(clr["info"]["t_norm2"], 3, 0.05)


def test_missing_config_exits_one(capsys):
    assert run(["power", "--config", "missing.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_closed_stdout_exits_141_quietly():
    # `ivboot simulate ... | head -c 10`: the reader leaves early; that is
    # no usage error, and the exit-time flush must not complain either
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivboot.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-m", "ivboot.cli", "simulate", "--n", "20000",
                             "--q", "5", "--format", "json"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_bad_grid_exits_one(capsys):
    assert run(["power", "--grid", "oops"] + POWER) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # more indefinite weighted Grams than one bootstrap may redraw
    (["test", "--n", "20", "--q", "5", "--seed", "1"], "bootstrap aborted"),
    (["test", "--n", "30", "--q", "5", "--seed", "1"], "bootstrap aborted"),
    # q > n/2 repeats cosine rows: a singular normal matrix
    (["diagnose", "--n", "8", "--q", "5"], "need 1 <= q <= n/2, got n=8, q=5"),
    (["test", "--n", "8", "--q", "5"], "need 1 <= q <= n/2, got n=8, q=5"),
    (["power", "--n", "8", "--q", "5", "--reps", "25", "--boot-reps", "100"],
     "need 1 <= q <= n/2, got n=8, q=5"),
    # settings that no run can use
    (["test", "--boot-reps", "0"], "boot_reps must be >= 1"),
    (["power", "--boot-reps", "0", "--reps", "10"], "boot_reps must be >= 1"),
    (["test", "--beta0", "nan"], "beta0 must be finite"),
    (["test", "--concentration", "nan"], "concentration must be finite and positive"),
    (["power", "--beta-star", "inf", "--reps", "10"], "beta_star must be finite"),
], ids=["test-n20", "test-n30", "diagnose-singular", "test-singular", "power-singular",
        "test-boot-reps-0", "power-boot-reps-0", "test-beta0-nan", "test-concentration-nan",
        "power-beta-star-inf"])
def test_degenerate_runs_exit_one(capsys, argv, message):
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_config_file_with_flag_overrides(tmp_path):
    cfg = {"n": 60, "q": 3, "concentration": 3000.0, "beta_star": 1.0,
           "error": {"kind": "laplace"}, "beta_grid": [1.0],
           "reps": 10, "boot_reps": 100, "alpha": 0.05, "master_seed": 4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.json"
    assert run(["power", "--config", str(path), "--reps", "15",
                "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["error_kind"] == "laplace"
    assert payload["reps_used"] == 15


@pytest.mark.parametrize("cfg, key", [
    ({"n": 60, "q": 3, "seed": 4}, "'seed'"),
    ({"n": 60, "q": 3, "error": {"kind": "laplace", "rho": 0.5}}, "'rho'"),
], ids=["top-level", "error"])
def test_config_file_unknown_key_exits_one(tmp_path, capsys, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and key in err


def test_diagnose_json(tmp_path):
    out = tmp_path / "d.json"
    assert run(["diagnose"] + MODEL + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "fsc" in payload
    assert "deviation_function_junctions" in payload
    assert payload["bernstein_domination"]["dominated"] is True


def test_reproduce_table_small_run(tmp_path):
    out = tmp_path / "r.json"
    code = run(["reproduce-table", "--table", "1", "--reps", "60",
                "--boot-reps", "120", "--seed", "5", "--format", "json",
                "--out", str(out)])
    assert code in (0, 2)  # tolerance verdict is noisy at tiny reps
    payload = json.loads(out.read_text())
    assert payload["report"]["reference_id"] == 1
    assert len(payload["table"]["grid"]) == 17
    assert payload["table"]["blr_redraws"] == 0  # n = 200: no indefinite Gram
    assert (code == 0) == payload["report"]["passed"]


def test_no_scipy_at_run_time(tmp_path):
    # scipy is a test dependency only: importing ivboot and running each
    # subcommand must not load it.  A fresh interpreter, since this test
    # process has scipy loaded already.  The import loads no numpy.polynomial
    # either: the CLR curves import it when they are first built.
    script = f"""
import sys
import ivboot
from ivboot.cli import run
assert not [m for m in sys.modules if m.startswith("numpy.polynomial")]
out = {str(tmp_path)!r} + "/out"
assert run(["test", "--beta0", "1.0", "--out", out]) == 0
assert run(["power", "--reps", "30", "--boot-reps", "100", "--out", out]) == 0
assert run(["diagnose", "--out", out]) == 0
assert run(["reproduce-table", "--table", "2", "--reps", "25", "--boot-reps", "100",
            "--format", "json", "--out", out]) in (0, 2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivboot.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
