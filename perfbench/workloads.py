"""The benchmark's workloads.

Each workload builds its inputs from the workload seed alone, runs one
operation on them through the public (or, for the power harness, module
level) entry points of ``ivboot``, and checks the operation's output.  The
program receives only the generated inputs.

A "replication" is one simulated sample at one hypothesized value, with its
bootstrap and its tests.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from statistics import NormalDist

import numpy as np

from ivboot import benchmark, bootstrap, cli, harness, quasilik
from ivboot.basis import GeneralDesign
from ivboot.simgen import ErrorSpec, SimConfig, gen_sample

# Where the test calls write their reports; inside the checkout, ignored by git.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench"

# Full-size parameters, and a tiny variant for the benchmark's own tests.
# 125 reps per grid point is one replication unit of the harness (its
# _CHUNK), the same unit a 1000-rep table is made of.
FULL = dict(grid_reps=125, boot_reps=1000, qlik_shapes=((400, 1), (1000, 2)))
TINY = dict(grid_reps=8, boot_reps=100, qlik_shapes=((60, 1), (80, 2)))
SIZES = {"full": FULL, "tiny": TINY}

# Acceptance gate of criteria 1 and 2: every LR/BLR/CLR cell within 0.15 of
# the reference at 1000 replications.  A cell may differ from the reference
# by this much before Monte Carlo error is counted.
CELL_GATE = 0.15
# Family-wise false-alarm rate of the power-grid z-score check.
FAMILY_ALPHA = 1e-3
MAX_RETRY_FRAC = 0.01
ALPHA = 0.05

CLI_ERROR_FLAGS = ("gauss", "laplace", "hetero-linear", "hetero-periodic")
QLIK_DIM = 5
QLIK_PROJECTOR = np.diag([1.0, 1.0, 0.0, 0.0, 0.0])  # rank 2: H0 fixes theta_1, theta_2
QLIK_THETA = np.array([0.0, 0.0, 0.4, -0.2, 0.1])  # satisfies H0


def _seed_stream(seed: int, tag: int, client: int):
    """Endless deterministic integer seeds for one client's operations."""
    gen = np.random.default_rng([seed, tag, client])
    while True:
        yield int(gen.integers(0, 2**31 - 1))


class PowerGrid:
    """``power_curve`` on the calibrated table-1 config: 17 grid points, each
    with ``grid_reps`` replications of 1000 bootstrap draws, on ``nproc``
    worker threads."""

    name = "power-grid"
    tag = 1

    def __init__(self, seed: int, size: dict, client: int = 0):
        self.seeds = _seed_stream(seed, self.tag, client)
        self.base = harness.table_config(1, reps=size["grid_reps"], boot_reps=size["boot_reps"])
        self.ref_grid, self.ref_cols = harness.load_reference_table(1)

    def next_input(self):
        return dataclasses.replace(self.base, master_seed=next(self.seeds))

    @staticmethod
    def run(cfg):
        return harness.power_curve(cfg)

    @staticmethod
    def replications(cfg) -> int:
        return len(cfg.beta_grid) * cfg.reps

    def check(self, cfg, table) -> list:
        problems = []
        if not np.allclose(table.grid, self.ref_grid, atol=1e-9):
            return ["grid differs from reference table 1"]
        z = grid_zscores(table.rows, self.ref_cols, table.reps_used)
        z_crit = zscore_tolerance(z.size)
        worst = float(np.max(z))
        if not worst <= z_crit:
            problems.append(f"max z {worst:.2f} > {z_crit:.2f} against reference table 1")
        null_idx = int(np.argmin(np.abs(table.grid - cfg.beta_star)))
        for name in harness.TEST_NAMES:
            col = table.rows[name]
            if not (col[0] >= col[null_idx] and col[-1] >= col[null_idx]):
                problems.append(f"{name} power curve is not U-shaped around the null")
        return problems


def grid_zscores(rows: dict, ref_cols: dict, reps: int) -> np.ndarray:
    """Per-cell z-scores of the LR/BLR/CLR rejection rates beyond the
    acceptance gate: (|rate - reference| - CELL_GATE)+ over the binomial
    standard error at ``reps`` replications.  The error is taken at the
    reference rate, kept at least 1/reps away from 0 and 1 so that it stays
    positive in saturated cells."""
    out = []
    for name in ("LR", "BLR", "CLR"):
        ref = np.asarray(ref_cols[name])
        p = np.clip(ref, 1.0 / reps, 1.0 - 1.0 / reps)
        se = np.sqrt(p * (1.0 - p) / reps)
        excess = np.maximum(np.abs(np.asarray(rows[name]) - ref) - CELL_GATE, 0.0)
        out.append(excess / se)
    return np.concatenate(out)


def zscore_tolerance(n_cells: int) -> float:
    """Two-sided Bonferroni critical value at family-wise rate FAMILY_ALPHA."""
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * n_cells))


class SingleSample:
    """Closed loop of single-sample tests.  One operation is one in-process
    ``ivboot test`` call, then one pair of quasi-likelihood bootstrap tests.
    Together they run every layer that the power harness does not: the CLI,
    the scalar ``benchmark`` path, ``simgen``, ``bootstrap`` and
    ``quasilik``.

    The test call takes a new seed, a hypothesized value from the table-1
    grid and the next of the four error laws, and writes its report to a
    file (``--out``), as a script calling the CLI would.
    The bootstrap pair runs ``t_lr`` -> ``boot_quantile`` (1000 draws) ->
    ``blr_test`` at n=400/K=1 and at n=1000/K=2, on freshly generated
    cosine designs with J=5 and a rank-2 projector."""

    name = "single-sample"
    tag = 3

    def __init__(self, seed: int, size: dict, client: int = 0):
        self.boot_reps = size["boot_reps"]
        self.shapes = size["qlik_shapes"]
        self.seeds = _seed_stream(seed, self.tag, client)
        self.gen = np.random.default_rng([seed, self.tag, client, 1])
        self.spec = harness.TABLE_SPECS[1]
        self.calls = 0

    def next_input(self):
        law = CLI_ERROR_FLAGS[self.calls % len(CLI_ERROR_FLAGS)]
        beta0 = float(self.gen.choice(self.spec["grid"]))
        self.calls += 1
        argv = ["test", "--seed", str(next(self.seeds)), "--beta0", repr(beta0),
                "--error", law, "--boot-reps", str(self.boot_reps)]
        pairs = [(cosine_quasilik_design(n, k, self.gen), int(self.gen.integers(0, 2**31 - 1)))
                 for n, k in self.shapes]
        return argv, pairs

    def run(self, inp):
        argv, pairs = inp
        return self.run_test(argv), self.run_qlik(pairs)

    @staticmethod
    def replications(inp) -> int:
        argv, pairs = inp
        return 1 + len(pairs)

    def check(self, inp, out) -> list:
        (argv, pairs), (test_out, qlik_out) = inp, out
        return self.check_test(argv, test_out) + self.check_qlik(pairs, qlik_out)

    @staticmethod
    def run_test(argv):
        SCRATCH.mkdir(exist_ok=True)
        path = SCRATCH / f"test-{os.getpid()}.json"  # one file per client process
        code = cli.run(argv + ["--out", str(path)])
        if code != 0:
            return code, ""
        text = path.read_text()
        path.unlink()
        return code, text

    def check_test(self, argv, out) -> list:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        tests = json.loads(text)["tests"]
        problems = []
        if [t["name"] for t in tests] != list(harness.TEST_NAMES):
            problems.append(f"expected the five tests, got {[t['name'] for t in tests]}")
        for t in tests:
            if not (math.isfinite(t["statistic"]) and math.isfinite(t["critical_value"])):
                problems.append(f"{t['name']}: non-finite outcome")
        # the reported LR statistic against the profile-likelihood form on the
        # same sample, rebuilt from the benchmark's own inputs
        opts = dict(zip(argv[1::2], argv[2::2]))
        cfg = SimConfig(n=200, q=5, concentration=200 * self.spec["lam"],
                        beta_star=self.spec["beta_star"],
                        error=ErrorSpec(kind=opts["--error"].replace("-", "_"), omega=np.eye(2)),
                        master_seed=int(opts["--seed"]))
        sample = gen_sample(cfg, rng=cfg.rng())
        expect = benchmark.ams_lr_statistic(sample, float(opts["--beta0"]))
        got = tests[0]["statistic"]
        if not math.isclose(got, expect, rel_tol=1e-6, abs_tol=1e-8):
            problems.append(f"LR statistic {got!r} != ams_lr_statistic {expect!r}")
        return problems

    def run_qlik(self, pairs):
        out = []
        for design, boot_seed in pairs:
            t = quasilik.t_lr(design, QLIK_PROJECTOR)
            boot = bootstrap.boot_quantile(design, QLIK_PROJECTOR, self.boot_reps, ALPHA,
                                           np.random.default_rng(boot_seed))
            out.append((t, boot, bootstrap.blr_test(design, QLIK_PROJECTOR, t, boot)))
        return out

    @staticmethod
    def check_qlik(pairs, out) -> list:
        problems = []
        for (design, _), (t, boot, outcome) in zip(pairs, out):
            J = design.dim
            threshold = J + boot.z_star_alpha * math.sqrt(J)
            if not math.isclose(outcome.critical_value, threshold, rel_tol=1e-12):
                problems.append(f"threshold {outcome.critical_value!r} != J + z*sqrt(J) "
                                f"= {threshold!r}")
            if not t >= 0.0:
                problems.append(f"T_LR = {t!r} < 0")
            if not boot.n_retries <= MAX_RETRY_FRAC * boot.n_boot:
                problems.append(f"{boot.n_retries} redraws in {boot.n_boot} draws")
        return problems


def cosine_quasilik_design(n: int, n_instruments: int, gen) -> GeneralDesign:
    """Random-regressor linear design: X ~ U(0, 1), regressors
    cos(2 pi j X) for j = 1..5, noise N(0, 2), truth satisfying H0."""
    eta = np.empty((n_instruments, n, QLIK_DIM))
    zk = np.empty((n_instruments, n))
    for k in range(n_instruments):
        x = gen.uniform(0.0, 1.0, n)
        eta[k] = np.cos(2 * np.pi * np.outer(x, np.arange(1, QLIK_DIM + 1)))
        zk[k] = eta[k] @ QLIK_THETA + math.sqrt(2.0) * gen.standard_normal(n)
    return GeneralDesign(eta=eta, zk=zk)


WORKLOADS = {w.name: w for w in (PowerGrid, SingleSample)}
