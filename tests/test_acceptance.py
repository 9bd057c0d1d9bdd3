"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The table reproductions
use 1000 replications with 1000 bootstrap draws each and take about 5 s
apiece on 2 CPUs; everything else runs in seconds.
"""

import numpy as np
import pytest
from scipy.stats import kstest, norm

from ivboot import GeneralDesign, RngStream
from ivboot.bootstrap import boot_wilks_gap, t_blr
from ivboot.diagnostics import (
    bernstein_bound,
    empirical_opnorm_tail,
    gar_scaling_check,
    gauss_compare_distance,
    rademacher_spike_sampler,
    z_branch_continuity,
    z_function,
    DeviationParams,
)
from ivboot.harness import power_curve, reproduce_table, table_config
from ivboot.identify import MomentSystem, min_norm_solution, nonparam_bias_tail, single_iv_solution
from ivboot.quasilik import t_lr, wilks_gap
from ivboot.cli import run as cli_run

from conftest import H0_PROJECTOR, THETA_FEASIBLE, population_fisher, random_cosine_design

REPS = 1000
BOOT = 1000
SEED = None  # per-table default seeds from the harness


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed ({detail})"


_table_cache = {}


def run_table(k: int):
    if k not in _table_cache:
        _table_cache[k] = reproduce_table(k, reps=REPS, boot_reps=BOOT,
                                          master_seed=SEED, alpha=0.05)
    return _table_cache[k]


@pytest.mark.parametrize("k", [1])
def test_criterion_1_table1_reproduction(k):
    table, rep = run_table(k)
    detail = (f"LR/BLR/CLR cells within 0.08: {rep.frac_within_008:.3f}, "
              f"within 0.15: {rep.frac_within_015:.3f}")
    report("criterion 1 (table 1 reproduction)",
           rep.frac_within_008 >= 0.90 and rep.frac_within_015 == 1.0, detail)
    # the power curves dip near the null and saturate at the grid edges
    null_idx = int(np.argmin(np.abs(table.grid - table.config.beta_star)))
    for name in ("LR", "BLR", "CLR", "AR", "LM"):
        col = table.column(name)
        assert col[0] >= col[null_idx]
        assert col[-1] >= col[null_idx]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_criterion_2_misspecification_tables(k):
    table, rep = run_table(k)
    detail = (f"within 0.08: {rep.frac_within_008:.3f}, within 0.15: "
              f"{rep.frac_within_015:.3f}")
    report(f"criterion 2 (table {k} reproduction)",
           rep.frac_within_008 >= 0.90 and rep.frac_within_015 == 1.0, detail)
    if k == 2:  # spot anchors at the null row of the Laplace table
        i = int(np.argmin(np.abs(table.grid - 1.0)))
        anchors = {"LR": 0.075, "BLR": 0.05, "CLR": 0.041667}
        for name, ref in anchors.items():
            assert abs(table.column(name)[i] - ref) <= 0.08
    if k == 3:
        i = int(np.argmin(np.abs(table.grid - 1.0)))
        assert abs(table.column("LR")[i] - 0.033333) <= 0.08
        assert abs(table.column("BLR")[i] - 0.05) <= 0.08


def test_criterion_3_size_control():
    # zero offset from the truth: the hypothesized value equals beta_star
    import dataclasses

    cfg = table_config(1, reps=REPS, boot_reps=BOOT)
    null_cfg = dataclasses.replace(cfg, beta_grid=(cfg.beta_star,))
    table = power_curve(null_cfg)
    sizes = {name: float(table.column(name)[0]) for name in table.rows}
    ok = all(0.02 <= v <= 0.10 for v in sizes.values())
    report("criterion 3 (size control at the null)", ok,
           " ".join(f"{k}={v:.3f}" for k, v in sizes.items()))


def test_criterion_4_wilks_shrinkage():
    def medians(n, seed):
        g_real, g_boot = [], []
        F = population_fisher(n, 5)
        for r in range(200):
            gen = RngStream(seed, r).generator()
            d = random_cosine_design(n, gen)
            g_real.append(wilks_gap(d, H0_PROJECTOR, THETA_FEASIBLE, expected_fisher=F))
            g_boot.append(boot_wilks_gap(d, gen.normal(1, 1, n), H0_PROJECTOR,
                                         theta_star=THETA_FEASIBLE, expected_fisher=F))
        return np.median(g_real), np.median(g_boot)

    real_200, boot_200 = medians(200, 911)
    real_2000, boot_2000 = medians(2000, 912)
    ratio_real = real_200 / real_2000
    ratio_boot = boot_200 / boot_2000

    gen = RngStream(913, 0).generator()
    d = random_cosine_design(300, gen, penalty=0.4)
    exact_real = wilks_gap(d, H0_PROJECTOR, THETA_FEASIBLE)
    exact_boot = boot_wilks_gap(d, gen.normal(1, 1, 300), H0_PROJECTOR, exact=True)

    ok = (ratio_real >= 2.0 and ratio_boot >= 2.0
          and exact_real <= 1e-8 and exact_boot <= 1e-8)
    report("criterion 4 (Wilks gap shrinkage)", ok,
           f"real ratio {ratio_real:.2f}, bootstrap ratio {ratio_boot:.2f}, "
           f"exact gaps {exact_real:.1e}/{exact_boot:.1e}")


def test_criterion_5_chi_square_limit():
    # truth feasible under H0 and noise variance 2: the statistic follows
    # chi-square with rank(projector) degrees of freedom
    gen = RngStream(21, 0).generator()
    vals = []
    for _ in range(2000):
        d = random_cosine_design(2000, gen)
        vals.append(t_lr(d, H0_PROJECTOR))
    stat, p = kstest(vals, "chi2", args=(2,))
    report("criterion 5 (chi-square limit of the LR statistic)", p >= 0.01,
           f"KS p-value {p:.3f} against chi2(2), n=2000, 2000 replications")


def test_criterion_6_identification_suite():
    gen = RngStream(61, 0).generator()
    # minimum-norm optimality under null-space perturbations
    A = gen.standard_normal((3, 8))
    b = gen.standard_normal(3)
    x = min_norm_solution(MomentSystem(eta_star=A, rhs=b))
    _, _, Vt = np.linalg.svd(A)
    opt_ok = True
    for w in Vt[3:]:
        opt_ok &= np.linalg.norm(x + 1e-3 * w) ** 2 > np.linalg.norm(x) ** 2
    # single-instrument agreement
    agree_ok = True
    for _ in range(50):
        eta1 = gen.standard_normal(6)
        ewy = gen.standard_normal()
        d1 = single_iv_solution(eta1, ewy)
        d2 = min_norm_solution(MomentSystem(eta_star=eta1[None, :], rhs=[ewy]))
        agree_ok &= np.linalg.norm(d1 - d2) <= 1e-10 * (1 + np.linalg.norm(d1))
    # bias tail against brute-force partial sums
    j = np.arange(1, 1_000_001, dtype=float)
    theta = j ** -2.0
    tail_ok = True
    for J in (10, 20, 40):
        oracle = np.sqrt(np.sum(j[J:] ** -4.0))
        tail_ok &= abs(nonparam_bias_tail(theta, J) - oracle) <= 0.10 * oracle
    report("criterion 6 (identification suite)", opt_ok and agree_ok and tail_ok,
           "min-norm optimality, single-instrument agreement, bias-tail decay")


def test_criterion_7_concentration_suite():
    # (a) empirical operator-norm tails dominated by the Bernstein bound
    n, p, reps = 100, 2, 100_000
    t_grid = np.array([10.0, 15.0, 20.0, 25.0, 30.0, 40.0])
    tails = empirical_opnorm_tail(rademacher_spike_sampler(n, p), t_grid, reps,
                                  RngStream(71, 0))
    se = np.sqrt(np.maximum(tails * (1 - tails), 1e-7) / reps)
    dominated = all(
        tail <= min(1.0, bernstein_bound(t, float(n), 1.0, p)) + 3 * s
        for t, tail, s in zip(t_grid, tails, se)
    )

    # (b) deviation function: continuous lower junction, monotone branches
    x2 = np.diag([1.0, 0.5, 0.25])
    junc = z_branch_continuity(x2, 9.0)
    cont_ok = junc["jump_low"] <= 1e-9
    xs = np.linspace(0.0, junc["x_c"], 200)
    vals = [z_function(DeviationParams(x=x, x2=x2, g=9.0)) for x in xs]
    mono_ok = all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))
    print(f"    note: upper-junction relative jump {junc['jump_c']:.3f} (reported only)")

    # (c) Gaussian comparison: distance monotone in the covariance gap
    dists = [gauss_compare_distance(np.eye(5), s * np.eye(5), 150_000,
                                    RngStream(71, 1)).empirical_kolmogorov
             for s in (1.05, 1.1, 1.2)]
    gc_ok = dists[0] <= dists[1] <= dists[2]

    # (d) Gaussian approximation: distance decays roughly like 1/sqrt(n).
    # The discrete summand law keeps the distances well above the DKW noise
    # floor; uniform summands are already too Gaussian at these sizes.
    out = gar_scaling_check("rademacher_product", 3, [50, 100, 200, 400], 100_000,
                            RngStream(71, 2))
    ns = np.array([n for n, _ in out], dtype=float)
    ds = np.array([d for _, d in out])
    slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
    dkw = np.sqrt(np.log(2 / 0.01) / (2 * 100_000))
    gar_ok = (-1.2 <= slope <= -0.2) and (ds[-1] < ds[0] - 2 * dkw)

    report("criterion 7 (concentration suite)",
           dominated and cont_ok and mono_ok and gc_ok and gar_ok,
           f"domination {dominated}, continuity {cont_ok}, monotone {mono_ok}, "
           f"GC monotone {gc_ok}, GAR slope {slope:.2f}")


def test_criterion_8_cli_determinism(tmp_path, monkeypatch):
    argv = ["power", "--n", "120", "--q", "4", "--concentration", "10000",
            "--reps", "50", "--boot-reps", "150", "--grid", "0.7:0.3:1.3",
            "--seed", "2024"]
    outputs = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("IVBOOT_THREADS", threads)
        path = tmp_path / f"run_{threads}.csv"
        assert cli_run(argv + ["--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    # rerun with the same thread count must also be byte-identical
    monkeypatch.setenv("IVBOOT_THREADS", "2")
    path = tmp_path / "rerun.csv"
    assert cli_run(argv + ["--out", str(path)]) == 0
    ok = ok and path.read_bytes() == outputs[1]
    report("criterion 8 (CLI byte-determinism across thread counts)", ok,
           "3 thread settings + rerun identical")
