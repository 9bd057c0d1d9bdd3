import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from ivboot import GeneralDesign, IvSample, RngStream, SampleTruth, basis, cosine_design
from ivboot.benchmark import benchmark_design
from ivboot.diagnostics import (
    SUMMAND_LAWS,
    DeviationParams,
    _draw_summand_sums,
    bernstein_bound,
    empirical_opnorm_tail,
    fsc_design_check,
    gar_scaling_check,
    gauss_compare_distance,
    rademacher_spike_sampler,
    z_branch_continuity,
    z_function,
)

from conftest import random_cosine_design


def test_z_function_branch1_hand_value():
    val = z_function(DeviationParams(x=0.04, x2=np.eye(1), g=10.0))
    assert val == pytest.approx(1.0 + np.sqrt(0.32), abs=1e-12)


def test_z_function_branch2_hand_value():
    # x_c for g=10, tr=1 is about 73.95, so x=1 is squarely in the middle branch
    val = z_function(DeviationParams(x=1.0, x2=np.eye(1), g=10.0))
    assert val == pytest.approx(7.0)
    junc = z_branch_continuity(np.eye(1), 10.0)
    assert junc["x_c"] == pytest.approx(73.95, abs=0.05)


def test_z_function_zero_x_is_trace():
    x2 = np.diag([0.5, 0.25])
    assert z_function(DeviationParams(x=0.0, x2=x2, g=10.0)) == pytest.approx(0.75)


def test_z_function_lower_junction_continuous():
    for x2 in (np.eye(1), np.diag([1.0, 0.5, 0.25]), np.eye(4) * 0.3):
        junc = z_branch_continuity(x2, 12.0)
        assert junc["jump_low"] <= 1e-9


def test_z_function_monotone_within_branches():
    x2 = np.diag([1.0, 0.4])
    params = lambda x: DeviationParams(x=x, x2=x2, g=6.0)
    junc = z_branch_continuity(x2, 6.0)
    xs = np.concatenate([
        np.linspace(0, junc["x_low"], 30),
        np.linspace(junc["x_low"], junc["x_c"], 30),
        # third branch starts just past x_c (the upper junction itself jumps)
        np.linspace(junc["x_c"] * (1 + 1e-9), 3 * junc["x_c"] + 5, 30),
    ])
    vals = [z_function(params(x)) for x in xs]
    # nondecreasing within each branch segment
    for seg in (vals[:30], vals[30:60], vals[60:]):
        assert all(seg[i + 1] >= seg[i] - 1e-12 for i in range(len(seg) - 1))


def test_z_function_upper_junction_reported():
    junc = z_branch_continuity(np.eye(2), 8.0)
    assert "jump_c" in junc
    assert junc["jump_c"] >= 0.0


def test_deviation_params_precondition():
    with pytest.raises(ValueError):
        DeviationParams(x=1.0, x2=np.eye(3), g=1.0)  # g^2 <= 2 tr / 3


def test_bernstein_bound_values():
    assert bernstein_bound(0.0, 1.0, 1.0, 3) == 6.0
    assert bernstein_bound(3.0, 1.0, 3.0, 1) == pytest.approx(2 * np.exp(-9.0 / 8.0))
    assert bernstein_bound(2.0, 1.0, 0.0, 1) == pytest.approx(2 * np.exp(-2.0))


def test_bernstein_bound_monotonicities():
    ts = np.linspace(0, 10, 20)
    vals = [bernstein_bound(t, 2.0, 1.0, 2) for t in ts]
    assert all(vals[i + 1] <= vals[i] for i in range(19))
    assert bernstein_bound(3.0, 4.0, 1.0, 2) >= bernstein_bound(3.0, 2.0, 1.0, 2)
    assert bernstein_bound(3.0, 2.0, 2.0, 2) >= bernstein_bound(3.0, 2.0, 1.0, 2)


def test_opnorm_tail_zero_sampler():
    def sampler(gen, batch):
        return np.zeros((batch, 5, 2, 2))

    tails = empirical_opnorm_tail(sampler, [0.5, 1.0], 500, RngStream(0, 0))
    assert np.all(tails == 0.0)


def test_opnorm_tail_dominated_by_bernstein():
    n, p, reps = 100, 2, 20_000
    sampler = rademacher_spike_sampler(n, p)
    t_grid = np.array([10.0, 20.0, 30.0, 40.0])
    tails = empirical_opnorm_tail(sampler, t_grid, reps, RngStream(4, 0))
    se = np.sqrt(np.maximum(tails * (1 - tails), 1e-6) / reps)
    for t, tail, s in zip(t_grid, tails, se):
        bound = min(1.0, bernstein_bound(t, float(n), 1.0, p))
        assert tail <= bound + 3 * s


def test_opnorm_tail_does_not_depend_on_the_draw_budget(monkeypatch):
    # batches of one realization, of 7 (the last one short), and one batch
    # for all of them
    def tail():
        return empirical_opnorm_tail(rademacher_spike_sampler(30, 2), [2.0, 5.0, 10.0], 500,
                                     RngStream(6, 0)).tobytes()

    expected = tail()
    for budget in (8 * 30 * 4, 8 * 30 * 4 * 7, 1 << 40):
        monkeypatch.setattr(basis, "DRAW_BUDGET", budget)
        assert tail() == expected


def test_opnorm_tail_memory_is_bounded_in_reps():
    # the summands are held a batch of about DRAW_BUDGET bytes at a time,
    # not 20 000 realizations at once (64 MB of summands for `ivboot
    # diagnose`'s 100 of 2 x 2)
    tracemalloc.start()
    try:
        empirical_opnorm_tail(rademacher_spike_sampler(100, 2), [10.0, 20.0], 20_000,
                              RngStream(4, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * basis.DRAW_BUDGET


def test_opnorm_tail_stable_under_more_reps():
    sampler = rademacher_spike_sampler(50, 2)
    grid = [5.0, 10.0, 15.0]
    t1 = empirical_opnorm_tail(sampler, grid, 20_000, RngStream(5, 0))
    t2 = empirical_opnorm_tail(sampler, grid, 40_000, RngStream(5, 1))
    se = np.sqrt(np.maximum(t1 * (1 - t1), 1e-6) / 20_000)
    assert np.all(np.abs(t1 - t2) <= 3 * se + 3e-3)


def test_gauss_compare_equal_covariances():
    res = gauss_compare_distance(np.eye(3), np.eye(3), 40_000, RngStream(6, 0))
    assert res.bound_factor == pytest.approx(0.0, abs=1e-12)
    dkw = np.sqrt(np.log(2 / 0.01) / (2 * 40_000))
    assert res.empirical_kolmogorov <= 2 * dkw


def test_gauss_compare_dim1_quadrature_oracle():
    # oracle: sup_t | P(|N(0,1)| < t) - P(|N(0,4)| < t) | on a dense grid
    t = np.linspace(0, 12, 400_001)
    exact = np.abs((2 * norm.cdf(t) - 1) - (2 * norm.cdf(t / 2.0) - 1)).max()
    res = gauss_compare_distance([[1.0]], [[4.0]], 200_000, RngStream(6, 1))
    assert res.empirical_kolmogorov == pytest.approx(exact, abs=0.02)


def test_gauss_compare_monotone_in_gap():
    dists = []
    for scale in (1.05, 1.1, 1.2):
        res = gauss_compare_distance(np.eye(5), scale * np.eye(5), 150_000,
                                     RngStream(6, 2))  # common random numbers
        dists.append(res.empirical_kolmogorov)
    assert dists[0] <= dists[1] <= dists[2]


def test_gauss_compare_symmetric():
    a = gauss_compare_distance(np.eye(4), 1.3 * np.eye(4), 60_000, RngStream(6, 3))
    b = gauss_compare_distance(1.3 * np.eye(4), np.eye(4), 60_000, RngStream(6, 4))
    dkw = np.sqrt(np.log(2 / 0.01) / (2 * 60_000))
    assert abs(a.empirical_kolmogorov - b.empirical_kolmogorov) <= 2 * dkw + 0.01


def test_gar_gaussian_summands_have_no_gap():
    out = gar_scaling_check("gauss", 3, [50, 200], 60_000, RngStream(7, 0))
    dkw = np.sqrt(np.log(2 / 0.01) / (2 * 60_000))
    for _, dist in out:
        assert dist <= 2.5 * dkw


def test_gar_distance_decays():
    out = gar_scaling_check("uniform_cube", 3, [50, 400], 60_000, RngStream(7, 1))
    assert out[1][1] < out[0][1]


def test_gar_validates_inputs():
    with pytest.raises(ValueError):
        gar_scaling_check("uniform_cube", 3, [100], 1000, RngStream(7, 2))
    with pytest.raises(ValueError):
        gar_scaling_check("unknown", 3, [10, 20], 1000, RngStream(7, 3))


@pytest.mark.parametrize("law", SUMMAND_LAWS)
def test_summand_sums_do_not_depend_on_the_draw_budget(monkeypatch, law):
    # a chunk of one draw, of 7 draws (the last one short), and one chunk
    # for all of them
    def sums():
        return _draw_summand_sums(law, 3, 37, 50, RngStream(7, 4).generator()).tobytes()

    expected = sums()
    for budget in (1, 8 * 37 * 3 * 7, 1 << 40):
        monkeypatch.setattr(basis, "DRAW_BUDGET", budget)
        assert sums() == expected


def test_gar_memory_is_bounded_in_reps():
    # the draws are held a chunk at a time, not in blocks of 2e7 summands
    # (465 MB traced at n = 400 and 100 000 reps with those blocks)
    tracemalloc.start()
    try:
        gar_scaling_check("rademacher_product", 3, [50, 400], 20_000, RngStream(7, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * basis.DRAW_BUDGET


def test_fsc_design_trivial_cases():
    d_zero = GeneralDesign(eta=np.zeros((1, 10, 2)), zk=np.zeros((1, 10)), penalty=1.0)
    rep = fsc_design_check(d_zero)
    assert rep.design_ok
    assert rep.design_sup == 0.0

    eta = np.zeros((1, 3, 2))
    eta[0, 0] = [1e6, 0.0]
    d_spike = GeneralDesign(eta=eta, zk=np.ones((1, 3)), penalty=1.0)
    rep = fsc_design_check(d_spike)
    assert not rep.design_ok
    assert rep.design_sup > 0.9

    d_singular = GeneralDesign(eta=np.zeros((1, 10, 2)), zk=np.ones((1, 10)), penalty=0.0)
    rep = fsc_design_check(d_singular)
    assert not rep.design_ok
    assert rep.design_sup == np.inf


@pytest.mark.parametrize("seed", range(4))
def test_fsc_design_numerically_singular_benchmark_design(seed):
    # n = 8, q = 5 repeats cosine rows: the normal matrix's smallest
    # eigenvalue is rounding noise against its top one, so it fails the
    # positive-definiteness rule of quasilik._inv_sqrt_psd; the check
    # reports that instead of a finite design_sup, and never raises
    gen = RngStream(seed, 0).generator()
    z = cosine_design(8, 5)
    sample = IvSample(y1=gen.standard_normal(8), y2=gen.standard_normal(8), z=z,
                      truth=SampleTruth(beta_star=1.0, pi_star=np.ones(5)))
    rep = fsc_design_check(benchmark_design(sample))
    assert rep.design_sup == np.inf
    assert not rep.design_ok


def test_fsc_report_on_generated_design(gen):
    d = random_cosine_design(200, gen, penalty=1.0)
    rep = fsc_design_check(d)
    payload = rep.to_dict()
    assert np.isfinite(payload["design_sup"])
    assert np.isfinite(payload["identifiability_lhs"])
    assert np.isfinite(payload["max_std_residual"])
    assert set(payload["log_mgf"]) == {"0.2", "0.5", "1.0"}
