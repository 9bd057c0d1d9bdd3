"""Finite-sample diagnostics: deviation-function branches, Bernstein
domination, Gaussian comparison/approximation distances, and the design
condition report."""

import numpy as np

from ivboot import RngStream
from ivboot.diagnostics import (
    DeviationParams,
    bernstein_bound,
    empirical_opnorm_tail,
    fsc_design_check,
    gar_scaling_check,
    gauss_compare_distance,
    rademacher_spike_sampler,
    z_branch_continuity,
    z_function,
)
from ivboot.benchmark import benchmark_design
from ivboot.harness import table_config
from ivboot.simgen import gen_sample

# deviation-quantile function: sqrt branch, linear branch, upper branch
x2 = np.diag([1.0, 0.5, 0.25])
for x in (0.01, 0.5, 5.0, 200.0):
    print(f"z^2(x={x:6.2f}) = {z_function(DeviationParams(x=x, x2=x2, g=9.0)):9.3f}")
print("junction report:", z_branch_continuity(x2, 9.0))

# empirical operator-norm tails against the Bernstein bound
n, p = 100, 2
grid = np.array([10.0, 20.0, 30.0])
tails = empirical_opnorm_tail(rademacher_spike_sampler(n, p), grid, 50_000,
                              RngStream(1, 0))
for t, tail in zip(grid, tails):
    print(f"t={t:5.1f}  empirical {tail:.5f}  bound {min(1.0, bernstein_bound(t, n, 1.0, p)):.5f}")

# Gaussian comparison: distance grows with the covariance gap
for scale in (1.05, 1.2, 1.5):
    res = gauss_compare_distance(np.eye(5), scale * np.eye(5), 100_000, RngStream(1, 1))
    print(f"scale {scale:4.2f}: Kolmogorov {res.empirical_kolmogorov:.4f}, "
          f"bound factor {res.bound_factor:.3f}")

# Gaussian approximation: distance decays roughly like 1/sqrt(n)
for n_sum, dist in gar_scaling_check("rademacher_product", 3, [50, 200, 800],
                                     100_000, RngStream(1, 2)):
    print(f"n = {n_sum:4d}: distance {dist:.4f}")

# finite-sample conditions on a realized benchmark design
sample = gen_sample(table_config(1, reps=1, master_seed=5), rng=RngStream(5, 0))
report = fsc_design_check(benchmark_design(sample))
print("design condition:", report.design_sup, "->", "ok" if report.design_ok else "violated")
print("identifiability lhs vs penalty:", report.identifiability_lhs, report.penalty)
print("log-MGF probe:", report.log_mgf)
