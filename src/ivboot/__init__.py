"""Bootstrap likelihood-ratio testing for instrumental-variables regression:
identification tools, the penalized quasi-likelihood with its multiplier
bootstrap, benchmark tests, a Monte Carlo power harness, and finite-sample
diagnostics."""

from .basis import (
    GeneralDesign,
    IvSample,
    RngStream,
    SampleTruth,
    cosine_design,
)
from .identify import (
    IdentificationError,
    InfeasibleSystemError,
    MomentSystem,
    RankReport,
    StrengthReport,
    min_norm_solution,
    nonparam_bias_tail,
    rank_classify,
    single_iv_solution,
    strength_classify,
)
from .quasilik import (
    ScoreDecomposition,
    SingularDesignError,
    SingularNuisanceError,
    loglik,
    mle,
    restricted_mle,
    score_decomposition,
    t_lr,
    wilks_gap,
)
from .bootstrap import (
    BootstrapAbortError,
    BootstrapRun,
    RetryDrawError,
    TestOutcome,
    blr_test,
    boot_quantile,
    boot_wilks_gap,
    t_blr,
)
from .benchmark import (
    ams_blr_statistic,
    ams_lr_statistic,
    ams_profile_loglik,
    clr_critical,
    profile_sup,
)
from .simgen import ErrorSpec, SimConfig, gen_errors, gen_pi, gen_sample
from .harness import (
    ComparisonReport,
    PowerTable,
    compare_to_reference,
    load_reference_table,
    power_curve,
    reproduce_table,
    table_config,
)
from .diagnostics import (
    DeviationParams,
    FscReport,
    GaussCompareResult,
    bernstein_bound,
    empirical_opnorm_tail,
    fsc_design_check,
    gar_scaling_check,
    gauss_compare_distance,
    z_branch_continuity,
    z_function,
)

__version__ = "0.1.0"
