"""Monte Carlo power-study driver: rejection frequencies of the LR, BLR,
CLR, AR, and LM tests over a grid of hypothesized values, plus regression
comparison against the embedded reference tables."""

from __future__ import annotations

import csv
import functools
import io
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .basis import RngStream, chunk_rows, cosine_design
from .benchmark import (_top_eigvec_2x2, ar_from, blr_values, chi2_ppf, clr_critical_values,
                        gram_root, lm_from, profile_features, profile_from_sums, st_quadratics,
                        tclr_from)
from .bootstrap import empirical_upper_quantile, multiplier_bootstrap, sum_law
from .simgen import ErrorSpec, SimConfig, _gen_errors_batch, gen_pi

TEST_NAMES = ("LR", "BLR", "CLR", "AR", "LM")
GATED_TESTS = ("LR", "BLR", "CLR")  # the columns compare_to_reference's verdict uses
CSV_HEADER = ("offset",) + TEST_NAMES

# stream roles: every stream of a power curve has the spawn key (role, unit)
_SAMPLE, _NULL = 0, 1
# Replications per unit of parallel work.  Fixed, because units key the
# sample streams and the bootstrap normals that a unit's replications share;
# small, so that a few hundred replications still keep every worker busy.
# A unit holds one boot_reps x 25 block of normals (at q = 5), each draw's
# inverse Gram factor (boot_reps x 25 doubles) and forms its bootstrap sums a
# chunk at a time (see bootstrap.multiplier_bootstrap); its features
# (_UNIT x n x 25 doubles) and bootstrap values (_UNIT x boot_reps doubles)
# are held whole.
_UNIT = 25
# Null simulations per error-draw block of the LR null.  Fixed, because
# blocks key the null streams; small, so that the null is many tasks, which
# the pool runs among the replication units.
_NULL_BLOCK = 250

N_NULL_SIMS = 10_000
_N_BLOCKS = N_NULL_SIMS // _NULL_BLOCK  # a whole number of blocks
# Doubles that the decisions at one grid value hold per replication: the
# grid's decisions run on chunks of chunk_rows(8 * 16 * reps) grid values.
_DECISION_ROW_DOUBLES = 16

# Data-generating parameters reproducing the embedded reference tables.
# The nominal experiment descriptions (n=200, q=5, concentration ratio 4
# vs 2.56, identity covariance) do not regenerate the reference numbers;
# these calibrated values do.  ``concentration`` equals n * (pi' Z Z' pi), i.e.
# the c of the c/n convention; ``omega`` is the actual error covariance of
# the generator while every statistic still assumes the identity.
TABLE_SPECS = {
    1: dict(kind="gauss", lam=221.4368, beta_star=1.0118, w1=1.7569, w2=0.3042,
            grid=np.round(np.arange(0.48, 1.77, 0.08), 2), lr_oracle="dgp"),
    2: dict(kind="laplace", lam=149.2166, beta_star=0.9986, w1=1.7981, w2=0.3162,
            grid=np.round(np.arange(0.02, 2.27, 0.14), 2), lr_oracle="nominal"),
    3: dict(kind="hetero_linear", lam=138.4373, beta_star=1.0638, w1=1.4181, w2=0.7461,
            grid=np.round(np.arange(-0.26, 2.41, 0.14), 2), lr_oracle="nominal"),
    4: dict(kind="hetero_periodic", lam=146.9124, beta_star=1.0505, w1=1.7232, w2=0.5128,
            grid=np.round(np.arange(0.16, 2.41, 0.14), 2), lr_oracle="dgp"),
}

_TABLE_SEED = 20_260_801


@dataclass(frozen=True)
class PowerTable:
    """Rejection frequencies per test over the hypothesis grid."""

    grid: np.ndarray
    rows: dict
    config: SimConfig
    reps_used: int
    blr_redraws: int = 0  # bootstrap draws redrawn over all replications

    def column(self, name: str) -> np.ndarray:
        return self.rows[name]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for i, v in enumerate(self.grid):
            w.writerow([f"{v:g}"] + [f"{self.rows[t][i]:.6f}" for t in TEST_NAMES])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "grid": [float(v) for v in self.grid],
            "rows": {t: [float(x) for x in self.rows[t]] for t in TEST_NAMES},
            "counts": {t: [int(round(x * self.reps_used)) for x in self.rows[t]]
                       for t in TEST_NAMES},
            "reps_used": self.reps_used,
            "blr_redraws": self.blr_redraws,
            "config": _config_dict(self.config),
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Per-cell deviations from a reference table and threshold verdicts."""

    reference_id: int
    grid: np.ndarray
    diffs: dict
    frac_within_008: float
    frac_within_015: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "reference_id": self.reference_id,
            "grid": [float(v) for v in self.grid],
            "diffs": {t: [float(x) for x in d] for t, d in self.diffs.items()},
            "gated_tests": list(GATED_TESTS),
            "frac_within_008": self.frac_within_008,
            "frac_within_015": self.frac_within_015,
            "passed": self.passed,
        }


def _config_dict(config: SimConfig) -> dict:
    return {
        "n": config.n, "q": config.q, "concentration": config.concentration,
        "beta_star": config.beta_star, "error_kind": config.error.kind,
        "error_omega": [[float(x) for x in row] for row in config.error.omega],
        "beta_grid": list(config.beta_grid), "reps": config.reps,
        "boot_reps": config.boot_reps, "alpha": config.alpha,
        "master_seed": config.master_seed,
    }


def table_config(reference_id: int, reps: int = 1000, boot_reps: int = 1000,
                 master_seed=None, alpha: float = 0.05) -> SimConfig:
    """Calibrated simulation config reproducing one of the reference tables."""
    if reference_id not in TABLE_SPECS:
        raise ValueError(f"reference_id must be one of {sorted(TABLE_SPECS)}, got {reference_id}")
    spec = TABLE_SPECS[reference_id]
    n = 200
    if master_seed is None:
        master_seed = _TABLE_SEED + reference_id
    return SimConfig(
        n=n, q=5,
        concentration=n * spec["lam"],
        beta_star=spec["beta_star"],
        error=ErrorSpec(kind=spec["kind"], omega=np.diag([spec["w1"], spec["w2"]])),
        beta_grid=tuple(spec["grid"]),
        reps=reps, boot_reps=boot_reps, alpha=alpha, master_seed=master_seed,
    )


def load_reference_table(reference_id: int):
    """Grid and columns of an embedded reference table."""
    name = f"table{reference_id}.csv"
    with resources.files("ivboot.fixtures").joinpath(name).open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [list(map(float, r)) for r in reader]
    arr = np.array(rows)
    cols = {h: arr[:, k] for k, h in enumerate(header)}
    return arr[:, 0], {t: cols[t] for t in TEST_NAMES}


def max_threads() -> int:
    """The worker count of power_curve: IVBOOT_THREADS, a positive integer,
    or when it is unset or empty the number of CPUs this process may run on
    (its affinity mask where the platform has one), at most 4."""
    env = os.environ.get("IVBOOT_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return min(4, len(os.sched_getaffinity(0)))
        return min(4, os.cpu_count() or 1)
    if not (env.isascii() and env.isdigit()) or int(env) < 1:
        raise ValueError(f"IVBOOT_THREADS must be a positive integer, got {env!r}")
    return int(env)


class _Engine:
    """Precomputed immutable state shared by all replication units."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.z = cosine_design(config.n, config.q)
        self.pi = gen_pi(self.z, config.concentration)
        self.x = self.z.T @ self.pi
        self.root = gram_root((self.z @ self.z.T)[np.triu_indices(config.q)][None], config.q)

    def quadratics(self, w):
        """q11, q12, q22 of the 2x2 profile matrix H per replication, from
        its W row (Z y1, Z y2), one row (R, 2q) per replication: the
        profile_from_sums of unit weights on the one gram_root of Z Z', so
        a row's values do not depend on the rows that share the call."""
        *h, _ = profile_from_sums(w[:, None], self.config.q, self.root)
        return tuple(x[:, 0] for x in h)


def _blr_quantiles(engine: _Engine, y1, y2, q11, q12, q22, gen):
    """Per-replication bootstrap critical values of the profile LR statistic,
    and the number of draws redrawn.

    The statistic is ``blr_values`` at the replication's full-sample profile
    maximizer, the top eigenvector of (q11, q12, q22); its quantile is on
    the t_clr scale, so t_clr > quantile is exactly the J + z*sqrt(J)
    rule.  A draw sees its N(1, 1) weights only through its sums over
    ``profile_features``, which bootstrap.multiplier_bootstrap draws, one
    bootstrap per replication, all from one shared (boot_reps, k) block of
    normals: each replication's bootstrap has its own law, and the
    replications of a call are common random numbers.  The weighted Gram
    part of a draw's sums comes from the instruments alone, so it is the
    same for every replication: it is factored once per draw for all of
    them (benchmark.gram_root, the kernel's ``shared`` part), and each
    replication's W sums meet that factor in stacked products whose
    values do not depend on how many replications share it.  So a draw
    that fails for one fails for all, each replication redraws it on its
    own, and a replication's critical value is that of its bootstrap
    alone, bit for bit.
    """
    J = engine.config.q
    _, vx, vy = _top_eigvec_2x2(q11, q12, q22)
    values, redraws = multiplier_bootstrap(
        sum_law(profile_features(engine.z, y1, y2)), engine.config.boot_reps,
        lambda sums, r, root: blr_values(sums, J, vx[r, None], vy[r, None], root), gen,
        shared=lambda sums: gram_root(sums, J))
    return empirical_upper_quantile(values, engine.config.alpha), redraws


def _stream(config: SimConfig, role: int, unit: int) -> np.random.Generator:
    return RngStream(config.master_seed, (role, unit)).generator()


def _replications(engine: _Engine, y1, y2, gen):
    """The profile quadratics q11, q12, q22 and the bootstrap critical value
    of replications with outcomes y1, y2 (one row each), and the number of
    bootstrap draws redrawn; the bootstrap draws from ``gen``.  None of them
    depends on the hypothesized value, so they serve a whole grid."""
    q11, q12, q22 = engine.quadratics(np.concatenate([y1 @ engine.z.T, y2 @ engine.z.T], -1))
    blr_crit, redraws = _blr_quantiles(engine, y1, y2, q11, q12, q22, gen)
    return q11, q12, q22, blr_crit, redraws


def _sample_unit(engine: _Engine, unit: int):
    """_replications of one unit of samples drawn at the configured truth
    from stream (_SAMPLE, unit), which the unit's bootstrap then continues."""
    cfg = engine.config
    reps_here = min(_UNIT, cfg.reps - unit * _UNIT)
    gen = _stream(cfg, _SAMPLE, unit)
    eps = _gen_errors_batch(cfg.error, cfg.n, reps_here, gen)
    return _replications(engine, cfg.beta_star * engine.x[None, :] + eps[:, :, 0],
                         engine.x[None, :] + eps[:, :, 1], gen)


def _null_block(engine: _Engine, law: ErrorSpec, block: int):
    """W rows (Z e1, Z e2), one of 2q per sample, of block ``block`` of the
    LR null: its _NULL_BLOCK null samples under ``law``, drawn from stream
    (_NULL, block).  The stream is walked in chunks of chunk_rows(16 n)
    samples, and each chunk is projected as it is drawn, one (q, n) x (n, 2)
    product per sample: a sample's product does not depend on how many
    samples share its chunk, so the projections do not depend on
    basis.DRAW_BUDGET.  A block holds one chunk of draws and its
    (_NULL_BLOCK, q, 2) projections, laid out as W rows at the end.
    """
    cfg = engine.config
    gen = _stream(cfg, _NULL, block)
    step = chunk_rows(16 * cfg.n)
    proj = np.concatenate([
        np.matmul(engine.z, _gen_errors_batch(law, cfg.n, min(step, _NULL_BLOCK - a), gen))
        for a in range(0, _NULL_BLOCK, step)])
    return proj.transpose(0, 2, 1).reshape(_NULL_BLOCK, -1)


def _lr_quantiles(engine: _Engine, grid, w) -> np.ndarray:
    """Oracle critical value at each hypothesized value v of ``grid``: the
    upper alpha quantile of t_clr over the null samples with W rows ``w``
    = (Z e1, Z e2) (one row each).

    The data at v project to v Z x + Z e1 and Z x + Z e2.  So with G the
    inverse Gram, k = x'Z'G Z x, b_i = x'Z'G Z e_i and a_ij = e_i'Z'G Z e_j,
    the profile quadratics are q11 = v^2 k + 2 v b1 + a11,
    q12 = v (k + b2) + b1 + a12 and q22 = k + 2 b2 + a22: the moments are
    taken once, and a grid value costs only elementwise work.  The
    numerator v^2 q11 of the null's T'T grows like v^4: a v where it
    overflows (|v| above about 3e76) raises ValueError.
    """
    q, cinv = engine.config.q, engine.root[0][0]
    zx = engine.z @ engine.x
    gx = cinv @ (zx @ cinv)
    k = zx @ gx
    b1, b2 = w[:, :q] @ gx, w[:, q:] @ gx
    a11, a12, a22 = engine.quadratics(w)
    kb2, q22 = k + b2, k + 2 * b2 + a22
    crit = np.empty(len(grid))
    for i, v in enumerate(grid):
        with np.errstate(over="ignore", invalid="ignore"):
            q11 = v * v * k + 2 * v * b1 + a11
            q12 = v * kb2 + b1 + a12
            ss, tt, st = st_quadratics(q11, q12, q22, v)
        if not np.isfinite(tt).all():
            raise ValueError(f"beta0 = {v:g} is too large: the T'T of its LR null "
                             "simulations overflows")
        crit[i] = empirical_upper_quantile(tclr_from(ss, tt, st), engine.config.alpha)
    return crit


def _lr_critical(engine: _Engine, grid, law: ErrorSpec) -> np.ndarray:
    """Oracle critical value at each hypothesized value v of ``grid``: the
    upper alpha quantile of t_clr over N_NULL_SIMS null samples at beta = v
    under ``law``.  The LR null of oracle_lr_critical: a _pool_round with
    no replication units, then _lr_quantiles, as in power_curve."""
    _, w = _pool_round(engine, law, 0)
    return _lr_quantiles(engine, grid, w)


def _clr_critical_curve(tt: np.ndarray, q: int, alpha: float) -> np.ndarray:
    """Conditional critical value of each replication's t_clr given its
    ||T||^2: the CLR layer of the power curve."""
    return clr_critical_values(tt, q, alpha)


def oracle_lr_critical(config: SimConfig, beta0: float) -> float:
    """Critical value of the profile LR statistic from null simulations:
    data at beta = beta0 under the configured error law.  This is the LR
    null of power_curve, its blocks run by the same pool round, with a
    grid of one, so it equals the power curve's critical value at beta0
    at any thread count."""
    return float(_lr_critical(_Engine(config), (beta0,), config.error)[0])


@functools.cache
def _openblas_set_num_threads_local():
    """OpenBLAS's setter of the calling thread's BLAS thread count, found
    through numpy's own module, or None when numpy's BLAS lacks it."""
    import ctypes
    try:
        fn = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
    return fn


def _one_blas_thread():
    """Pool initializer: the worker's BLAS calls run on one thread, so the
    workers do not compete with OpenBLAS's own threads for the cores."""
    set_local = _openblas_set_num_threads_local()
    if set_local is not None:
        set_local(1)


@functools.cache
def _pool(n_threads: int, pid: int) -> ThreadPoolExecutor:
    """The worker pool of _pool_round for ``n_threads`` workers, kept for
    the life of process ``pid`` (a forked child builds its own).  A pool per
    call would start new threads on every call, and glibc gives a thread
    that starts while a joined worker is still exiting a new malloc arena;
    each such arena keeps freed arrays resident, so a process's peak RSS
    would step up at random over its calls.  The step was about 13 MB when
    each draw was one block; glibc keeps up to about twice the largest
    freed array at an arena's top, and the draws now free arrays of about
    1 MB at n = 200 (a chunk of draws).  Its tasks are the replication
    units and the LR null's blocks; they keep no state on the workers."""
    initializer = _one_blas_thread if n_threads > 1 else None
    return ThreadPoolExecutor(max_workers=n_threads, initializer=initializer)


def _pool_round(engine: _Engine, law: ErrorSpec, n_units: int):
    """The work of a power curve that draws random numbers: replication
    units 0, ..., n_units - 1 (_sample_unit) and the LR null's _N_BLOCKS
    blocks under ``law`` (_null_block), run as one list of tasks on the
    max_threads() workers of ``_pool``, the units spread evenly among the
    blocks.  A block spends most of its time in draws and a unit in the
    stacked products of its statistic, both of which release the
    interpreter lock, so units overlap with blocks and with each other.
    Every task has ended when this returns, also when one fails.  Returns
    the units' results in unit order and the blocks' W rows (Z e1, Z e2),
    concatenated in block order."""
    ex = _pool(max_threads(), os.getpid())
    # unit u at u / n_units and block b at b / _N_BLOCKS, a unit first on a tie
    order = sorted([(u * _N_BLOCKS, _SAMPLE, u) for u in range(n_units)]
                   + [(b * n_units, _NULL, b) for b in range(_N_BLOCKS)])
    futs = {(role, i): ex.submit(_sample_unit, engine, i) if role == _SAMPLE
            else ex.submit(_null_block, engine, law, i) for _, role, i in order}
    try:
        units = [futs[_SAMPLE, u].result() for u in range(n_units)]
        null = [futs[_NULL, b].result() for b in range(_N_BLOCKS)]
    finally:
        wait(futs.values())  # no task of this round outlives it
    return units, np.concatenate(null)


def power_curve(config: SimConfig, lr_oracle_error=None) -> PowerTable:
    """Rejection frequencies of all five tests over the hypothesis grid.

    ``config.reps`` samples are drawn once at the configured truth, each
    with its bootstrap, and every grid value is tested on the same samples
    (common random numbers); likewise the LR null simulations are drawn
    once and shared by all grid values, and each CLR critical value is a
    function of its replication's T'T alone.  So the row of a grid value
    depends only on the config and that value, not on the rest of the grid.
    Every stream is keyed by (role, unit) and replication units have a
    fixed size, so results are identical for any thread count.
    The replication units and the LR null's blocks run in one _pool_round.
    Once all have ended, the caller takes the LR critical values from the
    blocks' projections (_lr_quantiles), one grid value at a time, and
    runs the grid's decisions (_decisions) on chunks of grid values: one
    CLR curve evaluation per chunk, each chunk's arrays about
    basis.DRAW_BUDGET bytes whatever ``config.reps``.
    With more than one worker, each worker's BLAS runs on one thread.
    ``lr_oracle_error`` overrides the error law of the LR null simulations;
    calibrating against the nominal unit-covariance law instead of the
    configured one reproduces reference runs whose oracle ignored the
    covariance imbalance of the generator.
    """
    engine = _Engine(config)
    law = lr_oracle_error if lr_oracle_error is not None else config.error
    n_units = (config.reps + _UNIT - 1) // _UNIT
    units, w = _pool_round(engine, law, n_units)
    *sample, redraws = zip(*units)
    lr_crit = _lr_quantiles(engine, config.beta_grid, w)
    sample = [np.concatenate(p) for p in sample]
    grid = np.array(config.beta_grid)
    step = chunk_rows(_DECISION_ROW_DOUBLES * 8 * config.reps)
    rates = np.concatenate([_grid_rates(engine, sample, grid[a:a + step], lr_crit[a:a + step])
                            for a in range(0, len(grid), step)], axis=1)
    return PowerTable(grid=grid, rows=dict(zip(TEST_NAMES, rates)), config=config,
                      reps_used=config.reps, blr_redraws=sum(redraws))


def _decisions(engine: _Engine, sample, grid, lr_crit):
    """The five tests of H0: beta = v at each value v of ``grid`` on
    replications sample = (q11, q12, q22, blr_crit) of _replications, with
    LR critical values ``lr_crit``, one per grid value: the (statistic,
    critical value) pair of each test, in TEST_NAMES order, and T'T.  Each
    array has a row per grid value and an entry per replication, or
    broadcasts against that; a scalar v and lr_crit (a grid of one, as in
    ``ivboot test``) give no grid axis.  Every step is elementwise, so a
    value's decisions do not depend on the rest of the grid.  A test
    rejects where its statistic exceeds its critical value."""
    cfg = engine.config
    v = np.asarray(grid, dtype=float)[..., None]
    q11, q12, q22, blr_crit = sample
    ss, tt, st = st_quadratics(q11, q12, q22, v)
    tclr = tclr_from(ss, tt, st)
    return ((tclr, np.asarray(lr_crit)[..., None]),
            (tclr, blr_crit),
            (tclr, _clr_critical_curve(tt, cfg.q, cfg.alpha)),
            (ar_from(ss, cfg.q), chi2_ppf(1 - cfg.alpha, cfg.q) / cfg.q),
            (lm_from(tt, st), chi2_ppf(1 - cfg.alpha, 1))), tt


def _grid_rates(engine: _Engine, sample, grid, lr_crit):
    """Rejection rates of the five tests of H0: beta = v at each value v of
    ``grid``, one row per test in TEST_NAMES order, on the shared samples
    of power_curve (see _decisions)."""
    pairs, _ = _decisions(engine, sample, grid, lr_crit)
    return np.array([np.mean(stat > crit, axis=-1) for stat, crit in pairs])


def compare_to_reference(table: PowerTable, reference_id: int) -> ComparisonReport:
    """Cell-by-cell comparison against an embedded reference table.

    The pass verdict uses the GATED_TESTS columns: at least 90% of those
    cells within 0.08 absolute and all of them within 0.15.
    """
    grid_ref, cols_ref = load_reference_table(reference_id)
    if table.grid.size != grid_ref.size or not np.allclose(table.grid, grid_ref, atol=1e-9):
        raise ValueError(
            f"config mismatch: table grid does not match reference {reference_id}"
        )
    diffs = {t: np.abs(table.rows[t] - cols_ref[t]) for t in TEST_NAMES}
    gated = np.concatenate([diffs[t] for t in GATED_TESTS])
    frac08 = float(np.mean(gated <= 0.08))
    frac15 = float(np.mean(gated <= 0.15))
    return ComparisonReport(
        reference_id=reference_id, grid=grid_ref, diffs=diffs,
        frac_within_008=frac08, frac_within_015=frac15,
        passed=bool(frac08 >= 0.90 and frac15 == 1.0),
    )


def reproduce_table(reference_id: int, reps: int = 1000, boot_reps: int = 1000,
                    master_seed=None, alpha: float = 0.05):
    """Run the calibrated config of a reference table and compare."""
    cfg = table_config(reference_id, reps=reps, boot_reps=boot_reps,
                       master_seed=master_seed, alpha=alpha)
    oracle = None
    if TABLE_SPECS[reference_id]["lr_oracle"] == "nominal":
        oracle = ErrorSpec(kind=cfg.error.kind, omega=np.eye(2))
    table = power_curve(cfg, lr_oracle_error=oracle)
    report = compare_to_reference(table, reference_id)
    return table, report
