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

from .basis import RngStream, cosine_design
from .benchmark import (_top_eigvec_2x2, ar_from, chi2_ppf, clr_critical_values, lm_from,
                        st_quadratics, tclr_from)
from .bootstrap import empirical_upper_quantile, multiplier_bootstrap, sum_law
from .quasilik import packed_cholesky_solve
from .simgen import ErrorSpec, SimConfig, _gen_errors_batch, gen_pi

TEST_NAMES = ("LR", "BLR", "CLR", "AR", "LM")
CSV_HEADER = ("offset",) + TEST_NAMES

# stream roles: every stream of a power curve has the spawn key (role, unit)
_SAMPLE, _NULL = 0, 1
# Replications per unit of parallel work.  Fixed, because units key the
# sample streams; small, so that a few hundred replications still keep every
# worker busy.  A unit's bootstrap sums (_UNIT x boot_reps x 25 doubles at
# q = 5) are its largest array.
_UNIT = 25
_NULL_BLOCK = 2500  # null simulations per error-draw block

N_NULL_SIMS = 10_000

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
    gated_tests: tuple = ("LR", "BLR", "CLR")

    def to_dict(self) -> dict:
        return {
            "reference_id": self.reference_id,
            "grid": [float(v) for v in self.grid],
            "diffs": {t: [float(x) for x in d] for t, d in self.diffs.items()},
            "gated_tests": list(self.gated_tests),
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
    env = os.environ.get("IVBOOT_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


class _Engine:
    """Precomputed immutable state shared by all replication units."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.z = cosine_design(config.n, config.q)
        self.pi = gen_pi(self.z, config.concentration)
        self.x = self.z.T @ self.pi
        gram = self.z @ self.z.T
        self.gram_inv = np.linalg.inv(gram)
        # upper-triangle feature matrix for one-dgemm weighted Gram builds
        iu = np.triu_indices(self.z.shape[0])
        self.features = (self.z[iu[0]] * self.z[iu[1]])  # (J(J+1)/2, n)

    def sum_features(self, y1, y2):
        """F = [features' | y1 Z' | y2 Z'] per replication, shape (R, n, d)
        with d = J(J+1)/2 + 2J (25 at J = 5): a weight vector u enters the
        weighted profile only through its d sums F'u."""
        R, n = y1.shape
        return np.concatenate([np.broadcast_to(self.features.T, (R, n, self.features.shape[0])),
                               y1[:, :, None] * self.z.T, y2[:, :, None] * self.z.T], axis=2)

    def quadratics(self, ZY1, ZY2):
        """q11, q12, q22 of the 2x2 profile matrix H per replication, from
        the instrument projections Z y1, Z y2 (one row per replication)."""
        G1 = ZY1 @ self.gram_inv
        q11 = np.einsum("rj,rj->r", G1, ZY1)
        q12 = np.einsum("rj,rj->r", G1, ZY2)
        q22 = np.einsum("rj,rj->r", ZY2 @ self.gram_inv, ZY2)
        return q11, q12, q22


def _profile_from_sums(engine: _Engine, sums):
    """Weighted 2x2 profile matrices from sums (..., d), with a verdict per
    row.

    The sums hold the packed upper triangle of G = Z diag(u) Z', then
    W = Z diag(u) (y1, y2).  hb = W' G^{-1} W = A'A with A = C'^{-1} W from
    the Cholesky factor G = C'C of ``quasilik.packed_cholesky_solve``.  The
    verdict says whether G is positive definite.  The hb of a row that
    fails is finite but meaningless.  Returns hb11, hb12, hb22 and the
    verdict, each shaped sums.shape[:-1].
    """
    J = engine.config.q
    n_gram = J * (J + 1) // 2
    flat = sums.reshape(-1, n_gram + 2 * J)
    a, pd = packed_cholesky_solve(flat[:, :n_gram], flat[:, n_gram:].reshape(-1, 2, J))
    hb11 = np.einsum("mj,mj->m", a[:, 0], a[:, 0])
    hb12 = np.einsum("mj,mj->m", a[:, 0], a[:, 1])
    hb22 = np.einsum("mj,mj->m", a[:, 1], a[:, 1])
    return tuple(x.reshape(sums.shape[:-1]) for x in (hb11, hb12, hb22, pd))


def _blr_values(engine: _Engine, sums, q11, q12, q22):
    """Bootstrap statistics of sum rows (R, B, d), and their verdicts.

    The statistic fixes beta at replication r's full-sample profile
    maximizer (top eigenvector of its unweighted 2x2 profile matrix, from
    q11[r], q12[r], q22[r]) and reoptimizes the nuisance coefficients under
    the weighted objective: 2 (top eigenvalue of hb - hb at that direction).
    """
    _, vx, vy = _top_eigvec_2x2(q11, q12, q22)
    hb11, hb12, hb22, pd = _profile_from_sums(engine, sums)
    lmax_b, _, _ = _top_eigvec_2x2(hb11, hb12, hb22)
    vxr = vx[:, None]
    vyr = vy[:, None]
    gb = vxr * vxr * hb11 + 2 * vxr * vyr * hb12 + vyr * vyr * hb22
    return 2.0 * (lmax_b - gb), pd


def _blr_quantiles(engine: _Engine, y1, y2, q11, q12, q22, gen):
    """Per-replication bootstrap critical values of the profile LR statistic,
    and the number of draws redrawn.

    The quantile of ``_blr_values`` is on the same scale as the t_clr
    statistic, so the decision t_clr > quantile is exactly the
    J + z*sqrt(J) threshold rule.  A draw sees its N(1, 1) weights only
    through its d sums, which bootstrap.multiplier_bootstrap draws, one
    bootstrap per replication, in a first block of (R, boot_reps, k)
    normals; so callers pass at most one unit of replications.
    """
    values, redraws = multiplier_bootstrap(
        sum_law(engine.sum_features(y1, y2)), engine.config.boot_reps,
        lambda sums, r: _blr_values(engine, sums, q11[r], q12[r], q22[r]), gen)
    return empirical_upper_quantile(values, engine.config.alpha), redraws


def _stream(config: SimConfig, role: int, unit: int) -> np.random.Generator:
    return RngStream(config.master_seed, (role, unit)).generator()


def _sample_unit(engine: _Engine, unit: int):
    """Simulate one unit of replications at the configured truth.

    Returns the profile quadratics q11, q12, q22 and the bootstrap critical
    value of each replication, and the unit's number of bootstrap redraws;
    none of them depends on the hypothesized value, so one unit serves the
    whole grid.
    """
    cfg = engine.config
    reps_here = min(_UNIT, cfg.reps - unit * _UNIT)
    gen = _stream(cfg, _SAMPLE, unit)
    eps = _gen_errors_batch(cfg.error, cfg.n, reps_here, gen)
    y1 = cfg.beta_star * engine.x[None, :] + eps[:, :, 0]
    y2 = engine.x[None, :] + eps[:, :, 1]
    q11, q12, q22 = engine.quadratics(y1 @ engine.z.T, y2 @ engine.z.T)
    blr_crit, redraws = _blr_quantiles(engine, y1, y2, q11, q12, q22, gen)
    return q11, q12, q22, blr_crit, redraws


def _lr_critical(engine: _Engine, grid, law: ErrorSpec,
                 n_sims: int = N_NULL_SIMS) -> np.ndarray:
    """Oracle critical value at each hypothesized value v of ``grid``: the
    upper alpha quantile of t_clr over n_sims null samples drawn at beta = v.

    The null errors, under ``law``, are drawn once for the whole grid, in
    blocks with streams (_NULL, block), and kept only through their
    instrument projections Z e1, Z e2; the data at v then project to
    v Z x + Z e1 and Z x + Z e2.
    """
    cfg = engine.config
    ze1 = np.empty((n_sims, cfg.q))
    ze2 = np.empty((n_sims, cfg.q))
    for block, lo in enumerate(range(0, n_sims, _NULL_BLOCK)):
        m = min(_NULL_BLOCK, n_sims - lo)
        eps = _gen_errors_batch(law, cfg.n, m, _stream(cfg, _NULL, block))
        ze1[lo:lo + m] = eps[:, :, 0] @ engine.z.T
        ze2[lo:lo + m] = eps[:, :, 1] @ engine.z.T
    zx = engine.z @ engine.x
    crit = np.empty(len(grid))
    for i, v in enumerate(grid):
        q11, q12, q22 = engine.quadratics(v * zx + ze1, zx + ze2)
        crit[i] = empirical_upper_quantile(tclr_from(*st_quadratics(q11, q12, q22, v)),
                                           cfg.alpha)
    return crit


def _clr_critical_curve(tt: np.ndarray, q: int, alpha: float) -> np.ndarray:
    """Conditional critical value of each replication's t_clr given its
    ||T||^2: the CLR layer of the power curve."""
    return clr_critical_values(tt, q, alpha)


def oracle_lr_critical(config: SimConfig, beta0: float,
                       n_sims: int = N_NULL_SIMS) -> float:
    """Critical value of the profile LR statistic from null simulations:
    data at beta = beta0 under the configured error law.  This is the LR
    kernel of power_curve with a grid of one, so it equals the power
    curve's critical value at beta0."""
    return float(_lr_critical(_Engine(config), (beta0,), config.error, n_sims)[0])


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
    """The worker pool of power_curve for ``n_threads`` workers, kept for the
    life of process ``pid`` (a forked child builds its own).  A pool per
    call would start new threads on every call, and glibc gives a thread
    that starts while a joined worker is still exiting a new malloc arena;
    each such arena keeps about 13 MB of freed arrays resident, so a
    process's peak RSS would step up at random over its calls."""
    initializer = _one_blas_thread if n_threads > 1 else None
    return ThreadPoolExecutor(max_workers=n_threads, initializer=initializer)


def power_curve(config: SimConfig, n_threads=None, lr_oracle_error=None) -> PowerTable:
    """Rejection frequencies of all five tests over the hypothesis grid.

    ``config.reps`` samples are drawn once at the configured truth, each
    with its bootstrap, and every grid value is tested on the same samples
    (common random numbers); likewise the LR null simulations are drawn
    once and shared by all grid values, and each CLR critical value is a
    function of its replication's T'T alone.  So the row of a grid value
    depends only on the config and that value, not on the rest of the grid.
    Every stream is keyed by (role, unit) and replication units have a
    fixed size, so results are identical for any thread count.
    The workers are those of ``_pool``, and the call returns only once
    all of its tasks have ended.
    With more than one worker, each worker's BLAS runs on one thread.
    ``lr_oracle_error`` overrides the error law of the LR null simulations;
    calibrating against the nominal unit-covariance law instead of the
    configured one reproduces reference runs whose oracle ignored the
    covariance imbalance of the generator.
    """
    engine = _Engine(config)
    cfg = config
    if n_threads is None:
        n_threads = max_threads()
    law = lr_oracle_error if lr_oracle_error is not None else cfg.error
    n_units = (cfg.reps + _UNIT - 1) // _UNIT
    ex = _pool(n_threads, os.getpid())
    lr_fut = ex.submit(_lr_critical, engine, cfg.beta_grid, law)
    unit_futs = [ex.submit(_sample_unit, engine, u) for u in range(n_units)]
    futs = [lr_fut, *unit_futs]
    try:
        *sample, redraws = zip(*(f.result() for f in unit_futs))
        sample = [np.concatenate(p) for p in sample]
        ar_crit = chi2_ppf(1 - cfg.alpha, cfg.q) / cfg.q
        lm_crit = chi2_ppf(1 - cfg.alpha, 1)
        rates_fn = functools.partial(_grid_rates, engine, sample, ar_crit, lm_crit)
        rate_futs = [ex.submit(rates_fn, v, c) for v, c in zip(cfg.beta_grid, lr_fut.result())]
        futs += rate_futs
        rates = [f.result() for f in rate_futs]
    finally:
        wait(futs)  # no task of this call outlives it
    rows = {t: np.array([r[i] for r in rates]) for i, t in enumerate(TEST_NAMES)}
    return PowerTable(grid=np.array(cfg.beta_grid), rows=rows, config=cfg,
                      reps_used=cfg.reps, blr_redraws=sum(redraws))


def _grid_rates(engine: _Engine, sample, ar_crit: float, lm_crit: float, v: float,
                lr_crit: float):
    """Rejection rates of the five tests of H0: beta = v, in TEST_NAMES
    order, on the shared samples (q11, q12, q22, blr_crit) of power_curve,
    with the AR and LM critical values of the curve."""
    cfg = engine.config
    q11, q12, q22, blr_crit = sample
    ss, tt, st = st_quadratics(q11, q12, q22, v)
    tclr = tclr_from(ss, tt, st)
    return (np.mean(tclr > lr_crit),
            np.mean(tclr > blr_crit),
            np.mean(tclr > _clr_critical_curve(tt, cfg.q, cfg.alpha)),
            np.mean(ar_from(ss, cfg.q) > ar_crit),
            np.mean(lm_from(tt, st) > lm_crit))


def compare_to_reference(table: PowerTable, reference_id: int) -> ComparisonReport:
    """Cell-by-cell comparison against an embedded reference table.

    The pass verdict uses the LR/BLR/CLR columns: at least 90% of those
    cells within 0.08 absolute and all of them within 0.15.
    """
    grid_ref, cols_ref = load_reference_table(reference_id)
    if table.grid.size != grid_ref.size or not np.allclose(table.grid, grid_ref, atol=1e-9):
        raise ValueError(
            f"config mismatch: table grid does not match reference {reference_id}"
        )
    diffs = {t: np.abs(table.rows[t] - cols_ref[t]) for t in TEST_NAMES}
    gated = np.concatenate([diffs[t] for t in ("LR", "BLR", "CLR")])
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
