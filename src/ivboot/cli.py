"""Command-line surface: dataset simulation, power studies, single-sample
testing, reference-table reproduction, and diagnostics, all deterministic
under a fixed seed."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import benchmark, diagnostics, harness, quasilik
from .basis import RngStream
from .bootstrap import BootstrapAbortError, TestOutcome
from .simgen import ERROR_KINDS, ErrorSpec, SimConfig, gen_sample


def _sim_settings(args) -> dict:
    """The SimConfig fields that the command line sets."""
    fields = {f.name for f in dataclasses.fields(SimConfig)}
    return {k: v for k, v in vars(args).items() if k in fields}


def _load_config(args) -> SimConfig:
    """The flags given, over the config file's settings, over the table-1
    calibration; a setting that none of them gives keeps its SimConfig
    default."""
    settings = {}
    if args.config is not None:
        with open(args.config) as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise ValueError(f"config {args.config} must be a JSON object")
    flags = _sim_settings(args)
    table1 = harness.TABLE_SPECS[1]
    try:
        error = settings.pop("error", {})
        if "error" in flags:
            error = {**error, "kind": flags.pop("error").replace("-", "_")}
        settings.update(flags)
        settings.setdefault("concentration", settings.get("n", SimConfig.n) * table1["lam"])
        settings.setdefault("beta_star", table1["beta_star"])
        settings.setdefault("beta_grid", tuple(table1["grid"]))
        return SimConfig(**settings, error=ErrorSpec(**error))
    except TypeError as exc:  # a key that is not a field, or a value of the wrong type
        raise ValueError(f"config {args.config}: {exc}") from None


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    sample = gen_sample(cfg, rng=cfg.rng())
    if args.format == "json":
        payload = {
            "y1": sample.y1.tolist(), "y2": sample.y2.tolist(),
            "z": sample.z.tolist(),
            "truth": {"beta_star": sample.truth.beta_star,
                      "pi_star": sample.truth.pi_star.tolist()},
            "config": harness._config_dict(cfg),
        }
        _emit(_json_text(payload), args.out)
        return 0
    lines = ["y1,y2," + ",".join(f"z{j + 1}" for j in range(cfg.q))]
    for i in range(cfg.n):
        zrow = ",".join(f"{sample.z[j, i]:.12g}" for j in range(cfg.q))
        lines.append(f"{sample.y1[i]:.12g},{sample.y2[i]:.12g},{zrow}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_power(args) -> int:
    cfg = _load_config(args)
    table = harness.power_curve(cfg)
    if args.format == "json":
        _emit(_json_text(table.to_dict()), args.out)
    else:
        _emit(table.to_csv_text(), args.out)
    return 0


def run_all_tests_once(config: SimConfig, beta0: float) -> list:
    """All five tests of H0: beta = beta0 on a single generated sample: the
    batch of one of harness.power_curve's replications and decisions, the
    sample drawn from stream 0 and its bootstrap from stream 1."""
    sample = gen_sample(config, rng=config.rng())
    engine = harness._Engine(config)
    q11, q12, q22, blr_crit, n_retries = harness._replications(
        engine, sample.y1[None], sample.y2[None], RngStream(config.master_seed, 1).generator())
    pairs, tt = harness._decisions(engine, (q11, q12, q22, blr_crit), beta0,
                                   harness.oracle_lr_critical(config, beta0))
    info = {"LR": {"n_null_sims": harness.N_NULL_SIMS},
            "BLR": {"n_boot": config.boot_reps, "n_retries": n_retries,
                    "z_star_alpha": (float(blr_crit[0]) - config.q) / np.sqrt(config.q)},
            "CLR": {"t_norm2": float(tt[0])}}
    outcomes = []
    for name, pair in zip(harness.TEST_NAMES, pairs):
        stat, crit = (float(np.ravel(x)[0]) for x in pair)
        outcomes.append(TestOutcome(name, stat, crit, stat > crit, info.get(name, {})))
    return outcomes


def _cmd_test(args) -> int:
    cfg = _load_config(args)
    if not np.isfinite(args.beta0):
        raise ValueError(f"beta0 must be finite, got {args.beta0}")
    outcomes = run_all_tests_once(cfg, args.beta0)
    payload = {
        "beta0": args.beta0,
        "config": harness._config_dict(cfg),
        "tests": [
            {"name": o.name, "statistic": o.statistic, "critical_value": o.critical_value,
             "reject": o.reject, "info": o.info}
            for o in outcomes
        ],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_reproduce_table(args) -> int:
    table, report = harness.reproduce_table(args.table, **_sim_settings(args))
    if args.format == "json":
        _emit(_json_text({"table": table.to_dict(), "report": report.to_dict()}), args.out)
    else:
        _emit(table.to_csv_text(), args.out)
        sys.stdout.write(_json_text(report.to_dict()) + "\n")
    return 0 if report.passed else 2


def _cmd_diagnose(args) -> int:
    cfg = _load_config(args)
    sample = gen_sample(cfg, rng=cfg.rng())
    design = benchmark.benchmark_design(sample)
    fsc = diagnostics.fsc_design_check(design)

    theta = quasilik.mle(design)
    contrib = quasilik.grad_contributions(design, theta)
    inv_sqrt = quasilik._inv_sqrt_psd(quasilik.normal_matrix(design))
    B0 = inv_sqrt @ (contrib.T @ contrib) @ inv_sqrt
    g = 2.0 * np.sqrt(2.0 * np.trace(B0))
    junctions = diagnostics.z_branch_continuity(B0, g)

    t_grid = np.linspace(5.0, 40.0, 8)
    sampler = diagnostics.rademacher_spike_sampler(100, 2)
    tails = diagnostics.empirical_opnorm_tail(sampler, t_grid, 20000,
                                              RngStream(cfg.master_seed, 3))
    bounds = [min(1.0, diagnostics.bernstein_bound(t, 100.0, 1.0, 2)) for t in t_grid]
    payload = {
        "fsc": fsc.to_dict(),
        "deviation_function_junctions": junctions,
        "bernstein_domination": {
            "t_grid": t_grid.tolist(),
            "empirical_tail": tails.tolist(),
            "bound": bounds,
            "dominated": bool(np.all(tails <= np.asarray(bounds) + 3e-2)),
        },
        "config": harness._config_dict(cfg),
    }
    _emit(_json_text(payload), args.out)
    return 0


# The most values a --grid may hold: each is a row of the power table.
MAX_GRID_VALUES = 10**5


def _parse_grid(text: str) -> tuple:
    """start + i step for i = 0, 1, ... while the value does not exceed end,
    up to rounding; so the grid always holds start.  A grid of more than
    MAX_GRID_VALUES values is a usage error, found before any is made."""
    try:
        start, step, end = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be start:step:end, got {text!r}") from None
    if not np.isfinite([start, step, end]).all():
        raise argparse.ArgumentTypeError(f"grid {text!r} must be finite")
    if step <= 0 or end < start:
        raise argparse.ArgumentTypeError(f"empty grid {text!r}")
    if start + step == start and end > start:
        raise argparse.ArgumentTypeError(f"step of grid {text!r} does not move its start")
    count = np.floor((end - start) / step + 1e-9) + 1
    if not count <= MAX_GRID_VALUES:
        values = f"{count:.0f}" if np.isfinite(count) else "too many"
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has {values} values, more than {MAX_GRID_VALUES}")
    return tuple(np.round(start + np.arange(int(count)) * step, 10))


# Every flag of the CLI, in --help order.  A setting a command line leaves
# out stays out of the namespace, so the library's default applies.
_FLAGS = {
    "config": dict(default=None, help="JSON config file; flags override"),
    "n": dict(type=int, help=f"sample size (default {SimConfig.n})"),
    "q": dict(type=int, help=f"instrument count (default {SimConfig.q})"),
    "concentration": dict(type=float,
                          help="c with pi'ZZ'pi = c/n (default: table-1 calibration)"),
    "beta-star": dict(type=float,
                      help="true structural coefficient (default: table-1 calibration)"),
    "error": dict(choices=sorted(k.replace("_", "-") for k in ERROR_KINDS),
                  help=f"error law (default {ErrorSpec.kind})"),
    "alpha": dict(type=float, help=f"test level (default {SimConfig.alpha})"),
    "reps": dict(type=int, help="Monte Carlo replications"),
    "boot-reps": dict(type=int, help="bootstrap draws per test"),
    "seed": dict(type=int, dest="master_seed", metavar="SEED",
                 help=f"master seed (default {SimConfig.master_seed})"),
    "grid": dict(type=_parse_grid, dest="beta_grid", metavar="GRID",
                 help="hypothesized beta0 grid as start:step:end"),
    "out": dict(default=None, help="output path (default stdout)"),
    "format": dict(choices=("csv", "json"), default="csv", help="output format (default csv)"),
    "beta0": dict(type=float, default=1.0, help="hypothesized beta"),
    "table": dict(type=int, choices=(1, 2, 3, 4), required=True),
}

# Help texts that differ by subcommand: a table rerun starts from its own seed.
_HELP = {("reproduce-table", "seed"): "master seed (default: the table's own seed)"}

_MODEL_FLAGS = ("config", "n", "q", "concentration", "beta-star", "error", "seed")

_SUBCOMMANDS = {
    "simulate": (_cmd_simulate, "generate one dataset", _MODEL_FLAGS + ("format", "out")),
    "power": (_cmd_power, "full power curve over the beta0 grid",
              _MODEL_FLAGS + ("alpha", "reps", "boot-reps", "grid", "format", "out")),
    "test": (_cmd_test, "all five tests of H0: beta = beta0 on one dataset",
             _MODEL_FLAGS + ("alpha", "boot-reps", "beta0", "out")),
    "reproduce-table": (_cmd_reproduce_table, "rerun a reference table and compare",
                        ("table", "alpha", "reps", "boot-reps", "seed", "format", "out")),
    "diagnose": (_cmd_diagnose, "finite-sample condition diagnostics",
                 _MODEL_FLAGS + ("out",)),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ivboot",
                                description="bootstrap likelihood-ratio testing harness")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (command, help_text, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        sp.set_defaults(command=command)
        for flag, spec in _FLAGS.items():
            if flag in flags:
                sp.add_argument("--" + flag,
                                **{**spec, "help": _HELP.get((name, flag), spec.get("help"))})
    return p


def run(argv=None) -> int:
    """Entry point; returns the process exit code (0 ok, 1 usage/validation
    error, 2 failed table comparison, 141 stdout closed by its reader)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return 0 if exc.code == 0 else 1
    try:
        code = args.command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone, as with `| head`: end quietly, as a process
        # killed by SIGPIPE would, and let the exit-time flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError, BootstrapAbortError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
