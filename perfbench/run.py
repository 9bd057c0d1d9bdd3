"""ivboot benchmark.

    python3 perfbench/run.py --workload power-grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Runs one workload (see workloads.py) in a closed loop for ``--seconds``
seconds, checks every output, and prints as its last line a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
each operation runs twice, once with spans recorded around the calls into
each ``ivboot`` layer, and the metrics are the per-layer ones (the span
file and the run's record go to ``.perfbench/``).  ``--workload
all`` runs every workload in its own process and prints a table.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from loop import Loop, traced_pairs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("power-grid", "single-sample")
SETUP_SAMPLES = 3
RUN_SECONDS = 50  # run_seconds in BENCHMARK.json
PROBE_TIMEOUT_S = 60
CLIENT_GRACE_S = 120  # a client's import, set-up and last operation

# (name, unit, better, bound).  The median and tail call latency are in the
# run record, without a bound: a power-grid run makes three or four calls,
# too few for a tail with ten calls beyond it.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("replications_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better, the end-to-end metric and workloads it should move).
# Busy and self times and counts are per operation of the workload.
GRID = "replications_per_s on power-grid"
SINGLE = "replications_per_s on single-sample"
PER_LAYER = (
    ("harness.blr.busy_s", "s", "lower", GRID),
    ("harness.blr.us_per_draw", "us", "lower", GRID),
    ("harness.lr_oracle.busy_s", "s", "lower", GRID),
    ("harness.lr_oracle.calls", "count", "lower", GRID),
    ("harness.clr.busy_s", "s", "lower", GRID),
    ("harness.errors.sample_s", "s", "lower", GRID),
    ("harness.errors.null_s", "s", "lower", GRID),
    ("harness.quadratics.busy_s", "s", "lower", GRID),
    ("harness.unit.busy_s", "s", "lower", GRID),
    ("harness.unit.count", "count", "lower", GRID),
    ("harness.workers.busy_frac", "frac", "higher", GRID),
    ("harness.serial_frac", "frac", "lower", GRID),
    ("benchmark.blr_stat.busy_s", "s", "lower", SINGLE),
    ("benchmark.blr_stat.calls", "count", "lower", SINGLE),
    ("benchmark.blr_stat.ms_per_draw", "ms", "lower", SINGLE),
    ("benchmark.profile_sup.busy_s", "s", "lower", SINGLE),
    ("benchmark.profile_loglik.busy_s", "s", "lower", SINGLE),
    ("benchmark.clr_critical.busy_s", "s", "lower", SINGLE),
    ("harness.oracle_lr.busy_s", "s", "lower", SINGLE),
    ("simgen.gen_sample.busy_s", "s", "lower", SINGLE),
    ("cli.self_s", "s", "lower", SINGLE),
    ("bootstrap.t_blr.busy_s", "s", "lower", SINGLE),
    ("bootstrap.t_blr.us_per_draw", "us", "lower", SINGLE),
    ("bootstrap.boot_quantile.self_s", "s", "lower", SINGLE),
    ("quasilik.t_lr.busy_s", "s", "lower", SINGLE),
    ("bootstrap.retry_frac", "frac", "lower", SINGLE),
    ("setup.import_s", "s", "lower", "setup_s on all workloads"),
    ("trace.overhead_frac", "frac", "lower", "none: cost of tracing itself"),
    ("trace.coverage", "frac", "higher", "none: top-level spans / traced wall time"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_threads(workload: str) -> int:
    """power-grid runs the pool at full width; single-sample has no pool."""
    return nproc() if workload == "power-grid" else 1


def program_present() -> bool:
    return (ROOT / "src" / "ivboot" / "__init__.py").is_file()


def setup_times(workload: str, seed: int, samples: int):
    """Start ``samples`` fresh processes that import ivboot and build the
    workload, and time each from its start to the moment it is ready for
    the first operation.  Returns (set-up seconds, import seconds) lists."""
    setup, imports = [], []
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.stdout.read()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        setup.append(ready - t0)
        imports.append(json.loads(line)["import_s"])
    return setup, imports


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_latency(latencies):
    """Highest percentile with at least ten calls beyond it (None below 11 calls)."""
    n = len(latencies)
    if n < 11:
        return None
    return {"value_s": sorted(latencies)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "calls": n}


def client_processes(workload: str) -> int:
    """power-grid runs one client, whose pool fills the CPUs.  single-sample
    runs one client process per CPU, each pinned to its CPU: its work holds
    the interpreter lock, so one process keeps only one CPU busy.  With
    every CPU busy its throughput spread less from run to run (README.md)."""
    return 1 if workload == "power-grid" else nproc()


def run_clients(workload: str, seed: int, seconds: float, size: str, n: int) -> dict:
    """Run ``n`` client processes (client.py), one pinned to each CPU, start
    their timed loops together, and merge their reports."""
    cpus = sorted(os.sched_getaffinity(0))
    procs = []
    try:
        for k in range(n):
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "client.py"), workload, str(seed), str(seconds),
                 size, str(k), str(cpus[k % len(cpus)])],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        for proc in procs:  # each prints a line once its workload is built
            if not proc.stdout.readline():
                raise RuntimeError("a client process failed before its loop")
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        reports = []
        for proc in procs:
            out, _ = proc.communicate(timeout=seconds + CLIENT_GRACE_S)
            if proc.returncode != 0:
                raise RuntimeError(f"a client process failed with status {proc.returncode}")
            reports.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    merged = {key: sum(r[key] for r in reports)
              for key in ("attempted", "failed", "replications_per_s")}
    merged["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reports)
    merged["latencies"] = [x for r in reports for x in r["latencies"]]
    merged["problems"] = [x for r in reports for x in r["problems"]]
    merged["client_blas_threads"] = [r["blas_threads"] for r in reports]
    return merged


def per_layer_metrics(spans, ops: int, overhead: float, coverage: float, import_s: float):
    from spans import SpanTable

    t = SpanTable(spans, root="op")
    per_op = 1.0 / max(ops, 1)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    blr_draws = t.attr_sum("harness.blr", "draws")
    capacity, pool_wall, call_wall = t.pool()
    n_boot = t.attr_sum("bootstrap.boot_quantile", "n_boot")
    values = {
        "harness.blr.busy_s": t.busy("harness.blr") * per_op,
        "harness.blr.us_per_draw": ratio(t.busy("harness.blr"), blr_draws, 1e6),
        "harness.lr_oracle.busy_s": t.busy("harness.lr_oracle") * per_op,
        "harness.lr_oracle.calls": t.count("harness.lr_oracle") * per_op,
        "harness.clr.busy_s": t.busy("harness.clr") * per_op,
        "harness.errors.sample_s": t.self_time("harness.errors", "harness.unit") * per_op,
        "harness.errors.null_s": t.self_time("harness.errors", "harness.lr_oracle") * per_op,
        "harness.quadratics.busy_s": t.busy("harness.quadratics") * per_op,
        "harness.unit.busy_s": t.busy("harness.unit") * per_op,
        "harness.unit.count": t.count("harness.unit") * per_op,
        "harness.workers.busy_frac": ratio(t.busy("harness.unit"), capacity),
        "harness.serial_frac": ratio(call_wall - pool_wall, call_wall),
        "benchmark.blr_stat.busy_s": t.busy("benchmark.blr_stat") * per_op,
        "benchmark.blr_stat.calls": t.count("benchmark.blr_stat") * per_op,
        "benchmark.blr_stat.ms_per_draw": ratio(t.busy("benchmark.blr_stat"),
                                                t.count("benchmark.blr_stat"), 1e3),
        "benchmark.profile_sup.busy_s": t.busy("benchmark.profile_sup") * per_op,
        "benchmark.profile_loglik.busy_s": t.busy("benchmark.profile_loglik") * per_op,
        "benchmark.clr_critical.busy_s": t.busy("benchmark.clr_critical") * per_op,
        "harness.oracle_lr.busy_s": t.busy("harness.oracle_lr") * per_op,
        "simgen.gen_sample.busy_s": t.busy("simgen.gen_sample") * per_op,
        "cli.self_s": t.self_time("cli.run") * per_op,
        "bootstrap.t_blr.busy_s": t.busy("bootstrap.t_blr") * per_op,
        "bootstrap.t_blr.us_per_draw": ratio(t.busy("bootstrap.t_blr"),
                                             t.count("bootstrap.t_blr"), 1e6),
        "bootstrap.boot_quantile.self_s": t.self_time("bootstrap.boot_quantile") * per_op,
        "quasilik.t_lr.busy_s": t.busy("quasilik.t_lr") * per_op,
        "bootstrap.retry_frac": ratio(t.attr_sum("bootstrap.boot_quantile", "n_retries"),
                                      n_boot),
        "setup.import_s": import_s,
        "trace.overhead_frac": overhead,
        "trace.coverage": coverage,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", setup_samples: int = SETUP_SAMPLES):
    """One benchmark run in this process; returns (result, record).

    ``result`` is the object printed as the last line; ``record`` adds the
    provenance and details behind it."""
    os.environ["IVBOOT_THREADS"] = str(worker_threads(workload))
    setup, probe_imports = setup_times(workload, seed, setup_samples)
    import provenance
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workloads.SIZES[size])
    record = {"provenance": provenance.collect(ROOT, workload, seed), "seconds": seconds,
              "setup_samples_s": setup, "import_samples_s": probe_imports}
    if not trace:
        n = client_processes(workload)
        if n == 1:
            loop = Loop(wl)
            loop.for_seconds(seconds)
            run = {"attempted": loop.attempted, "failed": loop.failed,
                   "replications_per_s": loop.throughput(), "peak_rss_mb": peak_rss_mb(),
                   "latencies": loop.latencies, "problems": loop.problems}
        else:
            run = run_clients(workload, seed, seconds, size, n)
        values = {"setup_s": statistics.median(setup), **run}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
        record["client_processes"] = n
        record["client_blas_threads"] = run.get("client_blas_threads")
    else:
        from spans import Tracer

        # one client in this process; on single-sample the other CPUs idle
        tracer = Tracer()
        plain, traced, ratios, installed = traced_pairs(wl, tracer, seconds)
        top = sum(s[3] - s[2] for s in tracer.spans if s[4] is None)
        metrics = per_layer_metrics(tracer.spans, len(traced.latencies),
                                    statistics.median(ratios) - 1.0, top / installed,
                                    statistics.median(probe_imports))
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        tracer.write(span_path, record["provenance"])
        record.update({"client_processes": 1, "span_file": span_path.name,
                       "trace_ratios": ratios, "traced_latencies_s": traced.latencies})
        run = {"attempted": plain.attempted + traced.attempted,
               "failed": plain.failed + traced.failed, "latencies": plain.latencies,
               "problems": plain.problems + traced.problems}
    latencies = run["latencies"]
    record.update({
        "operations": len(latencies),
        "latency_p50_s": statistics.median(latencies) if latencies else None,
        "failed_frac": run["failed"] / run["attempted"],
        "latency_tail": tail_latency(latencies),
        "latencies_s": latencies,
        "problems": run["problems"][:20],
    })
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    return result, record


def print_layer_table(metrics):
    print(f"{'per-layer metric':34} {'value':>14} {'unit':6} should move")
    for name, unit, _, moves in PER_LAYER:
        print(f"{name:34} {metrics[name]['value']:14.6g} {unit:6} {moves}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    ok = True
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed with status {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])
        ok = ok and result["correct"]
        print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={record['failed_frac']:.4g}")
        for name, m in result["metrics"].items():
            print(f"   {name:34} {m['value']:14.6g} {m['unit']}")
        if trace:
            continue
        print(f"   {'latency_p50_s':34} {record['latency_p50_s']:14.6g} s  "
              f"(median of {record['operations']} calls)")
        tail = record["latency_tail"]
        if tail is not None:
            print(f"   {'latency_tail_s':34} {tail['value_s']:14.6g} s  "
                  f"(p{tail['percentile']:.1f} of {tail['calls']} calls)")
        else:
            print(f"   {'latency_tail_s':34} {'n/a':>14}    (fewer than 11 calls)")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not program_present():
        print(f"error: no ivboot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump({"result": result, "record": record}, fh, indent=1)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        print_layer_table(result["metrics"])
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
