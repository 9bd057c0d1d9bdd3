"""One client process of a run with a client per CPU (see
run.client_processes).  It pins itself to its CPU, builds the workload,
prints a line, waits for a line on stdin so that all clients start their
timed loops together, runs the closed loop, and prints its report as JSON.

    python3 perfbench/client.py <workload> <seed> <seconds> <size> <client> <cpu>
"""

import json
import os
import resource
import sys
from pathlib import Path

workload, seed, seconds, size, client, cpu = sys.argv[1:7]
os.sched_setaffinity(0, {int(cpu)})
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import provenance  # noqa: E402
import workloads  # noqa: E402
from loop import Loop  # noqa: E402

loop = Loop(workloads.WORKLOADS[workload](int(seed), workloads.SIZES[size], int(client)))
print("ready", flush=True)
sys.stdin.readline()
loop.for_seconds(float(seconds))
print(json.dumps({
    "attempted": loop.attempted, "failed": loop.failed,
    "replications_per_s": loop.throughput(),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "latencies": loop.latencies, "problems": loop.problems,
    "blas_threads": provenance.blas_threads(),
}))
