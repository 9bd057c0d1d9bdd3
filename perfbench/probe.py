"""Set-up probe: import ivboot and build one workload's state, then print
the import time as JSON and exit.  run.py times each probe from its start
to that line, which marks the moment the first operation could begin.

    python3 perfbench/probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import ivboot  # noqa: E402,F401

import_s = time.perf_counter() - t0
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), workloads.FULL)
print(json.dumps({"import_s": import_s}), flush=True)
