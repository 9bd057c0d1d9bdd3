"""Where a result came from: machine, library builds, thread settings,
workload seed and commit."""

import ctypes
import os
import sys
from pathlib import Path

import numpy
import scipy

# OpenBLAS thread-count getters, by the symbol names of its builds
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path):
    """Commit of a git checkout at root, read from .git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpuinfo(key: str):
    """First value of a /proc/cpuinfo field, or None."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def blas_build():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        return None


def blas_threads():
    """The BLAS thread count in effect, as found, and the variables that set it."""
    found = {v: os.environ.get(v) for v in _THREAD_VARS}
    found["runtime"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in _BLAS_GETTERS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found["runtime"] = fn()
                return found
    return found


def collect(root: Path, workload: str, seed: int) -> dict:
    return {
        "workload": workload, "seed": seed, "git_commit": git_commit(root),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpuinfo("model name"),
        "l3_cache": cpuinfo("cache size"), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas_build(), "blas_threads": blas_threads(),
        "IVBOOT_THREADS": os.environ.get("IVBOOT_THREADS"),
    }
