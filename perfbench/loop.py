"""Closed loops of operations, one client each: the next operation starts
when the last one has finished.  Outputs are kept and checked after the
timed part, so the checks take no time from the operations."""

from __future__ import annotations

import statistics
import time
import traceback


def attempt(fn, *args):
    """(output, traceback or None, seconds) of one call."""
    t0 = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception:  # an operation that raises is a failed operation
        out, err = None, traceback.format_exc(limit=3)
    return out, err, time.perf_counter() - t0


class Loop:
    def __init__(self, wl):
        self.wl = wl
        self.done = []  # (input, output, traceback or None)
        self.latencies, self.problems = [], []
        self.attempted = self.failed = self.replications = 0

    def for_seconds(self, seconds: float):
        """Run operations until about ``seconds`` have passed: the next one
        starts only if half an average operation still fits."""
        start = time.perf_counter()
        while not self.done or (time.perf_counter() - start
                                + 0.5 * statistics.fmean(self.latencies) < seconds):
            inp = self.wl.next_input()
            out, err, dt = attempt(self.wl.run, inp)
            self.done.append((inp, out, err))
            self.latencies.append(dt)
        self.check_all()

    def check_all(self):
        for inp, out, err in self.done:
            self.attempted += 1
            problems = [err] if err is not None else None
            if problems is None:
                problems, err, _ = attempt(self.wl.check, inp, out)
                problems = [err] if err is not None else problems
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            else:
                self.replications += self.wl.replications(inp)
        self.done = []

    def throughput(self) -> float:
        """Replications that passed their checks per second spent in operations."""
        busy = sum(self.latencies)
        return self.replications / busy if busy > 0 else 0.0


def traced_pairs(wl, tracer, seconds: float):
    """Run each input twice in a row, once untraced and once with spans
    recorded, alternating which goes first, until about ``seconds`` have
    passed: the next pair starts only if half of it still fits.  Returns
    (untraced loop, traced loop, per-input traced/untraced time ratios,
    seconds the tracer was installed)."""
    plain, traced = Loop(wl), Loop(wl)
    ratios, installed = [], 0.0
    start = time.perf_counter()
    while not ratios or (time.perf_counter() - start
                         + statistics.fmean(plain.latencies + traced.latencies) < seconds):
        inp = wl.next_input()
        times = {}
        for with_spans in ((False, True) if len(ratios) % 2 == 0 else (True, False)):
            if with_spans:
                t0 = time.perf_counter()
                tracer.install()
                try:
                    out, err, dt = attempt(tracer.span, "op", wl.run, (inp,))
                finally:
                    tracer.uninstall()
                installed += time.perf_counter() - t0
            else:
                out, err, dt = attempt(wl.run, inp)
            loop = traced if with_spans else plain
            loop.done.append((inp, out, err))
            loop.latencies.append(dt)
            times[with_spans] = dt
        ratios.append(times[True] / times[False])
    plain.check_all()
    traced.check_all()
    return plain, traced, ratios, installed
