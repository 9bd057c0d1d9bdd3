"""Span recording from outside the program.

``Tracer.install`` replaces the module-level functions of each ``ivboot``
layer with wrappers that record a span per call.  Callers inside the
package look these functions up as module globals at call time, so
``power_curve`` and the CLI call the wrappers.  ``uninstall`` puts the
originals back.

A span is (id, name, start, end, parent id, thread id, attributes).  Spans
stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

from ivboot import benchmark, bootstrap, cli, harness, quasilik, simgen


def _blr_draws(args, kwargs, result):
    engine, y1 = args[0], args[1]
    return {"draws": y1.shape[0] * engine.config.boot_reps}


def _pool_workers(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs.get("n_threads")
    return {"workers": n if n is not None else harness.max_threads()}


def _boot_counts(args, kwargs, result):
    return {"n_boot": result.n_boot, "n_retries": result.n_retries}


# (module, attribute, span name, attribute recorder); the same function
# reached under two module names is patched in both.
LAYER_FUNCTIONS = (
    (harness, "power_curve", "harness.power_curve", _pool_workers),
    (harness, "_sample_unit", "harness.unit", None),
    (harness, "_blr_quantiles", "harness.blr", _blr_draws),
    (harness, "_lr_critical", "harness.lr_oracle", None),
    (harness, "_clr_critical_curve", "harness.clr", None),
    (harness, "_gen_errors_batch", "harness.errors", None),
    (harness._Engine, "quadratics", "harness.quadratics", None),
    (harness, "oracle_lr_critical", "harness.oracle_lr", None),
    (benchmark, "ams_blr_statistic", "benchmark.blr_stat", None),
    (benchmark, "profile_sup", "benchmark.profile_sup", None),
    (benchmark, "ams_profile_loglik", "benchmark.profile_loglik", None),
    (benchmark, "clr_critical", "benchmark.clr_critical", None),
    (simgen, "gen_sample", "simgen.gen_sample", None),
    (cli, "gen_sample", "simgen.gen_sample", None),
    (cli, "run", "cli.run", None),
    (quasilik, "t_lr", "quasilik.t_lr", None),
    (bootstrap, "boot_quantile", "bootstrap.boot_quantile", _boot_counts),
    (bootstrap, "t_blr", "bootstrap.t_blr", None),
    (bootstrap, "blr_test", "bootstrap.blr_test", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack = []
        self._saved = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, args=(), kwargs=None, attrs=None):
        """Call fn(*args, **kwargs) inside a span called ``name``.

        A span opened on a worker thread with no open span of its own takes
        the main thread's innermost open span as parent: the main thread
        waits inside the call that started the pool.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and threading.get_ident() != self._main:
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = attrs(args, kwargs, result) if attrs is not None else {}
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), extra))
        return result

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, attrs)
        return traced

    def install(self):
        wrapped = {}
        for owner, attr, name, attrs in LAYER_FUNCTIONS:
            original = getattr(owner, attr)
            if original not in wrapped:
                wrapped[original] = self._wrap(original, name, attrs)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[original])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path, meta):
        """Write the spans as JSON, times in seconds from the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [{"id": sid, "name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "thread": tid, **extra}
                for sid, name, start, end, parent, tid, extra in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTable:
    """Busy time, self time and counts per span name.

    Busy time is the sum of a span's durations; self time subtracts the
    part of each span that its children cover (children on several threads
    can overlap, so their union is taken).
    """

    def __init__(self, spans, root=None):
        by_id = {s[0]: s for s in spans}
        if root is not None:  # keep only spans below top-level spans named root
            def top(s):
                while s[4] is not None:
                    s = by_id[s[4]]
                return s
            spans = [s for s in spans if top(s)[1] == root]
        self.spans = spans
        self.by_id = by_id
        self.children = {}
        self.by_name = {}
        for s in spans:
            self.children.setdefault(s[4], []).append(s)
            self.by_name.setdefault(s[1], []).append(s)

    def named(self, name, parent=None):
        return [s for s in self.by_name.get(name, ())
                if parent is None or self.by_id.get(s[4], (None, None))[1] == parent]

    def busy(self, name) -> float:
        return sum(s[3] - s[2] for s in self.named(name))

    def count(self, name) -> int:
        return len(self.named(name))

    def self_time(self, name, parent=None) -> float:
        total = 0.0
        for s in self.named(name, parent):
            kids = [(max(c[2], s[2]), min(c[3], s[3])) for c in self.children.get(s[0], ())]
            total += (s[3] - s[2]) - union_length([k for k in kids if k[1] > k[0]])
        return total

    def attr_sum(self, name, key) -> float:
        return sum(s[6].get(key, 0) for s in self.named(name))

    def pool(self):
        """(pool wall time x workers, pool wall time, call wall time) summed
        over power_curve calls; the pool's wall time runs from the first
        replication unit's start to the last one's end."""
        capacity = pool_wall = call_wall = 0.0
        for s in self.named("harness.power_curve"):
            units = [c for c in self.children.get(s[0], ()) if c[1] == "harness.unit"]
            wall = (max(c[3] for c in units) - min(c[2] for c in units)) if units else 0.0
            capacity += wall * s[6]["workers"]
            pool_wall += wall
            call_wall += s[3] - s[2]
        return capacity, pool_wall, call_wall
