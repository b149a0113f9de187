"""In-memory span recording and self-time attribution for traced runs.

A traced run wraps the public names through which shapeff's layers call one
another, at the place where the caller looks each name up (a module global
such as ``shapeff.estimators.permutation_rows``, or a method on its class such
as ``InputSpace.sample``). Every call then records a span: name, start, end,
parent span, op id and a work count. The layer of a span is the part of its
name before the first dot.

This module imports only the standard library, so a traced CLI child can time
its own ``import shapeff.cli`` without numpy already being loaded.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# CLOCK_MONOTONIC on Linux: one clock for every process on the machine, so a
# child's timestamps can be placed inside the parent's spans.
now = time.monotonic

# Contracted model evaluations of each estimator, from (d, n, cyclic).
CONTRACTS = {
    "estimate_shapley_all": lambda d, n, cyclic: (d + 1) * n,
    "estimate_total_effects": lambda d, n, cyclic: (d + 1) * n,
    "estimate_main_effects": lambda d, n, cyclic: (d + 2) * n,
    "estimate_shapley_winding": lambda d, n, cyclic: d * n + (0 if cyclic else 1),
}


class Tracer:
    """Collects spans from any number of threads.

    A span started on a thread with no open span of its own (an estimator's
    worker thread) takes as parent the innermost open span of the thread that
    created the tracer, which is the estimator call waiting for it.
    """

    def __init__(self):
        # Each span is [name, start, end, parent index or -1, op id, units].
        self.spans: list[list] = []
        self.op = -1
        self.ext_rtt_s = array("d")
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._home = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, units: float = 0):
        stack = self._stacks[threading.get_ident()]
        outer = stack or self._stacks[self._home]
        record = [name, now(), 0.0, outer[-1] if outer else -1, self.op, units]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            record[2] = now()
            stack.pop()

    def current(self) -> int:
        """Index of the innermost open span on the calling thread, or -1."""
        stack = self._stacks[threading.get_ident()]
        return stack[-1] if stack else -1

    def add(self, name: str, start: float, end: float, parent: int, units: float = 0) -> None:
        """Record a span whose times were taken elsewhere."""
        with self._lock:
            self.spans.append([name, start, end, parent, self.op, units])

    def wrap(self, name: str, fn, units=None):
        """fn with a span around each call; units(*args, **kwargs) sizes the work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, units(*args, **kwargs) if units else 0):
                return fn(*args, **kwargs)
        return traced

    def patch(self, owner, attr: str, name: str, units=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, units))

    def patch_latency(self, owner, attr: str) -> None:
        """Record the caller-seen duration of each call, without a span."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        sink = self.ext_rtt_s

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = now()
            try:
                return original(*args, **kwargs)
            finally:
                sink.append(now() - start)
        setattr(owner, attr, timed)

    def install(self) -> None:
        """Wrap every layer boundary of the shapeff modules loaded so far."""
        import shapeff.analysis as analysis
        import shapeff.estimators as estimators
        import shapeff.inputs as inputs
        import shapeff.models as models

        self.patch(inputs.InputSpace, "sample", "inputs.sample",
                   lambda space, n, gen: n * space.d)
        self.patch(inputs.RngStream, "generator", "inputs.rng_init")
        self.patch(estimators, "permutation_rows", "inputs.permute",
                   lambda gen, n, d: n * d)
        self.patch(models.ModelFunction, "evaluate_batch", "models.eval",
                   lambda f, points: len(points))
        self.patch_latency(models.ExternalModel, "evaluate")
        callers = [estimators, analysis]
        cli = sys.modules.get("shapeff.cli")
        if cli is not None:
            callers.append(cli)
            self.patch(cli, "convergence_study", "analysis.convergence_study")
            self.patch(cli, "ishigami_exact", "reference.ishigami_exact")
            self.patch(cli, "sobol_g_exact", "reference.sobol_g_exact")
        for module in callers:
            for fname, contract in CONTRACTS.items():
                self.patch(module, fname, "estimators." + fname,
                           _contract_units(contract))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process, its roots under `parent`."""
        with self._lock:
            base = len(self.spans)
            for name, start, end, par, _, units in child_spans:
                self.spans.append([name, start, end,
                                   parent if par < 0 else base + par, self.op, units])

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def _contract_units(contract):
    def units(f, space, cfg, *, cyclic=False):
        return contract(space.d, cfg.n, cyclic)
    return units


def self_times(spans: list[list]) -> list[float]:
    """Wall time attributed to each span, as its self time.

    A span's self interval is its own interval minus the union of its
    children's intervals. Where the self intervals of k spans overlap (worker
    threads running side by side), each gets 1/k of that stretch, so the self
    times of all spans add up exactly to the time the root spans cover.
    """
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            kids[parent].append((start, end))
    events = []
    for i, (name, start, end, *_) in enumerate(spans):
        cursor = start
        for a, b in sorted(kids.get(i, ())):
            if a > cursor:
                events.append((cursor, 1, i))
                events.append((min(a, end), -1, i))
            cursor = max(cursor, b)
            if cursor >= end:
                break
        if cursor < end:
            events.append((cursor, 1, i))
            events.append((end, -1, i))
    events.sort()
    out = [0.0] * len(spans)
    active: set[int] = set()
    last = None
    for t, delta, i in events:
        if active and t > last:
            share = (t - last) / len(active)
            for j in active:
                out[j] += share
        last = t
        if delta > 0:
            active.add(i)
        else:
            active.discard(i)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
