"""In-memory span tracing for the benchmark's traced runs.

The timed runs of the benchmark carry no instrumentation.  A traced run
installs the wrappers of :func:`instrument` on the attributes the library's
callers look up (module-level kernel imports, solver and executor methods,
the service dispatcher), records one span per call -- name, start, end,
parent span, operation id and thread -- and restores the originals on
exit.  Nothing under ``src/`` is modified.

Self time is computed by :func:`self_times` with a sweep over all span
boundaries: every instant of a root span is charged to the spans that are
active at that instant and have no active child, split equally when
several are (concurrent tasks on executor worker threads).  The per-span
self times therefore add up exactly to the wall time of the root spans,
and a parent's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Name of the harness-level span that wraps one operation.  Its self time
#: is the part of the operation no library layer accounts for.
ROOT = "op"


class Tracer:
    """Span and counter store shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, op, thread]`` per span, in begin order.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op: int = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        # Spans begun on a thread with no open span of its own (executor
        # worker threads) hang under the executor run that dispatched them.
        self._detached_parent: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._detached_parent
        rec = [name, time.perf_counter(), None, parent, self.op, threading.get_ident()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable] = None,
        detach: bool = False,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``after(args, result)`` runs after the span closes (counters).
        ``detach`` makes spans begun on other threads while this one is
        open its children (the executor's ``run``).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            if detach:
                outer, tracer._detached_parent = tracer._detached_parent, idx
            try:
                result = fn(*args, **kwargs)
            finally:
                if detach:
                    tracer._detached_parent = outer
                tracer.end(idx)
            if after is not None:
                after(args, result)
            return result

        return traced


def self_times(spans: List[list]) -> List[float]:
    """Self time of every span (see the module docstring)."""
    events = []
    for i, rec in enumerate(spans):
        if rec[2] is None:
            continue
        events.append((rec[1], 1, i))
        events.append((rec[2], 0, i))
    # Ends sort before starts at equal timestamps.
    events.sort()
    out = [0.0] * len(spans)
    active: set = set()
    leaves: set = set()
    children: Dict[int, int] = {}
    prev = None
    for t, is_start, i in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for j in leaves:
                out[j] += share
        prev = t
        parent = spans[i][3]
        if is_start:
            active.add(i)
            if not children.get(i):
                leaves.add(i)
            if parent in active:
                children[parent] = children.get(parent, 0) + 1
                leaves.discard(parent)
        else:
            active.discard(i)
            leaves.discard(i)
            if parent in active:
                children[parent] -= 1
                if children[parent] == 0:
                    leaves.add(parent)
    return out


def layer_totals(spans: List[list]) -> Dict[str, float]:
    """Self seconds per span name, plus ``ROOT`` wall seconds as ``op.wall``."""
    totals: Dict[str, float] = {}
    for rec, own in zip(spans, self_times(spans)):
        totals[rec[0]] = totals.get(rec[0], 0.0) + own
        if rec[0] == ROOT and rec[2] is not None:
            totals["op.wall"] = totals.get("op.wall", 0.0) + rec[2] - rec[1]
    return totals


def chrome_trace(spans: List[list]) -> dict:
    """The spans as a Chrome trace-event document (chrome://tracing, Perfetto)."""
    threads: Dict[int, int] = {}
    events = []
    for rec in spans:
        if rec[2] is None:
            continue
        tid = threads.setdefault(rec[5], len(threads))
        events.append(
            {
                "name": rec[0],
                "ph": "X",
                "ts": rec[1] * 1e6,
                "dur": (rec[2] - rec[1]) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {"op": rec[4]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------------- #
# Layer boundaries
# --------------------------------------------------------------------------- #
#: Table-I kernels whose flops ``kernels.flops`` counts; a discarded panel
#: factorization (QR step) is real work and is charged as a GETRF.
TABLE_I = ("geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr", "getrf", "swptrsm", "trsm", "gemm")


def _targets():
    """``(owner, attribute, span name, kind)`` of every wrapped boundary."""
    from repro.api import service, session
    from repro.baselines import lupp
    from repro.core import factorization, hybrid, lu_step, panel_analysis, qr_step, solver_base
    from repro.criteria import max_criterion
    from repro.runtime import executor, graph, schedule
    from repro.tiles import tile_matrix

    kernels = [
        (qr_step, "geqrt_tile", "kernels.geqrt"),
        (qr_step, "ttqrt", "kernels.ttqrt"),
        (qr_step, "tsqrt", "kernels.tsqrt"),
        (qr_step, "tsmqr", "kernels.tsmqr"),
        (qr_step, "unmqr", "kernels.unmqr"),
        (panel_analysis, "factor_panel_lu", "kernels.panel_getrf"),
        (lu_step, "apply_swptrsm", "kernels.swptrsm"),
        (lu_step, "eliminate_trsm", "kernels.trsm"),
    ]
    out = [(owner, attr, name, "kernel") for owner, attr, name in kernels]
    out += [
        (hybrid, "analyze_panel", "core.analyze_panel", None),
        (lupp, "analyze_panel", "core.analyze_panel", None),
        (hybrid.HybridLUQRSolver, "_plan_step", "core.plan", None),
        (lupp.LUPPSolver, "_plan_step", "core.plan", None),
        (solver_base.TiledSolverBase, "factor", "core.driver", "factor"),
        (max_criterion.MaxCriterion, "evaluate", "criteria.evaluate", None),
        (solver_base, "run_step_tasks", "runtime.inline", "inline"),
        (schedule.StepPipeline, "advance", "runtime.pipeline", None),
        (schedule.StepPipeline, "flush_all", "runtime.pipeline", None),
        (schedule.StepPipeline, "submit", "runtime.pipeline", None),
        (schedule, "assign_task_priorities", "runtime.priorities", None),
        (graph.TaskGraph, "add_task", "runtime.add_task", "add_task"),
        (executor.ThreadedExecutor, "run", "runtime.executor_run", "run"),
        (executor.SequentialExecutor, "run", "runtime.executor_run", "run"),
        (factorization.Factorization, "solve", "linalg.back_substitution", None),
        (session.SolverSession, "_back_substitute", "linalg.back_substitution", None),
        (solver_base, "stability_report", "stability.report", None),
        (session, "stability_report", "stability.report", None),
        (tile_matrix.TileMatrix, "region_tile_norms", "stability.growth", None),
        (solver_base.TiledSolverBase, "_active_region_max_norm", "stability.growth", None),
        (solver_base.TiledSolverBase, "_replay_growth", "stability.growth", None),
        (tile_matrix.TileMatrix, "from_dense", "tiles.from_dense", "classmethod"),
        (session.SolverSession, "solve_many", "api.session.solve_many", None),
        (session.SolverSession, "_factor_entry", "api.session.factor", "miss"),
        (service.SolverService, "_serve", ROOT, "serve"),
    ]
    return out


@contextmanager
def instrument(tracer: Tracer, on_serve: Optional[Callable] = None) -> Iterator[Tracer]:
    """Install the layer wrappers for the duration of the block.

    ``on_serve(batch, start, end)`` is called for every dispatcher batch of
    a ``SolverService`` (queue waits and busy time are derived from it).
    """
    from repro.kernels.flops import KernelFlops

    def after_factor(args, fact) -> None:
        solver = args[0]
        flops = KernelFlops(solver.tile_size)
        totals = fact.kernel_totals()
        totals["getrf"] = totals.get("getrf", 0) + totals.get("getrf_discarded", 0)
        tracer.count("core.steps", fact.n_steps)
        tracer.count("core.lu_steps", fact.lu_steps)
        tracer.count("kernels.flops", sum(flops.of(k) * totals.get(k, 0) for k in TABLE_I))
        tracer.count("factorizations")
        with tracer._lock:
            tracer.counts["stability.growth_max"] = max(
                tracer.counts["stability.growth_max"], fact.growth_factor
            )

    def counting(key: str):
        return lambda args, result: tracer.count(key)

    def after_inline(args, result) -> None:
        tracer.count("runtime.tasks", len(args[0]))

    def after_run(args, result) -> None:
        tracer.count("runtime.tasks", len(args[1]))

    def traced_add_task(fn: Callable) -> Callable:
        add = tracer.wrap(fn, "runtime.add_task")

        @functools.wraps(fn)
        def wrapped(self, *args, **kwargs):
            body = kwargs.get("fn")
            if body is not None:
                # Task bodies run on executor threads; their self time is
                # the tile work no named kernel covers (e.g. inline GEMMs).
                kwargs["fn"] = tracer.wrap(body, "runtime.task_body")
            return add(self, *args, **kwargs)

        return wrapped

    def traced_serve(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(self, batch):
            with tracer.span(ROOT) as idx:
                start = tracer.spans[idx][1]
                misses = tracer.counts["api.session.misses"]
                fn(self, batch)
            if on_serve is not None:
                end = tracer.spans[idx][2]
                on_serve(batch, start, end, tracer.counts["api.session.misses"] > misses)

        return wrapped

    saved = []
    try:
        for owner, attr, name, kind in _targets():
            original = owner.__dict__[attr]
            if kind == "classmethod":
                new = classmethod(tracer.wrap(original.__func__, name))
            elif kind == "kernel":
                new = tracer.wrap(original, name, after=counting("kernels.calls"))
            elif kind == "factor":
                new = tracer.wrap(original, name, after=after_factor)
            elif kind == "inline":
                new = tracer.wrap(original, name, after=after_inline)
            elif kind == "run":
                new = tracer.wrap(original, name, after=after_run, detach=True)
            elif kind == "add_task":
                new = traced_add_task(original)
            elif kind == "miss":
                new = tracer.wrap(original, name, after=counting("api.session.misses"))
            elif kind == "serve":
                new = traced_serve(original)
            else:
                new = tracer.wrap(original, name)
            saved.append((owner, attr, original))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
