"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces bound methods of the engine's layer objects with
timing wrappers for one replay and puts the originals back afterwards.
Spans nest on one stack: a layer's *self* time is its span time minus the
time of the spans it encloses, and a call that re-enters the layer it is
already in (``advance_to`` firing expiries through ``submit``) stays in
the enclosing span.  Nothing under ``src/`` knows about the tracer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.service.snapshots import SnapshotView

#: engine entry points a client calls
ENGINE_ENTRIES = ("submit", "flush", "advance_to", "drain_window")
#: entry points that drive the sliding-window plane
WINDOW_ENTRIES = ("advance_to", "drain_window")

POINT_QUERY_METHODS = ("core", "in_k_core")
AGG_QUERY_METHODS = ("degeneracy", "shell_histogram", "k_shell")

clock = time.perf_counter


class Tracer:
    """Span totals, self times and call counts by layer name, plus the
    kernel counters read off each :class:`~repro.parallel.batch.BatchResult`."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: extra accumulators keyed by tag (outermost calls only)
        self.tagged: Dict[str, float] = defaultdict(float)
        self.kernel: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._undo: List[tuple] = []
        self._wrapped: set = set()

    # ------------------------------------------------------------------
    def wrap(self, obj, attr: str, name: str, *,
             tag: Optional[str] = None,
             on_result: Optional[Callable] = None) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``.
        ``obj`` may be an instance or a class (for ``__slots__`` types)."""
        key = (id(obj), attr)
        if key in self._wrapped:
            return
        self._wrapped.add(key)
        own = vars(obj)
        self._undo.append((obj, attr, attr in own, own.get(attr)))
        fn = getattr(obj, attr)
        stack = self._stack
        total, self_time, calls = self.total, self.self_time, self.calls
        tagged = self.tagged

        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                total[name] += dt
                self_time[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
                if tag is not None:
                    tagged[tag] += dt
            if on_result is not None:
                on_result(out)
            return out

        setattr(obj, attr, span)

    def restore(self) -> None:
        """Put every wrapped method back, newest first."""
        while self._undo:
            obj, attr, had, orig = self._undo.pop()
            if had:
                setattr(obj, attr, orig)
            else:
                delattr(obj, attr)
        self._wrapped.clear()

    # ------------------------------------------------------------------
    def note_batch(self, result) -> None:
        k = self.kernel
        k["edges"] += len(result.stats)
        k["vplus"] += sum(len(s.v_plus) for s in result.stats)
        k["vstar"] += sum(len(s.v_star) for s in result.stats)
        k["lock_failures"] += result.report.lock_failures
        k["total_work_sim"] += result.report.total_work
        k["makespan_sim"] += result.report.makespan

    def instrument_engine(self, eng, publisher=None, entry: bool = True) -> None:
        """Wrap one monolithic engine's layers.  ``entry=False`` leaves
        the client entry points alone (shard engines are entered through
        the router's spans)."""
        if entry:
            for m in ENGINE_ENTRIES:
                self.wrap(eng, m, "engine",
                          tag="window.advance" if m in WINDOW_ENTRIES else None)
        b = eng.batcher
        for m in ("classify", "queue", "drop", "note_query", "note_queries"):
            self.wrap(b, m, "batcher.classify")
        for m in ("cut_reason", "cut"):
            self.wrap(b, m, "batcher.cut")
        mt = eng.maintainer
        self.wrap(mt, "insert_edges", "kernel.insert", on_result=self.note_batch)
        self.wrap(mt, "remove_edges", "kernel.remove", on_result=self.note_batch)
        self.wrap(mt.policy, "plan", "scheduling.plan")
        j = eng.journal
        for m, name in (("log_intent", "journal.intent"),
                        ("log_commit", "journal.commit"),
                        ("log_checkpoint", "journal.checkpoint"),
                        ("log_prepare", "journal.prepare"),
                        ("log_commit2", "journal.commit2"),
                        ("log_abort2", "journal.abort2")):
            self.wrap(j, m, name)
        self.wrap(eng.snapshots, "commit", "snapshots.commit")
        self.wrap(eng.snapshots, "view", "snapshots.view")
        self.wrap(eng.metrics_collector, "record_epoch", "metrics.record_epoch")
        if publisher is not None:
            self.wrap(publisher, "publish", "queryplane.publish")
        for m in POINT_QUERY_METHODS:
            self.wrap(SnapshotView, m, "snapshots.point_query")
        for m in AGG_QUERY_METHODS:
            self.wrap(SnapshotView, m, "snapshots.agg_query")

    def instrument_sharded(self, eng) -> None:
        """Wrap the router, its 2PC participant calls and every shard."""
        for m in ("submit", "flush", "advance_to"):
            self.wrap(eng, m, "engine")
        self.wrap(eng, "_stitch", "sharding.stitch")
        for sh in eng.shards:
            self.wrap(sh, "submit", "sharding.shard_submit")
            self.wrap(sh, "prepare_group", "sharding.prepare")
            self.wrap(sh, "commit_group", "sharding.commit_group")
            self.instrument_engine(sh.engine, entry=False)
