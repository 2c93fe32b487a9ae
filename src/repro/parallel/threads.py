"""Real-thread backend: validate the synchronization protocol under
genuine preemption.

The exact same worker generators that run on the simulated machine are
driven here by ``threading.Thread``s: ``("try", key)`` maps to a
non-blocking ``threading.Lock`` acquire, ``("spin",)`` to a scheduler
yield, ``("tick", _)`` to nothing.  The GIL removes any wall-clock speedup
(the reproduction gate), but it does NOT serialize logical interleavings —
threads preempt between bytecodes, so stale reads, order flips between
lock attempts, t-protocol races and PQ staleness all genuinely occur and
must be survived by the paper's protocol.

Three shared facilities get real mutexes (each standing in for hardware
atomicity the C implementation gets for free):

* ``KOrder.mutex`` — serializes *structural* OM splices/relabels (the
  internal synchronization of the parallel OM structure [11]); order
  comparisons stay lock-free via the status-counter protocol;
* ``OrderState.t_mutex`` — makes the t-protocol's CAS/decrements atomic;
* a registry lock for creating per-vertex locks.

The graph's edge count needs no post-run repair: ``IntGraph`` derives
``num_edges`` from adjacency lengths instead of keeping a mutable counter,
so it cannot be corrupted by unsynchronized increments (adjacency
mutations themselves are always protected by the endpoint locks the
algorithms hold).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence

from repro.core.maintainer import OrderFacade, validate_batch
from repro.core.state import InsertStats, RemoveStats
from repro.faults.plane import CRASH, STALL, TIMEOUT, BatchCrashed
from repro.graph.dynamic_graph import DynamicGraph
from repro.parallel.costs import CostModel
from repro.parallel.parallel_insert import insert_worker
from repro.parallel.parallel_remove import remove_worker
from repro.parallel.scheduling import get_policy

Key = Hashable

__all__ = ["ThreadMachine", "ThreadedOrderMaintainer", "ThreadReport"]


@dataclass
class ThreadReport:
    """Outcome of one threaded run (correctness-oriented; no makespan)."""

    wall_s: float = 0.0
    workers: int = 0
    errors: List[BaseException] = field(default_factory=list)
    # fault-injection outcome (mirrors SimReport's fault block)
    crashes: int = 0
    worker_errors: int = 0
    stalls_injected: int = 0
    timeouts_injected: int = 0
    locks_orphaned: int = 0

    @property
    def faulty(self) -> bool:
        """True when the run lost a worker (state presumed corrupt)."""
        return bool(self.crashes or self.worker_errors)


class ThreadMachine:
    """Drive worker generators with real threads.

    When a :class:`repro.analysis.RaceDetector` is attached, the same
    read/write/acquire/release events the simulator reports are mirrored
    here — worker identity is resolved per thread (``register_thread``),
    and the detector's internal lock serializes its bookkeeping.
    """

    def __init__(self, num_workers: int, detector=None, faults=None) -> None:
        self.num_workers = num_workers
        self.detector = detector
        self.faults = faults
        self._locks: Dict[Key, threading.Lock] = {}
        self._registry = threading.Lock()

    def _lock_of(self, key: Key) -> threading.Lock:
        lk = self._locks.get(key)
        if lk is None:
            with self._registry:
                lk = self._locks.setdefault(key, threading.Lock())
        return lk

    #: faults armed: a worker burning this many *consecutive* spins is
    #: declared a casualty (corrupted state can make a conditional wait
    #: spin forever, and real threads have no livelock detector)
    SPIN_CAP = 1_000_000

    def _die(self, report: ThreadReport, wid: int, held: List[Key],
             crashed: bool) -> None:
        """Terminal bookkeeping for an injected crash or a casualty:
        release held locks (robust-mutex semantics — survivors must not
        spin forever on a dead worker's locks) and count the loss."""
        det = self.detector
        with self._registry:
            if crashed:
                report.crashes += 1
            else:
                report.worker_errors += 1
            report.locks_orphaned += len(held)
        if det is not None and hasattr(det, "on_fault"):
            det.on_fault(wid, CRASH)
        for k in held:
            self._lock_of(k).release()
        held.clear()

    def _drive(self, gen, report: ThreadReport, wid: int) -> None:
        det = self.detector
        plane = self.faults
        if det is not None:
            det.register_thread(wid)
        held: List[Key] = []
        spins = 0
        val = None
        try:
            while True:
                try:
                    ev = gen.send(val)
                except StopIteration:
                    return
                kind = ev[0]
                if plane is not None:
                    fault = plane.decide(wid, kind)
                    if fault is not None:
                        action, ticks = fault
                        if action == CRASH:
                            gen.close()
                            self._die(report, wid, held, crashed=True)
                            return
                        if action == STALL:
                            with self._registry:
                                report.stalls_injected += 1
                            for _ in range(ticks):
                                time.sleep(0)
                        elif action == TIMEOUT and kind == "try":
                            with self._registry:
                                report.timeouts_injected += 1
                            val = False
                            continue
                if kind == "tick":
                    val = None
                elif kind == "try":
                    spins = 0
                    val = self._lock_of(ev[1]).acquire(blocking=False)
                    if val:
                        held.append(ev[1])
                        if det is not None:
                            det.on_acquire(wid, ev[1])
                elif kind == "release":
                    if det is not None:
                        det.on_release(wid, ev[1])
                    self._lock_of(ev[1]).release()
                    try:
                        held.remove(ev[1])
                    except ValueError:  # pragma: no cover - protocol error
                        pass
                    val = None
                elif kind == "spin":
                    if plane is not None:
                        spins += 1
                        if spins > self.SPIN_CAP:
                            gen.close()
                            self._die(report, wid, held, crashed=False)
                            return
                    time.sleep(0)  # yield the GIL
                    val = None
                elif kind == "read":
                    if det is not None:
                        det.read(ev[1], site=ev[2] if len(ev) > 2 else "<event>")
                    val = None
                elif kind == "write":
                    if det is not None:
                        det.write(ev[1], site=ev[2] if len(ev) > 2 else "<event>")
                    val = None
                elif kind == "wave":
                    # schedule-wave marker: timing metadata only, nothing
                    # to do under real threads
                    val = None
                else:  # pragma: no cover - protocol error
                    raise RuntimeError(f"unknown event {ev!r}")
        except BaseException as exc:  # noqa: BLE001 - surface to the caller
            if plane is not None and report.crashes:
                # downstream casualty of an injected crash: corrupted
                # state killed a survivor — count it, free its locks
                self._die(report, wid, held, crashed=False)
                return
            report.errors.append(exc)

    def run(self, bodies: Sequence) -> ThreadReport:
        report = ThreadReport(workers=len(bodies))
        if self.detector is not None:
            self.detector.begin(len(bodies), threads=True)
        if self.faults is not None:
            self.faults.begin_run()
        threads = [
            threading.Thread(target=self._drive, args=(gen, report, wid))
            for wid, gen in enumerate(bodies)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report.wall_s = time.perf_counter() - t0
        if report.errors:
            raise report.errors[0]
        return report


class ThreadedOrderMaintainer(OrderFacade):
    """OurI/OurR executed by real threads (protocol validation harness).

    Same interface as :class:`~repro.parallel.batch.ParallelOrderMaintainer`
    but returns :class:`ThreadReport` objects (wall time, no makespan).
    """

    def __init__(
        self, graph: DynamicGraph, num_workers: int = 4, detector=None,
        policy="fifo", faults=None,
    ) -> None:
        super().__init__(graph)
        self.state.korder.mutex = threading.Lock()
        self.state.t_mutex = threading.Lock()
        self.num_workers = num_workers
        self.costs = CostModel.from_env()
        self.policy = get_policy(policy)
        self.detector = detector
        self.faults = faults
        if detector is not None:
            from repro.analysis.trace import instrument_state

            instrument_state(self.state, detector)

    # ------------------------------------------------------------------
    def _plan(self, edges):
        return self.policy.plan(
            list(edges), self.num_workers, state=self.state, costs=self.costs
        )

    def insert_edges(self, edges) -> ThreadReport:
        edges = list(edges)
        validate_batch(self.boundary.public, edges, inserting=True)
        edges = self.boundary.edges_in(edges)
        for u, v in edges:
            self.state.ensure_vertex(u)
            self.state.ensure_vertex(v)
        plan = self._plan(edges)
        outs: List[List[InsertStats]] = []
        bodies = []
        for w, chunk in enumerate(plan.assignments):
            out: List[InsertStats] = []
            outs.append(out)
            bodies.append(
                insert_worker(self.state, chunk, self.costs, out, plan.waves_for(w))
            )
        return self._run(bodies)

    def remove_edges(self, edges) -> ThreadReport:
        edges = list(edges)
        validate_batch(self.boundary.public, edges, inserting=False)
        edges = self.boundary.edges_in(edges)
        plan = self._plan(edges)
        outs: List[List[RemoveStats]] = []
        bodies = []
        for w, chunk in enumerate(plan.assignments):
            out: List[RemoveStats] = []
            outs.append(out)
            bodies.append(
                remove_worker(self.state, chunk, self.costs, out, plan.waves_for(w))
            )
        return self._run(bodies)

    def _run(self, bodies) -> ThreadReport:
        report = ThreadMachine(
            self.num_workers, detector=self.detector, faults=self.faults
        ).run(bodies)
        if report.faulty:
            raise BatchCrashed(
                f"threaded batch lost {report.crashes} worker(s) "
                f"(+{report.worker_errors} casualties); state corrupt",
                report=report,
            )
        return report
