"""Parallel-InsertEdges / Parallel-RemoveEdges (paper Algorithm 3).

:class:`ParallelOrderMaintainer` is the user-facing facade for OurI/OurR:
it owns the shared :class:`~repro.core.state.OrderState`, partitions each
batch ΔE across ``P`` workers, runs them on the simulated machine, and
returns both the per-edge instrumentation and the machine's timing report.

Insertions and removals never run concurrently with each other (Algorithm
3's note: "insertion and removal cannot run in parallel, which greatly
simplifies the synchronization"), so each batch is one homogeneous run.

One difference from a C implementation worth knowing: brand-new vertices
appearing in an insertion batch are registered *before* the parallel run
(a tiny sequential prologue) so workers never race on creating the same
vertex record — the paper's graphs preallocate all vertex slots, which is
the same thing.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.maintainer import BatchResult, OrderFacade, validate_batch
from repro.core.state import InsertStats, OrderState, RemoveStats
from repro.faults.plane import BatchCrashed, as_plane
from repro.graph.dynamic_graph import DynamicGraph
from repro.parallel.costs import CostModel
from repro.parallel.parallel_insert import insert_worker
from repro.parallel.parallel_remove import remove_worker
from repro.parallel.runtime import SimMachine, SimReport
from repro.parallel.scheduling import chunk_contiguous, get_policy

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = [
    "ParallelOrderMaintainer",
    "BatchResult",
    "partition_batch",
    "validate_batch",
]


# Contiguous chunking now lives in repro.parallel.scheduling (it is the
# fifo policy); re-exported here because it is Algorithm 3 line 1 and
# long-standing callers import it from this module.
partition_batch = chunk_contiguous


class ParallelOrderMaintainer(OrderFacade):
    """OurI/OurR on the simulated multicore.

    Parameters
    ----------
    graph:
        Initial graph (the maintainer takes ownership).
    num_workers:
        ``P`` — the paper sweeps 1..64; we default to 4.
    costs:
        Cost model for the simulated machine.
    schedule:
        ``"min-clock"`` (timing) or ``"random"`` (interleaving stress).
    seed:
        Seed for the random schedule.
    policy:
        Batch scheduling policy — a name from
        :data:`repro.parallel.scheduling.POLICIES` (``"fifo"``, ``"lpt"``,
        ``"conflict-aware"``) or a :class:`SchedulingPolicy` instance.
        Decides which edges run concurrently; never affects the final
        cores (differential-tested).
    detector:
        Optional :class:`repro.analysis.RaceDetector`.  When given, the
        shared state is instrumented (``repro.analysis.trace``) and every
        batch feeds read/write/lock events to it; off by default so the
        timing path pays nothing.
    faults:
        Optional :class:`repro.faults.FaultSpec` or
        :class:`~repro.faults.FaultPlane`.  When armed, batches run on a
        hostile machine that can crash/stall/timeout workers; a batch
        that loses a worker raises :class:`~repro.faults.BatchCrashed`
        and the maintainer's state must be discarded (the serving
        engine rebuilds it from the journal).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        num_workers: int = 4,
        costs: Optional[CostModel] = None,
        schedule: str = "min-clock",
        seed: int = 0,
        strategy: str = "small-degree-first",
        capacity: int = 64,
        detector=None,
        policy="fifo",
        faults=None,
    ) -> None:
        super().__init__(graph, strategy=strategy, capacity=capacity)
        self.num_workers = num_workers
        self.costs = costs or CostModel.from_env()
        self.schedule = schedule
        self.seed = seed
        self.policy = get_policy(policy)
        self.detector = detector
        self.faults = as_plane(faults, seed=seed)
        self._adopt_state(self.state)

    def _adopt_state(self, state: OrderState) -> None:
        # the detector sees every state block, including a checkpoint's
        self.state = state
        if self.detector is not None:
            from repro.analysis.trace import instrument_state

            instrument_state(self.state, self.detector)

    # ------------------------------------------------------------------
    def insert_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """Parallel-InsertEdges(G, O, ΔE): insert a batch with P workers."""
        validate_batch(self.boundary.public, edges, inserting=True)
        edges = self.boundary.edges_in(edges)
        for u, v in edges:  # sequential prologue: register new vertices
            self.state.ensure_vertex(u)
            self.state.ensure_vertex(v)
        # Scheduling runs after the prologue so footprint estimation sees
        # every endpoint's slot.
        plan = self.policy.plan(
            edges, self.num_workers,
            state=self.state, costs=self.costs, seed=self.seed,
        )
        outs: List[List[InsertStats]] = [[] for _ in plan.assignments]
        bodies = [
            insert_worker(self.state, chunk, self.costs, out, plan.waves_for(w))
            for w, (chunk, out) in enumerate(zip(plan.assignments, outs))
        ]
        report = self._machine().run(bodies)
        self._check_faulty(report)
        stats = self.boundary.stats_out([s for out in outs for s in out])
        return BatchResult(report=report, stats=stats, plan=plan)

    def remove_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """Parallel-RemoveEdges(G, O, ΔE): remove a batch with P workers."""
        validate_batch(self.boundary.public, edges, inserting=False)
        edges = self.boundary.edges_in(edges)
        plan = self.policy.plan(
            edges, self.num_workers,
            state=self.state, costs=self.costs, seed=self.seed,
        )
        outs: List[List[RemoveStats]] = [[] for _ in plan.assignments]
        bodies = [
            remove_worker(self.state, chunk, self.costs, out, plan.waves_for(w))
            for w, (chunk, out) in enumerate(zip(plan.assignments, outs))
        ]
        report = self._machine().run(bodies)
        self._check_faulty(report)
        stats = self.boundary.stats_out([s for out in outs for s in out])
        return BatchResult(report=report, stats=stats, plan=plan)

    # ------------------------------------------------------------------
    def _machine(self) -> SimMachine:
        return SimMachine(
            self.num_workers, self.costs, self.schedule, self.seed,
            detector=self.detector, faults=self.faults,
        )

    @staticmethod
    def _check_faulty(report: SimReport) -> None:
        if report.faulty:
            raise BatchCrashed(
                f"batch lost {report.crashes} worker(s) "
                f"(+{report.worker_errors} casualties, "
                f"{report.locks_orphaned} locks orphaned); state corrupt",
                report=report,
            )
