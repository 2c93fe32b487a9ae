"""User-facing maintenance facades.

:class:`OrderMaintainer` — the sequential Simplified-Order algorithm (OI/OR
of the paper, [12]): keeps core numbers, the k-order, remaining
out-degrees and lazy mcds across an arbitrary stream of edge insertions
and removals.

:class:`DirectOrderMaintainer` — the same OI/OR behind the batch surface
the serving engine drives (``insert_edges``/``remove_edges`` returning a
:class:`BatchResult`): the engine's default ``"direct"`` backend.

:class:`EdgeSetMaintainer` — that batch surface with no kernel behind
it: validation, faults and the edge set only (the sharded engine's
shards, whose router keeps the cores).

:class:`TraversalMaintainer` — the sequential Traversal baseline (TI/TR,
[27]): keeps only core numbers.

The first two share :class:`OrderFacade` (id boundary, core reads, the
checkpoint payload and its restore), as does the simulated parallel
:class:`~repro.parallel.batch.ParallelOrderMaintainer`.

>>> from repro.graph import DynamicGraph
>>> g = DynamicGraph([(0, 1), (1, 2), (0, 2)])
>>> m = OrderMaintainer(g)
>>> m.core(0)
2
>>> _ = m.insert_edge(0, 3); _ = m.insert_edge(1, 3); _ = m.insert_edge(2, 3)
>>> m.core(3)
3
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.core.boundary import Boundary
from repro.core.decomposition import core_decomposition, successor_counts
from repro.core.korder import KOrder
from repro.core.order_insert import order_insert_edge
from repro.core.order_remove import order_remove_edge
from repro.core.state import InsertStats, OrderState, RemoveStats
from repro.core.traversal import traversal_insert_edge, traversal_remove_edge
from repro.faults.plane import CRASH, STALL, BatchCrashed
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.graph.storage import make_vertex_map

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = [
    "OrderMaintainer",
    "DirectOrderMaintainer",
    "EdgeSetMaintainer",
    "TraversalMaintainer",
    "OrderFacade",
    "BatchResult",
    "DirectReport",
    "validate_batch",
    "DIRECT_UNIT",
]


def validate_batch(graph: DynamicGraph, edges: Sequence[Edge], inserting: bool) -> None:
    """Reject a malformed homogeneous batch before any mutation.

    Raises ``ValueError`` for self-loops, in-batch duplicates and
    insertions of present edges; ``KeyError`` for removals of absent
    edges.  Shared by the batch maintainers and by the serving engine's
    pre-apply guard (:mod:`repro.service.engine`), so every layer
    rejects exactly the same inputs.
    """
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop in batch: {u!r}")
        e = canonical_edge(u, v)
        if e in seen:
            raise ValueError(f"duplicate edge in batch: {e!r}")
        seen.add(e)
        if inserting and graph.has_edge(u, v):
            raise ValueError(f"edge already in graph: {e!r}")
        if not inserting and not graph.has_edge(u, v):
            raise KeyError(f"edge not in graph: {e!r}")


@dataclass
class BatchResult:
    """Outcome of one homogeneous batch.

    ``report`` is the backend's timing report — a
    :class:`~repro.parallel.runtime.SimReport` on the simulated machine,
    a :class:`DirectReport` on the direct kernel; ``stats`` holds one
    ``InsertStats``/``RemoveStats`` per edge; ``plan`` is the schedule
    that produced a simulated run (None on the direct kernel).
    """

    report: Any
    stats: list = field(default_factory=list)
    plan: Any = None

    @property
    def makespan(self) -> float:
        """Service time the batch is charged (work units)."""
        return self.report.makespan

    def v_plus_sizes(self) -> List[int]:
        """``|V+|`` per processed edge — the paper's Figure 5 data."""
        return [len(s.v_plus) for s in self.stats]


class OrderFacade:
    """Id boundary + :class:`OrderState` shared by the order-based
    maintainers: core reads, the invariant check and the checkpoint
    payload (:meth:`order_sequence`) with its exact restore
    (:meth:`from_checkpoint`)."""

    def __init__(
        self,
        graph: DynamicGraph,
        strategy: str = "small-degree-first",
        capacity: int = 64,
        seed: int = 0,
    ) -> None:
        # External ids are interned once here at the boundary; the
        # algorithms below run int-natively over the array substrate.
        self.boundary = Boundary(graph)
        self.state = OrderState.from_graph(
            self.boundary.substrate, strategy=strategy, capacity=capacity, seed=seed
        )

    @classmethod
    def from_checkpoint(
        cls,
        graph: DynamicGraph,
        cores: Dict[Vertex, int],
        order: Sequence[Vertex],
        **kwargs,
    ):
        """Rebuild a maintainer whose k-order is *exactly* ``order``.

        This is the recovery path (:mod:`repro.service.journal`): a
        checkpoint stores the committed graph, its core numbers and the
        full OM order; restoring through here reproduces the pre-crash
        order structure bit-identically, where a fresh BZ bootstrap
        would only reproduce the cores.  ``d_out^+`` is recomputed from
        the order (it is a pure function of order + adjacency).
        ``kwargs`` go to the constructor.
        """
        m = cls(DynamicGraph(), **kwargs)
        # isolated vertices (core 0, no incident edges) are in the order
        # but not in the edge list the graph was rebuilt from
        graph.add_vertices(order)
        m.boundary = Boundary(graph)
        sub = m.boundary.substrate
        if m.boundary.translating:
            to_int = graph.interner.tables()[0].__getitem__
            core_in = dict(zip(map(to_int, cores), cores.values()))
            order_in = list(map(to_int, order))
        else:
            core_in, order_in = cores, list(order)
        korder = KOrder.from_decomposition(
            core_in, order_in, capacity=kwargs.get("capacity", 64), graph=sub
        )
        d_out = successor_counts(sub.adjacency_lists(), order_in)
        m._adopt_state(OrderState(sub, korder, dict(zip(order_in, d_out))))
        return m

    def _adopt_state(self, state: OrderState) -> None:
        self.state = state

    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        return self.boundary.public

    def core(self, u: Vertex) -> int:
        """Current core number of ``u``."""
        return self.state.korder.core[self.boundary.vertex_in(u)]

    def cores(self) -> Dict[Vertex, int]:
        """Snapshot of all core numbers (external ids)."""
        return self.boundary.core_map_out(self.state.korder.core)

    def korder_sequence(self, k: int) -> List[Vertex]:
        """The current O_k sequence (diagnostics, external ids)."""
        return self.boundary.vertices_out(self.state.korder.sequence(k))

    def order_sequence(self) -> List[Vertex]:
        """The full OM k-order as external ids — non-decreasing in core.

        This is what a checkpoint stores (:mod:`repro.service.journal`):
        feeding it back through :meth:`from_checkpoint` reproduces the
        live order structure bit-identically.
        """
        return self.boundary.vertices_out(self.state.korder.full_sequence())

    def check(self) -> None:
        """Assert all steady-state invariants (differential vs. BZ)."""
        self.state.check_invariants()


class OrderMaintainer(OrderFacade):
    """Sequential order-based core maintenance (the paper's OI + OR).

    Parameters
    ----------
    graph:
        The initial graph.  The maintainer takes ownership: all edge
        changes must go through :meth:`insert_edge` / :meth:`remove_edge`.
    strategy:
        BZ tie-break strategy for the initial k-order (paper Section 3.1).
    capacity:
        OM-list group capacity (see :class:`repro.om.list_labels.OMList`).
    """

    def insert_edge(self, u: Vertex, v: Vertex) -> InsertStats:
        """Insert one edge; cores/k-order repaired in O(|E+| log |E+|)."""
        b = self.boundary
        return b.stats_out(
            order_insert_edge(self.state, b.vertex_in(u), b.vertex_in(v))
        )

    def remove_edge(self, u: Vertex, v: Vertex) -> RemoveStats:
        """Remove one edge; cores/k-order repaired in O(|E*|)."""
        b = self.boundary
        return b.stats_out(
            order_remove_edge(self.state, b.vertex_in(u), b.vertex_in(v))
        )

    def insert_edges(self, edges: Iterable[Edge]) -> List[InsertStats]:
        """Insert a batch sequentially (the paper's 1-worker OI)."""
        return [self.insert_edge(u, v) for u, v in edges]

    def remove_edges(self, edges: Iterable[Edge]) -> List[RemoveStats]:
        """Remove a batch sequentially (the paper's 1-worker OR)."""
        return [self.remove_edge(u, v) for u, v in edges]


#: the direct kernel's service-time charge, in cost-model work units, per
#: edge and per vertex it searched (``V+``) or moved (``V*``).  Calibrated
#: so a serving workload keeps the time-cut cadence it had on the
#: simulated 4-worker machine (``docs/service.md``, "Time").
DIRECT_UNIT = 16.0


@dataclass
class DirectReport:
    """Timing report of one direct batch, with the fields of
    :class:`~repro.parallel.runtime.SimReport` that the engine's metrics
    fold reads.  ``makespan`` is the deterministic charge
    ``DIRECT_UNIT * (1 + |V+| + |V*|)`` summed over the applied edges,
    plus injected stall time (also counted in ``spin_time``).  There are
    no locks, so ``lock_failures`` stays 0."""

    makespan: float = 0.0
    total_work: float = 0.0
    spin_time: float = 0.0
    lock_failures: int = 0
    crashes: int = 0
    stalls_injected: int = 0


class SerialPolicy:
    """The direct kernel's schedule: every edge in arrival order on one
    worker.  :meth:`plan` exists for callers that inspect schedules and
    is never called on the batch path."""

    name = "fifo"

    def plan(self, edges, workers, *, state=None, costs=None, seed=0):
        from repro.parallel.scheduling import Schedule

        return Schedule(policy=self.name, assignments=[list(edges)])


def _run_direct(plane, pairs, n: int, step) -> Tuple[DirectReport, list]:
    """The direct batch loop shared by :class:`DirectOrderMaintainer`
    and :class:`EdgeSetMaintainer`: ``step(u, v)`` applies one edge and
    returns its ``InsertStats``/``RemoveStats``; the fault plane is
    consulted before each step, and each edge is charged
    ``DIRECT_UNIT * (1 + |V+| + |V*|)``.  ``n`` is the batch size a
    crash message reports."""
    report = DirectReport()
    stats = []
    if plane is not None:
        plane.begin_run()
    work = 0.0
    for u, v in pairs:
        if plane is not None:
            fault = plane.decide(0, "tick")
            if fault is not None:
                if fault[0] == CRASH:
                    report.crashes += 1
                    report.total_work = work
                    report.makespan = work + report.spin_time
                    raise BatchCrashed(
                        f"direct batch crashed after {len(stats)} of "
                        f"{n} edge(s); state corrupt",
                        report=report,
                    )
                if fault[0] == STALL:
                    report.stalls_injected += 1
                    report.spin_time += fault[1] * DIRECT_UNIT
        s = step(u, v)
        stats.append(s)
        work += DIRECT_UNIT * (1 + len(s.v_plus) + len(s.v_star))
    report.total_work = work
    report.makespan = work + report.spin_time
    return report, stats


class DirectOrderMaintainer(OrderFacade):
    """The serving engine's kernel: each homogeneous batch is applied
    edge by edge with the sequential OI/OR on one :class:`OrderState`.

    Cores are a function of the edge set, so they equal what the
    simulated OurI/OurR computes; the OM order may break ties
    differently, which is why every replica and restart of an engine
    builds this same maintainer.

    ``faults`` (a :class:`~repro.faults.FaultPlane`) is consulted once
    per edge, before the edge is applied: a crash raises
    :class:`~repro.faults.BatchCrashed` with the batch half applied (the
    engine rebuilds from its journal), a stall charges
    ``stall_ticks * DIRECT_UNIT`` to the batch.  Acquire-timeouts need
    locks and exist only on the simulated kernel.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        strategy: str = "small-degree-first",
        capacity: int = 64,
        faults=None,
    ) -> None:
        super().__init__(graph, strategy=strategy, capacity=capacity)
        self.policy = SerialPolicy()
        self.faults = faults

    def insert_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """Apply an insertion batch with OI, edge by edge."""
        validate_batch(self.boundary.public, edges, inserting=True)
        return self._apply(order_insert_edge, edges)

    def remove_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """Apply a removal batch with OR, edge by edge."""
        validate_batch(self.boundary.public, edges, inserting=False)
        return self._apply(order_remove_edge, edges)

    def _apply(self, kernel, edges: Sequence[Edge]) -> BatchResult:
        report, stats = _run_direct(
            self.faults, self.boundary.edges_in(edges), len(edges),
            partial(kernel, self.state))
        return BatchResult(report=report, stats=self.boundary.stats_out(stats))


class EdgeSetMaintainer:
    """The :class:`DirectOrderMaintainer` batch surface over a bare edge
    set: batches are validated and applied to the graph, and nothing
    else is kept — no cores, no k-order.

    A shard of the sharded engine (:mod:`repro.service.sharding`) runs
    this: the router maintains the global cores over the union graph, so
    a shard only needs its edge set.  Each batch reports one empty
    ``InsertStats``/``RemoveStats`` per edge and is charged
    ``DIRECT_UNIT`` per edge; ``faults`` acts exactly as on the direct
    kernel.  :meth:`cores` is empty and :meth:`core` raises ``KeyError``,
    so a :class:`~repro.service.snapshots.SnapshotStore` over it commits
    no slots.  A checkpoint stores no cores, and its ``order`` lists the
    present vertices (no k-order), so a vertex whose last edge went
    survives a restart.
    """

    def __init__(self, graph: DynamicGraph, faults=None) -> None:
        self.graph = graph
        self.policy = SerialPolicy()
        self.faults = faults

    @classmethod
    def from_checkpoint(cls, graph: DynamicGraph, cores: Dict[Vertex, int],
                        order: Sequence[Vertex], **kwargs):
        """Restore from a checkpoint: the edges plus every vertex
        ``order`` names; ``cores`` (and any k-order meaning of ``order``,
        in checkpoints written by an order maintainer) is ignored."""
        graph.add_vertices(order)
        return cls(graph, **kwargs)

    def insert_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """Validate and add an insertion batch."""
        validate_batch(self.graph, edges, inserting=True)
        return self._apply(self.graph.add_edge, InsertStats, edges)

    def remove_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """Validate and drop a removal batch."""
        validate_batch(self.graph, edges, inserting=False)
        return self._apply(self.graph.remove_edge, RemoveStats, edges)

    def _apply(self, mutate, empty, edges: Sequence[Edge]) -> BatchResult:
        def step(u, v):
            mutate(u, v)
            return empty()

        report, stats = _run_direct(self.faults, edges, len(edges), step)
        return BatchResult(report=report, stats=stats)

    def core(self, u: Vertex) -> int:
        raise KeyError(u)

    def cores(self) -> Dict[Vertex, int]:
        return {}

    def order_sequence(self) -> List[Vertex]:
        """The present vertices: what a checkpoint's ``order`` holds."""
        return list(self.graph.vertices())

    def check(self) -> None:
        """An edge set has no invariant beyond the graph's own."""


class TraversalMaintainer:
    """Sequential Traversal core maintenance (the paper's TI + TR)."""

    def __init__(self, graph: DynamicGraph) -> None:
        self.boundary = Boundary(graph)
        sub = self.boundary.substrate
        self._core = make_vertex_map(sub, core_decomposition(sub).core)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        return self.boundary.public

    def core(self, u: Vertex) -> int:
        return self._core[self.boundary.vertex_in(u)]

    def cores(self) -> Dict[Vertex, int]:
        return self.boundary.core_map_out(self._core)

    # ------------------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> InsertStats:
        b = self.boundary
        return b.stats_out(
            traversal_insert_edge(
                b.substrate, self._core, b.vertex_in(u), b.vertex_in(v)
            )
        )

    def remove_edge(self, u: Vertex, v: Vertex) -> RemoveStats:
        b = self.boundary
        return b.stats_out(
            traversal_remove_edge(
                b.substrate, self._core, b.vertex_in(u), b.vertex_in(v)
            )
        )

    def insert_edges(self, edges: Iterable[Edge]) -> List[InsertStats]:
        return [self.insert_edge(u, v) for u, v in edges]

    def remove_edges(self, edges: Iterable[Edge]) -> List[RemoveStats]:
        return [self.remove_edge(u, v) for u, v in edges]

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Differential check against a fresh BZ decomposition."""
        sub = self.boundary.substrate
        fresh = core_decomposition(sub).core
        for u in sub.vertices():
            assert self._core[u] == fresh[u], (
                f"core[{u!r}]={self._core[u]} != BZ {fresh[u]}"
            )
