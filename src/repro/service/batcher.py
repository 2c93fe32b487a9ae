"""Adaptive micro-batching for the serving engine.

The paper's batch algorithms (``repro.parallel.batch``) need homogeneous
batches — all insertions or all removals.  :class:`PendingOps` is the
coalescing/cancellation buffer that cuts a mixed stream into such
batches: it accumulates one homogeneous *run* of edge operations,
coalesces duplicate same-kind operations, cancels an operation against
a queued opposite operation on the same edge, and reports a *conflict*
when an opposite-kind operation on a fresh edge means the current run
must be cut first.

:class:`AdaptiveBatcher` wraps a :class:`PendingOps` with the cut policy
of the engine's micro-batcher.  A run is cut when any of:

* **size** — the run reached ``max_batch`` operations;
* **time** — ``max_delay`` service-clock units elapsed since the run's
  first operation was queued (bounds update latency);
* **pressure** — ``query_pressure`` queries were answered since the last
  commit (bounds snapshot *staleness*: readers never block, so the only
  cost of a long-lived run is answering from an older epoch);
* **conflict** — an opposite-kind operation arrived (homogeneity forces
  the cut, preserving stream order);
* **flush** — the caller forced it.

The batcher never applies anything itself — the engine owns the clock and
the maintainer; the batcher just says *when* and *what*.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph.dynamic_graph import canonical_edge

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["PendingOps", "AdaptiveBatcher", "CUT_REASONS"]

CUT_REASONS = ("size", "time", "pressure", "conflict", "flush")

#: actions returned by :meth:`PendingOps.classify`
QUEUE = "queue"
COALESCE = "coalesce"
CANCEL = "cancel"
CONFLICT = "conflict"


class PendingOps:
    """One homogeneous run of pending edge operations.

    ``kind`` is ``"+"`` (insertions), ``"-"`` (removals) or ``None``
    (empty).  Edges are stored canonicalized, in arrival order.
    """

    def __init__(self) -> None:
        self.kind: Optional[str] = None
        self._ops: Dict[Edge, None] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, edge: Edge) -> bool:
        return canonical_edge(*edge) in self._ops

    def edges(self) -> List[Edge]:
        """The queued edges in arrival order."""
        return list(self._ops)

    # ------------------------------------------------------------------
    def classify(self, kind: str, u: Vertex, v: Vertex) -> Tuple[str, Edge]:
        """What would happen if ``(kind, u, v)`` were pushed now.

        Returns ``(action, canonical_edge)`` with action one of
        ``"queue"`` (fresh same-kind op), ``"coalesce"`` (duplicate of a
        queued op), ``"cancel"`` (opposite of a queued op — the pair nets
        to a no-op), ``"conflict"`` (opposite kind on a fresh edge — the
        run must be cut before this op can be queued).  Nothing is
        mutated; the caller follows up with :meth:`queue` or :meth:`drop`.
        """
        e = canonical_edge(u, v)
        if self.kind is not None and self.kind != kind:
            return (CANCEL if e in self._ops else CONFLICT), e
        if e in self._ops:
            return COALESCE, e
        return QUEUE, e

    def queue(self, kind: str, edge: Edge) -> None:
        """Append a fresh operation (caller already classified it)."""
        if self.kind not in (None, kind):
            raise ValueError(f"kind {kind!r} conflicts with pending {self.kind!r} run")
        self.kind = kind
        self._ops[edge] = None

    def drop(self, edge: Edge) -> None:
        """Remove a queued operation (the cancellation path)."""
        del self._ops[edge]
        if not self._ops:
            self.kind = None

    def cut(self) -> Tuple[Optional[str], List[Edge]]:
        """Return ``(kind, edges)`` of the current run and reset to empty."""
        kind, edges = self.kind, list(self._ops)
        self.kind = None
        self._ops.clear()
        return kind, edges


class AdaptiveBatcher:
    """Cut policy around a :class:`PendingOps` run.

    Parameters
    ----------
    max_batch:
        Cut when the run reaches this many operations (>= 1).
    max_delay:
        Cut when this much service-clock time passed since the run's first
        operation (``None`` disables the time trigger).
    query_pressure:
        Cut when this many queries were answered since the last commit
        while updates are pending (``None`` disables the trigger).
    """

    def __init__(
        self,
        max_batch: int = 512,
        max_delay: Optional[float] = None,
        query_pressure: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay is not None and max_delay <= 0:
            raise ValueError("max_delay must be positive or None")
        if query_pressure is not None and query_pressure < 1:
            raise ValueError("query_pressure must be >= 1 or None")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.query_pressure = query_pressure
        self.pending = PendingOps()
        self._first_queued_at: Optional[float] = None
        self._queries_since_commit = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pending)

    @property
    def kind(self) -> Optional[str]:
        return self.pending.kind

    def classify(self, kind: str, u: Vertex, v: Vertex) -> Tuple[str, Edge]:
        return self.pending.classify(kind, u, v)

    def queue(self, kind: str, edge: Edge, now: float) -> None:
        if not self.pending:
            self._first_queued_at = now
        self.pending.queue(kind, edge)

    def drop(self, edge: Edge) -> None:
        self.pending.drop(edge)
        if not self.pending:
            self._first_queued_at = None

    def note_query(self) -> None:
        self.note_queries(1)

    def note_queries(self, n: int) -> None:
        """Record ``n`` answered queries at once.

        The wait-free query plane answers reads in other OS processes —
        none of them pass through :meth:`note_query` — so the engine
        periodically folds the plane's shared read counter in here
        (:meth:`repro.service.engine.Engine.enable_queryplane`), keeping
        the ``pressure`` cut trigger honest under wait-free reads.
        """
        self._queries_since_commit += n

    # ------------------------------------------------------------------
    def cut_reason(self, now: float) -> Optional[str]:
        """The first triggered cut policy, or ``None`` if the run may
        keep accumulating."""
        if not self.pending:
            return None
        if len(self.pending) >= self.max_batch:
            return "size"
        if (
            self.max_delay is not None
            and self._first_queued_at is not None
            and now - self._first_queued_at >= self.max_delay
        ):
            return "time"
        if (
            self.query_pressure is not None
            and self._queries_since_commit >= self.query_pressure
        ):
            return "pressure"
        return None

    def cut(self) -> Tuple[Optional[str], List[Edge]]:
        """Take the current run (kind, edges) and reset all triggers."""
        self._first_queued_at = None
        self._queries_since_commit = 0
        return self.pending.cut()
