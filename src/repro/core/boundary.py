"""The intern-once facade boundary shared by all maintenance facades.

Every user-facing maintainer (:class:`~repro.core.maintainer.OrderMaintainer`,
:class:`~repro.core.maintainer.TraversalMaintainer`,
:class:`~repro.parallel.batch.ParallelOrderMaintainer`,
:class:`~repro.parallel.threads.ThreadedOrderMaintainer`) accepts a public
graph whose vertices may be arbitrary hashable ids, but runs its
algorithms *int-natively* over the array substrate.  :class:`Boundary`
is where the two domains meet:

* given a :class:`~repro.graph.dynamic_graph.DynamicGraph`, it unwraps
  the shared :class:`~repro.graph.intgraph.IntGraph` + interner — the
  wrapper keeps observing every mutation because the substrate is shared,
  not copied;
* given an :class:`~repro.graph.intgraph.IntGraph` or any other
  :class:`~repro.graph.core.GraphCore` substrate (e.g. the legacy
  :class:`~repro.graph.dictgraph.DictGraph`), ids pass through untouched
  — this is what the representation differential tests and the
  dict-vs-array benchmark exercise.

Inputs (edge endpoints) are interned exactly once per call; outputs
(core maps, k-order sequences, per-edge ``v_star``/``v_plus`` stats) are
un-interned on the way out.  While the interner is in the *identity
regime* (dense-int external ids, the common case) both directions are
skipped entirely, so dense-int workloads pay nothing for the
compatibility layer.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Sequence, Tuple

from repro.core.state import InsertStats
from repro.graph.dynamic_graph import DynamicGraph

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["Boundary"]


class Boundary:
    """External-id ↔ int-id translation at a maintenance facade."""

    __slots__ = ("substrate", "interner", "public")

    def __init__(self, graph: Any) -> None:
        if isinstance(graph, DynamicGraph):
            #: What the algorithms run on (IntGraph for wrapped graphs).
            self.substrate = graph.ig
            #: Shared id mapping; None when ids already pass through.
            self.interner = graph.interner
        else:
            self.substrate = graph
            self.interner = None
        #: What ``maintainer.graph`` returns to users.
        self.public = graph

    # ------------------------------------------------------------------
    # inward (external -> int); interning registers new vertices
    # ------------------------------------------------------------------
    def vertex_in(self, u: Vertex):
        it = self.interner
        return it.intern(u) if it is not None else u

    def edges_in(self, edges: Sequence[Edge]) -> List[Tuple]:
        it = self.interner
        if it is None:
            return list(edges)
        intern = it.intern
        return [(intern(u), intern(v)) for u, v in edges]

    # ------------------------------------------------------------------
    # outward (int -> external); skipped in the identity regime
    # ------------------------------------------------------------------
    @property
    def translating(self) -> bool:
        it = self.interner
        return it is not None and not it.identity

    def vertex_out(self, i) -> Vertex:
        return self.interner.external(i) if self.translating else i

    def vertices_out(self, ids: Iterable) -> List[Vertex]:
        if not self.translating:
            return list(ids)
        ext = self.interner.external
        return [ext(i) for i in ids]

    def core_map_out(self, core) -> dict:
        """Snapshot a core map (slot map or dict) as an external-keyed dict."""
        if not self.translating:
            return dict(core.items())
        ext = self.interner.external
        return {ext(i): k for i, k in core.items()}

    def stats_out(self, stats):
        """Un-intern the vertex lists of one stats object or a list of them.

        Translation happens in place — the facade owns the objects the
        workers filled in.  ``RemoveStats.v_plus`` aliases ``v_star`` (a
        property), so only genuine fields are rewritten.
        """
        if not self.translating:
            return stats
        ext = self.interner.external
        for s in stats if isinstance(stats, list) else (stats,):
            s.v_star = [ext(i) for i in s.v_star]
            if isinstance(s, InsertStats):
                s.v_plus = [ext(i) for i in s.v_plus]
        return stats
