"""k-order bookkeeping shared by all order-based maintenance algorithms.

The k-order (Definition 3.5) is the total order ``O = O_0 O_1 O_2 ...``
over all vertices: vertices with smaller core numbers first, and within one
core value ``k`` the segment ``O_k`` is a valid BZ peeling order.

The whole order lives in **one** OM list (as in the paper, where
``Order(x, y)`` is a pure label comparison), with a permanent *anchor item*
at the head of every segment::

    [anchor_0] v v v [anchor_1] v v [anchor_2] ...

Anchors make "insert at the head of O_{K+1}" and "append at the tail of
O_{K-1}" plain ``insert_after`` calls, and — crucially for the parallel
algorithms — they keep ``precedes`` a label-only comparison that never
reads core numbers, so a concurrent core update cannot tear an order
comparison in half (the paper's Algorithm 4 protocol covers the labels;
core values are read separately under their own rules).

:class:`KOrder` also owns the authoritative ``core`` map; the maintenance
algorithms read and write core numbers through it so order and cores
cannot drift apart.  Orienting each edge from the earlier to the later
endpoint yields the DAG of Section 3.1; ``post``/``pre`` are computed on
the fly from adjacency plus order (the paper stores no explicit DAG
either).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Dict, Hashable, List, Optional

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.storage import make_vertex_map, raw_get, raw_map
from repro.om.list_labels import OMItem
from repro.om.parallel_om import ParallelOMList

Vertex = Hashable

__all__ = ["KOrder"]


class _Anchor:
    """Payload marking the permanent head-of-segment items."""

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        self.k = k

    def __repr__(self) -> str:  # pragma: no cover
        return f"<anchor O_{self.k}>"


class KOrder:
    """Single-list k-order with per-core anchors + authoritative core map."""

    __slots__ = ("om", "core", "items", "anchors", "max_level", "mutex", "trace")

    def __init__(self, capacity: int = 64) -> None:
        self.om = ParallelOMList(capacity=capacity)
        self.core: Dict[Vertex, int] = {}
        self.items: Dict[Vertex, OMItem] = {}
        self.anchors: Dict[int, OMItem] = {}
        self.max_level = -1
        # Set by the thread backend: serializes *structural* OM mutations
        # (splices and relabels), standing in for the internal
        # synchronization of the parallel OM structure [11].  Order
        # comparisons stay lock-free (status-counter protocol), as in the
        # paper.  Under the step-atomic simulator it stays None.
        self.mutex = None
        # Optional RaceDetector hook (repro.analysis.instrument_state):
        # order positions are traced as ("order", v) locations — plain
        # for lock-protected comparisons and moves, relaxed for the
        # Algorithm 4 status-validated protocol reads.
        self.trace = None
        self._ensure_level(0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_decomposition(
        cls,
        core: Dict[Vertex, int],
        order: List[Vertex],
        capacity: int = 64,
        graph=None,
    ) -> "KOrder":
        """Build the order from a BZ peel sequence (non-decreasing cores).

        ``graph`` selects the per-vertex storage: flat slot maps over an
        array substrate, plain dicts otherwise (or when omitted).
        """
        ko = cls(capacity=capacity)
        ko.core = make_vertex_map(graph, core)
        items = list(map(OMItem, order))
        ko.items = make_vertex_map(graph, dict(zip(order, items)))
        # the anchor of level k goes right before the first vertex whose
        # core reaches k: where the running maximum of the cores does
        reach = list(accumulate(map(core.__getitem__, order), max))
        seq: List[OMItem] = []
        lo = 0
        for k in range(1, (reach[-1] if reach else 0) + 1):
            hi = bisect_left(reach, k, lo)
            seq.extend(items[lo:hi])
            a = OMItem(_Anchor(k))
            ko.anchors[k] = a
            seq.append(a)
            lo = hi
        seq.extend(items[lo:])
        ko.max_level = len(ko.anchors) - 1
        ko.om.extend(seq)
        return ko

    def _ensure_level(self, k: int) -> None:
        """Create the anchor for level ``k``; levels are contiguous, so a
        new anchor can only extend the top (``k == max_level + 1``)."""
        if k in self.anchors:
            return
        if k != self.max_level + 1:
            raise AssertionError(
                f"anchor levels must be contiguous: have 0..{self.max_level}, "
                f"asked for {k}"
            )
        a = OMItem(_Anchor(k))
        self.om.insert_tail(a)
        self.anchors[k] = a
        self.max_level = k

    def _ensure_levels_through(self, k: int) -> None:
        while self.max_level < k:
            self._ensure_level(self.max_level + 1)

    def add_vertex(self, u: Vertex, k: int = 0) -> None:
        """Register a brand-new vertex with core ``k`` at the tail of O_k."""
        if u in self.items:
            raise ValueError(f"vertex already in k-order: {u!r}")
        self._ensure_levels_through(k)
        self.core[u] = k
        item = OMItem(u)
        self.items[u] = item
        self._insert_segment_tail(item, k)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def item(self, u: Vertex) -> OMItem:
        return self.items[u]

    def status(self, u: Vertex) -> int:
        """The vertex's status counter ``u.s`` (paper Algorithm 4/5).
        A relaxed read for the race detector: status counters exist
        precisely to validate racy observations."""
        tr = self.trace
        if tr is not None:
            tr.read(("order", u), relaxed=True)
        return self.items[u].s

    def core_relaxed(self, u: Vertex, default: Optional[int] = None) -> Optional[int]:
        """Racy read of an (unlocked) vertex's core number.

        The parallel algorithms read neighbor cores without locks by
        design — conditional locks (Algorithm 2) and the t protocol
        re-validate whatever was observed — so these reads are recorded
        as *relaxed* for the race detector instead of through the traced
        ``core`` dict."""
        tr = self.trace
        if tr is not None:
            tr.read(("core", u), relaxed=True)
        return raw_get(self.core, u, default)

    def precedes(self, u: Vertex, v: Vertex) -> bool:
        """Strict k-order comparison ``u < v``: pure label comparison on the
        global list (the paper's ``Order``).  Callers in parallel code
        must hold both vertices' locks (use :meth:`precedes_concurrent`
        otherwise); the race detector checks exactly that."""
        if u == v:
            return False
        tr = self.trace
        if tr is not None:
            tr.read(("order", u))
            tr.read(("order", v))
            return self.om.order(self.items[u], self.items[v])
        items = raw_map(self.items)
        return self.om.order(items[u], items[v])

    def precedes_concurrent(
        self, u: Vertex, v: Vertex, on_spin: Optional[Callable[[], None]] = None
    ) -> bool:
        """Algorithm 4: order comparison safe against in-flight moves."""
        if u == v:
            return False
        tr = self.trace
        if tr is not None:
            tr.read(("order", u), relaxed=True)
            tr.read(("order", v), relaxed=True)
            return self.om.order_concurrent(self.items[u], self.items[v], on_spin)
        # Hot path (untraced): index the raw item storage directly, like
        # ``precedes`` — this comparison dominates every Forward scan.
        items = raw_map(self.items)
        return self.om.order_concurrent(items[u], items[v], on_spin)

    def labels(self, u: Vertex) -> tuple:
        """Current ``(top, bottom)`` OM labels of ``u`` (relaxed read:
        consumers re-validate via the status/version protocol)."""
        tr = self.trace
        if tr is not None:
            tr.read(("order", u), relaxed=True)
        it = self.items[u]
        return it.group.label, it.label  # type: ignore[union-attr]

    def post(self, graph: DynamicGraph, u: Vertex, k: Optional[int] = None) -> List[Vertex]:
        """DAG successors of ``u``: neighbors ordered after ``u``,
        optionally filtered to core number ``k``."""
        if self.trace is None:
            # Hot path: index the raw storage directly (neighbors always
            # have core/items entries; u is never its own neighbor).
            core, items, order = raw_map(self.core), raw_map(self.items), self.om.order
            it_u = items[u]
            if k is None:
                return [v for v in graph.neighbors(u) if order(it_u, items[v])]
            return [
                v
                for v in graph.neighbors(u)
                if core[v] == k and order(it_u, items[v])
            ]
        out = []
        for v in graph.neighbors(u):
            if k is not None and self.core[v] != k:
                continue
            if self.precedes(u, v):
                out.append(v)
        return out

    def pre(self, graph: DynamicGraph, u: Vertex, k: Optional[int] = None) -> List[Vertex]:
        """DAG predecessors of ``u``: neighbors ordered before ``u``,
        optionally filtered to core number ``k``."""
        if self.trace is None:
            core, items, order = raw_map(self.core), raw_map(self.items), self.om.order
            it_u = items[u]
            if k is None:
                return [v for v in graph.neighbors(u) if order(items[v], it_u)]
            return [
                v
                for v in graph.neighbors(u)
                if core[v] == k and order(items[v], it_u)
            ]
        out = []
        for v in graph.neighbors(u):
            if k is not None and self.core[v] != k:
                continue
            if self.precedes(v, u):
                out.append(v)
        return out

    def count_post(self, graph: DynamicGraph, u: Vertex) -> int:
        """Steady-state remaining out-degree: ``|{v in adj : u < v}|``.

        Parallel callers hold ``u``'s lock but scan *unlocked* neighbors;
        the laziness discipline (materialize under lock, invalidate on
        change) tolerates the staleness, so the neighbor comparisons are
        relaxed reads for the race detector."""
        tr = self.trace
        if tr is not None:
            tr.read(("order", u), relaxed=True)
            items, order = self.items, self.om.order
            n = 0
            for v in graph.neighbors(u):
                tr.read(("order", v), relaxed=True)
                if order(items[u], items[v]):
                    n += 1
            return n
        items, order = raw_map(self.items), self.om.order
        it_u = items[u]
        return sum(1 for v in graph.neighbors(u) if order(it_u, items[v]))

    def sequence(self, k: int) -> List[Vertex]:
        """The vertices of segment ``O_k`` in order."""
        a = self.anchors.get(k)
        if a is None:
            return []
        out: List[Vertex] = []
        x = self.om.successor(a)
        while x is not None and not isinstance(x.payload, _Anchor):
            out.append(x.payload)
            x = self.om.successor(x)
        return out

    def full_sequence(self) -> List[Vertex]:
        """The whole k-order ``O_0 O_1 O_2 ...`` (anchors omitted)."""
        return [x.payload for x in self.om if not isinstance(x.payload, _Anchor)]

    @property
    def version(self) -> int:
        """Relabel version of the underlying OM list (Appendix E's
        ``O_k.ver``)."""
        return self.om.version

    @property
    def relabels_in_progress(self) -> int:
        """Appendix E's ``O_k.cnt``."""
        return self.om.relabels_in_progress

    # ------------------------------------------------------------------
    # mutation (all wrapped in the status protocol so concurrent readers
    # under the simulated/thread machines can detect moves)
    # ------------------------------------------------------------------
    def _move(self, u: Vertex, action) -> None:
        tr = self.trace
        if tr is not None:
            # a splice is a write of u's order position; the mover must
            # hold u's lock (checked by the detector's lockset analysis)
            tr.write(("order", u))
        item = self.items[u]
        if self.mutex is not None:
            with self.mutex:
                item.s += 1
                try:
                    action(item)
                finally:
                    item.s += 1
            return
        item.s += 1
        try:
            action(item)
        finally:
            item.s += 1

    def _insert_segment_tail(self, item: OMItem, k: int) -> None:
        nxt = self.anchors.get(k + 1)
        if nxt is None:
            self.om.insert_tail(item)
        else:
            self.om.insert_before(nxt, item)

    def set_core(self, u: Vertex, k: int) -> None:
        """Update the authoritative core number of ``u``.  Reposition
        (delete + insert_head/insert_tail) is managed separately."""
        self.core[u] = k

    def delete(self, u: Vertex) -> None:
        """Unlink ``u`` from the order (status-protected)."""

        def action(item: OMItem) -> None:
            self.om.delete(item)

        self._move(u, action)

    def insert_after_vertex(self, anchor: Vertex, u: Vertex) -> None:
        """Re-insert the (currently unlinked) ``u`` right after ``anchor``."""

        def action(item: OMItem) -> None:
            self.om.insert_after(self.items[anchor], item)

        self._move(u, action)

    def move_after_vertex(self, anchor: Vertex, u: Vertex) -> None:
        """Unlink ``u`` and re-insert right after ``anchor`` as one
        status-protected move (Backward's re-threading)."""

        def action(item: OMItem) -> None:
            self.om.delete(item)
            self.om.insert_after(self.items[anchor], item)

        self._move(u, action)

    def promote_head(self, u: Vertex, new_k: int) -> None:
        """Insertion end phase, first candidate: one status window covering
        unlink + core bump + splice at the head of O_{new_k}
        (Algorithm 5 line 16's ``<w.s++>; Delete; Insert; <w.s++>``)."""
        self._ensure_levels_through(new_k)

        def action(item: OMItem) -> None:
            self.om.delete(item)
            self.core[u] = new_k
            self.om.insert_after(self.anchors[new_k], item)

        self._move(u, action)

    def promote_after(self, anchor: Vertex, u: Vertex, new_k: int) -> None:
        """Insertion end phase, subsequent candidates: splice right after
        the previously promoted ``anchor`` (which must already be at core
        ``new_k``), as one status window."""
        if self.core[anchor] != new_k:
            raise ValueError("promote_after anchor must already be promoted")

        def action(item: OMItem) -> None:
            self.om.delete(item)
            self.core[u] = new_k
            self.om.insert_after(self.items[anchor], item)

        self._move(u, action)

    def demote_tail(self, u: Vertex, new_k: int) -> None:
        """Removal drop: one status window covering unlink + core drop +
        append at the tail of O_{new_k}.

        The paper's Algorithm 6 unlinks at drop time (line 24) but appends
        only in the end phase (line 17).  We append *at drop time*: with
        concurrent workers, end-phase appends can interleave against drop
        causality (x dropped because y dropped, yet x gets appended first),
        which breaks the valid-peel-order invariant ``d_out^+ <= core``.
        Drop-time appends are causally ordered — when x drops, every
        neighbor that will end up after x still has core >= K, so x's
        successor count is bounded by the observed ``mcd < K`` — and in a
        sequential run the resulting arrangement is identical (drop order
        equals end-phase order).  See DESIGN.md.
        """
        self._ensure_levels_through(new_k)

        def action(item: OMItem) -> None:
            self.om.delete(item)
            self.core[u] = new_k
            self._insert_segment_tail(item, new_k)

        self._move(u, action)

    def insert_head(self, u: Vertex) -> None:
        """Place the (currently unlinked) ``u`` at the head of its core's
        segment — the insertion end phase's move to the beginning of
        O_{K+1} (Algorithm 5 line 16 / Algorithm 7 line 10)."""
        k = self.core[u]
        self._ensure_levels_through(k)

        def action(item: OMItem) -> None:
            self.om.insert_after(self.anchors[k], item)

        self._move(u, action)

    def insert_tail(self, u: Vertex) -> None:
        """Append the (currently unlinked) ``u`` at the tail of its core's
        segment — the removal end phase's append to O_{K-1}
        (Algorithm 6 line 17 / Algorithm 10 line 11)."""
        k = self.core[u]
        self._ensure_levels_through(k)

        def action(item: OMItem) -> None:
            self._insert_segment_tail(item, k)

        self._move(u, action)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_valid(self, graph: DynamicGraph) -> None:
        """Assert the k-order invariants the maintenance algorithms rely on.

        (1) the OM list is internally consistent;
        (2) anchors appear in level order and every vertex lies in the
            segment of its core number;
        (3) ``d_out^+(u) <= core(u)`` for every vertex — the
            characterization of a valid peeling order.
        """
        self.om.check_invariants()
        current = -1
        seen = set()
        for x in self.om:
            if isinstance(x.payload, _Anchor):
                assert x.payload.k == current + 1, (
                    f"anchor {x.payload.k} out of sequence after {current}"
                )
                current = x.payload.k
            else:
                u = x.payload
                assert self.core[u] == current, (
                    f"{u!r} in segment O_{current} but core={self.core[u]}"
                )
                assert u not in seen, f"{u!r} appears twice"
                seen.add(u)
        assert seen == set(self.core), "k-order does not cover all vertices"
        for u in graph.vertices():
            d_out = self.count_post(graph, u)
            assert d_out <= self.core[u], (
                f"d_out^+({u!r})={d_out} > core={self.core[u]}"
            )
