"""Shared mutable state for order-based core maintenance.

One :class:`OrderState` instance holds everything the Order algorithms
(sequential OI/OR and the parallel OurI/OurR) read and write:

* the dynamic graph;
* the :class:`~repro.core.korder.KOrder` (per-k OM lists + core numbers);
* ``d_out`` — remaining out-degrees ``d_out^+`` (Definition 3.7), kept
  *lazily*: ``None`` means "unknown, recompute on demand when the vertex
  is locked".  Laziness matters for the parallel algorithms: a removal's
  end phase shifts the orientation of edges incident to dropped vertices,
  and invalidating (rather than recomputing) means no worker ever writes a
  counter of a vertex it has not locked;
* ``mcd`` — max-core degrees (Definition 3.8), also lazy (the ∅ value of
  the parallel Algorithm 6, ``u.mcd ← ∅``).  Insertions that change core
  numbers invalidate affected entries; removals maintain touched entries
  eagerly while propagating;
* ``t`` — the 4-state removal-propagation status of Algorithm 6
  (0 = idle/done, 2 = queued, 1 = propagating, 3 = must re-propagate).
  Only the parallel removal reads it concurrently; it is kept here so the
  sequential and parallel code paths share one state block.

Candidate in-degrees ``d_in^*`` are operation-local (they are provably 0
between operations) and live inside each algorithm, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Optional

from repro.core.decomposition import core_decomposition
from repro.core.korder import KOrder
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.storage import make_vertex_map, raw_map, raw_set

Vertex = Hashable

__all__ = ["OrderState", "InsertStats", "RemoveStats"]


@dataclass
class InsertStats:
    """Per-edge-insertion instrumentation (drives the Figure 5 benchmark).

    ``work`` is the abstract work-unit count consumed by the operation
    (only filled in by algorithms that account it — the Traversal family
    and the batch baselines; the parallel Order algorithms charge their
    work to the simulated machine instead).
    """

    v_star: list = field(default_factory=list)  # candidates whose core rose
    v_plus: list = field(default_factory=list)  # searched (== locked) set
    work: float = 0.0


@dataclass
class RemoveStats:
    """Per-edge-removal instrumentation.  For removal ``V+ == V*``."""

    v_star: list = field(default_factory=list)
    work: float = 0.0

    @property
    def v_plus(self) -> list:
        return self.v_star


class OrderState:
    """The state block shared by all order-based maintenance algorithms."""

    __slots__ = ("graph", "korder", "d_out", "mcd", "t", "t_mutex", "trace")

    def __init__(self, graph: DynamicGraph, korder: KOrder, d_out: Dict[Vertex, int]):
        self.graph = graph
        self.korder = korder
        # Storage follows the substrate: flat slots over IntGraph, plain
        # dicts over hashable-id graphs (see repro.graph.storage).
        self.d_out = make_vertex_map(graph, d_out)
        self.mcd = make_vertex_map(graph, dict.fromkeys(korder.core))
        self.t = make_vertex_map(graph)
        # Set by the thread backend to make t-transitions genuinely atomic
        # (the simulator's step-atomicity makes plain ops equivalent).
        self.t_mutex = None
        # Optional RaceDetector hook (repro.analysis); None means no
        # tracing and zero overhead beyond the is-None tests below.
        self.trace = None

    # ------------------------------------------------------------------
    # t-protocol primitives (Algorithm 6); the simulator runs them as one
    # atomic step, the thread backend serializes them through t_mutex.
    # All t accesses are *relaxed* for the race detector: the t protocol
    # is the paper's own synchronization mechanism (atomics + CAS), so
    # its racy reads are designed-in, not defects.
    # ------------------------------------------------------------------
    def t_add(self, v: Vertex, delta: int) -> int:
        """Atomically add ``delta`` to ``t[v]`` and return the new value."""
        tr = self.trace
        if tr is not None:
            tr.read(("t", v), relaxed=True)
            tr.write(("t", v), relaxed=True)
        if self.t_mutex is None:
            new = self.t.get(v, 0) + delta
            self.t[v] = new
            return new
        with self.t_mutex:
            new = self.t.get(v, 0) + delta
            self.t[v] = new
            return new

    def t_cas(self, v: Vertex, old: int, new: int) -> bool:
        """CAS on ``t[v]`` (paper's ``CAS(v.t, 1, 3)``)."""
        tr = self.trace
        if tr is not None:
            tr.read(("t", v), relaxed=True)
            tr.write(("t", v), relaxed=True)
        if self.t_mutex is None:
            if self.t.get(v, 0) == old:
                self.t[v] = new
                return True
            return False
        with self.t_mutex:
            if self.t.get(v, 0) == old:
                self.t[v] = new
                return True
            return False

    def t_set(self, v: Vertex, value: int) -> None:
        """Atomic store to ``t[v]`` (the drop-time ``t ← 2`` publish)."""
        tr = self.trace
        if tr is not None:
            tr.write(("t", v), relaxed=True)
        self.t[v] = value

    def t_relaxed(self, v: Vertex) -> int:
        """Racy read of ``t[v]`` (CheckMCD's unlocked neighbor probe)."""
        tr = self.trace
        if tr is not None:
            tr.read(("t", v), relaxed=True)
        return self.t.get(v, 0)

    # ------------------------------------------------------------------
    # ∅-invalidation wipes: the one place a worker writes a counter of a
    # vertex it has NOT locked.  Safe by design — the written value is
    # only ever the "unknown, recompute under lock" sentinel, which every
    # reader must tolerate anyway — hence relaxed for the race detector.
    # ------------------------------------------------------------------
    def d_out_wipe(self, v: Vertex) -> None:
        """Invalidate ``d_out[v]`` without holding ``v``'s lock."""
        tr = self.trace
        if tr is not None:
            tr.write(("d_out", v), relaxed=True)
        raw_set(self.d_out, v, None)

    def mcd_wipe(self, v: Vertex) -> None:
        """Invalidate ``mcd[v]`` without holding ``v``'s lock."""
        tr = self.trace
        if tr is not None:
            tr.write(("mcd", v), relaxed=True)
        raw_set(self.mcd, v, None)

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: DynamicGraph,
        strategy: str = "small-degree-first",
        capacity: int = 64,
        seed: int = 0,
    ) -> "OrderState":
        """Initialize cores, k-order and d_out^+ with BZ (paper Algorithm 1)."""
        decomp = core_decomposition(graph, strategy=strategy, seed=seed)
        korder = KOrder.from_decomposition(
            decomp.core, decomp.order, capacity=capacity, graph=graph
        )
        return cls(graph, korder, decomp.d_out)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def ensure_vertex(self, u: Vertex) -> None:
        """Register a vertex appearing for the first time: core 0, placed
        at the tail of O_0 (a degree-0 vertex peels first at level 0)."""
        if u not in self.korder.items:
            self.graph.add_vertex(u)
            self.korder.add_vertex(u, 0)
            self.d_out[u] = 0
            self.mcd[u] = None

    def ensure_mcd(
        self,
        x: Vertex,
        pending: Iterable[Vertex] = (),
        visitor: Optional[Vertex] = None,
    ) -> int:
        """Materialize ``mcd[x]`` if unknown and return it.

        This is the sequential counterpart of the parallel ``CheckMCD``
        (Algorithm 6 lines 26-34).  A neighbor ``v`` *supports* ``x`` when

        * ``core[v] >= core[x]``, or
        * ``core[v] == core[x] - 1`` and ``v`` has dropped during the
          current removal but has not yet propagated to ``x``: it is still
          in the propagation queue (``pending``, the paper's ``v.t > 0``)
          or it is the vertex visiting ``x`` right now (``visitor``, whose
          imminent ``DoMCD`` decrement must see itself counted — the
          paper's ``v = w`` special case).
        """
        # Registered vertices always have core/mcd entries, so when
        # untraced the loop indexes raw storage (C-speed on both
        # substrates).
        if self.trace is None:
            mcd, core = raw_map(self.mcd), raw_map(self.korder.core)
            cur = mcd[x]
        else:
            mcd, core = self.mcd, self.korder.core
            cur = mcd.get(x)
        if cur is not None:
            return cur
        cx = core[x]
        pend = set(pending)
        cnt = 0
        for v in self.graph.neighbors(x):
            cv = core[v]
            if cv >= cx:
                cnt += 1
            elif cv == cx - 1 and (v in pend or v == visitor):
                cnt += 1
        mcd[x] = cnt
        return cnt

    def invalidate_mcd_around(self, vertices: Iterable[Vertex]) -> None:
        """Drop cached mcd for ``vertices`` and all their neighbors — used
        after insertions change core numbers."""
        mcd = raw_map(self.mcd) if self.trace is None else self.mcd
        for w in vertices:
            mcd[w] = None
            for x in self.graph.neighbors(w):
                mcd[x] = None

    def ensure_d_out(self, u: Vertex) -> int:
        """Materialize ``d_out^+[u]`` (count of k-order successors among
        neighbors) if unknown and return it.  Callers in the parallel
        algorithms must hold u's lock."""
        if self.trace is None:
            d_out = raw_map(self.d_out)
            cur = d_out[u]
            if cur is None:
                cur = self.korder.count_post(self.graph, u)
                d_out[u] = cur
            return cur
        cur = self.d_out.get(u)
        if cur is None:
            cur = self.korder.count_post(self.graph, u)
            self.d_out[u] = cur
        return cur

    def refresh_d_out(self, u: Vertex) -> None:
        """Recompute ``d_out^+[u]`` from the current k-order."""
        self.d_out[u] = self.korder.count_post(self.graph, u)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert every steady-state invariant (tests / debugging).

        * k-order valid (per-list OM invariants, ``d_out <= core``);
        * ``d_out`` matches a fresh post-count;
        * every materialized ``mcd`` matches Definition 3.8 and is
          ``>= core``;
        * core numbers equal a from-scratch BZ decomposition.
        """
        ko = self.korder
        ko.check_valid(self.graph)
        for u in self.graph.vertices():
            cached_dout = self.d_out.get(u)
            if cached_dout is not None:
                expect = ko.count_post(self.graph, u)
                assert cached_dout == expect, (
                    f"d_out[{u!r}]={cached_dout} != {expect}"
                )
            cached = self.mcd.get(u)
            if cached is not None:
                cu = ko.core[u]
                true_mcd = sum(
                    1 for v in self.graph.neighbors(u) if ko.core[v] >= cu
                )
                assert cached == true_mcd, (
                    f"mcd[{u!r}]={cached} != {true_mcd}"
                )
                assert cached >= cu, f"mcd[{u!r}]={cached} < core={cu}"
        fresh = core_decomposition(self.graph)
        for u in self.graph.vertices():
            assert ko.core[u] == fresh.core[u], (
                f"core[{u!r}]={ko.core[u]} != BZ {fresh.core[u]}"
            )
