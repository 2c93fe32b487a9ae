"""Static core decomposition: the BZ peeling algorithm (paper Algorithm 1).

``core_decomposition`` computes, in one pass:

* ``core[u]`` — the core number of every vertex (Definition 3.2);
* ``order`` — the peeling sequence, which *is* a valid k-order
  (Definition 3.5): the total order the maintenance algorithms keep
  refining as edges change;
* ``d_out[u]`` — the initial remaining out-degree ``d_out^+``
  (Definition 3.7): orienting every edge by the produced k-order, the
  number of u's DAG successors.  Note this is *not* the bucket degree at
  peel time: a neighbor peeled at the same degree leaves the bucket degree
  untouched, so we count u's neighbours still unpeeled when u goes (exactly
  the ones after it), which guarantees the steady-state invariant
  ``d_out^+[u] <= core[u]``.

Tie-breaking among equal-degree vertices picks which of the many valid
k-orders is produced.  The paper tests three strategies (Section 3.1) and
adopts *small degree first* — among vertices with the same current degree,
peel the one with the smallest original degree first; we implement all
three plus FIFO for the ablation benchmark.

The deterministic tie keys (``small-degree-first``, ``large-degree-first``,
``fifo``) are static, so the vertices are ranked once by
``(tie_key, index)`` and every queue entry is the single int
``degree * N + rank``.  The initial entries form one sorted run and the
entries re-keyed by a degree drop go to an int min-heap; each step takes
the smaller head of the two, which is the same minimum the lazy tuple heap
of the textbook version pops, so ``core``, ``order`` and ``d_out`` are
unchanged while the hot loop compares plain ints and builds no tuples.
``random`` draws a fresh key on every push and keeps the tuple heap.  On a
10^5-vertex power-law graph the int peel takes less than half the tuple
heap's time; the tuple heap lives on in the tests as the oracle
(``tests/test_decomposition_oracle.py``).

``park_decomposition`` is a level-synchronous variant in the spirit of
ParK/Kabir-Madduri (paper Section 2): it peels all vertices of the current
lowest degree as one parallel "level", exposing the available parallelism
per level.  It is used by the simulated-machine initialization extension
and validates against BZ.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.intgraph import IntGraph

Vertex = Hashable

__all__ = [
    "CoreDecomposition",
    "core_decomposition",
    "core_histogram",
    "park_decomposition",
    "successor_counts",
    "STRATEGIES",
]

STRATEGIES = ("small-degree-first", "large-degree-first", "random", "fifo")


@dataclass
class CoreDecomposition:
    """Result of a static core decomposition."""

    core: Dict[Vertex, int]
    order: List[Vertex]
    d_out: Dict[Vertex, int]
    max_core: int = field(init=False)

    def __post_init__(self) -> None:
        self.max_core = max(self.core.values(), default=0)

    def histogram(self) -> Dict[int, int]:
        """Core value -> number of vertices (the paper's Figure 3 data)."""
        return core_histogram(self.core)


def core_histogram(core: Dict[Vertex, int]) -> Dict[int, int]:
    """Count vertices per core number, sorted by core value."""
    hist: Dict[int, int] = {}
    for k in core.values():
        hist[k] = hist.get(k, 0) + 1
    return dict(sorted(hist.items()))


def core_decomposition(
    graph: DynamicGraph,
    strategy: str = "small-degree-first",
    seed: int = 0,
) -> CoreDecomposition:
    """BZ peeling (paper Algorithm 1).

    Parameters
    ----------
    graph:
        The (static snapshot of the) graph.
    strategy:
        Tie-break among vertices sharing the minimum current degree; one of
        ``STRATEGIES``.  The paper uses ``small-degree-first``.
    seed:
        Only used by the ``random`` strategy.

    Returns
    -------
    CoreDecomposition
        core numbers, the produced k-order, and peel-time degrees.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    if isinstance(graph, IntGraph):
        adj = graph.adjacency_lists()
        verts = list(compress(range(len(adj)), graph.presence_mask()))
        return _peel(adj, verts, strategy, seed)
    if isinstance(graph, DynamicGraph):
        # Run the array kernel on the wrapped substrate and un-intern the
        # result.  Identity interners (dense-int inputs, the common case)
        # skip the translation entirely.
        decomp = core_decomposition(graph.ig, strategy, seed)
        interner = graph.interner
        if interner.identity:
            return decomp
        return _external(decomp, interner.tables()[1])
    # Any other GraphCore substrate: number its vertices in enumeration
    # order and peel the int adjacency that numbering induces.
    verts = list(graph.vertices())
    index = {u: i for i, u in enumerate(verts)}
    adj = [[index[v] for v in graph.neighbors(u)] for u in verts]
    return _external(_peel(adj, list(range(len(verts))), strategy, seed), verts)


def _external(decomp: CoreDecomposition, ext: List[Vertex]) -> CoreDecomposition:
    """``decomp`` over int ids, translated through ``ext`` (id -> vertex)."""
    return CoreDecomposition(
        core={ext[u]: k for u, k in decomp.core.items()},
        order=[ext[u] for u in decomp.order],
        d_out={ext[u]: d for u, d in decomp.d_out.items()},
    )


def successor_counts(adj: Sequence[Sequence[int]], order: List[int]) -> List[int]:
    """``d_out^+`` of every vertex of ``order``, aligned with it: how many
    of its neighbours in ``adj`` come later in ``order``."""
    pos = [0] * len(adj)
    for i, u in enumerate(order):
        pos[u] = i
    at = pos.__getitem__
    return [sum(map(pos[u].__lt__, map(at, adj[u]))) for u in order]


def _peel(adj: Sequence[Sequence[int]], verts: List[int], strategy: str,
          seed: int) -> CoreDecomposition:
    """BZ over int adjacency lists; ``verts`` are the present ids in index
    order (index = position, the last tie key)."""
    if strategy == "random":
        order, core = _peel_random(adj, verts, seed)
        d_out = successor_counts(adj, order)
    else:
        order, core, d_out = _peel_static(adj, verts, strategy)
    return CoreDecomposition(
        core=dict(zip(order, map(core.__getitem__, order))),
        order=order,
        d_out=dict(zip(order, d_out)),
    )


def _peel_static(adj: Sequence[Sequence[int]], verts: List[int],
                 strategy: str) -> Tuple[List[int], List[int], List[int]]:
    """The int-keyed peel for the static tie keys.

    ``key[u] = degree * N + rank`` orders vertices exactly as the tuple
    ``(degree, tie_key, index)`` does, because ``rank`` is the position
    of ``u`` in the ``(tie_key, index)`` order.  A degree drop lowers the
    key by ``N``; peeled vertices hold key -1.  Returns the order, the
    per-slot core numbers and ``d_out^+`` aligned with the order: the
    neighbours still unpeeled when a vertex goes are exactly the ones
    after it.
    """
    n = len(adj)
    deg0 = list(map(len, adj))
    if strategy == "small-degree-first":
        by_rank = sorted(verts, key=deg0.__getitem__)
    elif strategy == "large-degree-first":
        # reverse=True keeps equal degrees in index order (stable)
        by_rank = sorted(verts, key=deg0.__getitem__, reverse=True)
    else:  # fifo
        by_rank = verts
    N = len(by_rank)
    core = [0] * n
    order: List[int] = []
    d_out: List[int] = []
    if not N:
        return order, core, d_out
    key = [-1] * n
    for r, u in enumerate(by_rank):
        key[u] = deg0[u] * N + r
    end = (max(deg0) + 1) * N  # above every key
    run = sorted(key[u] for u in verts)
    run.append(end)
    heap = [end]
    heappop, heappush = heapq.heappop, heapq.heappush
    add, count = order.append, d_out.append
    i = 0
    head = run[0]
    k = 0
    while True:
        if head < heap[0]:
            x = head
            i += 1
            head = run[i]
        else:
            x = heappop(heap)
            if x == end:
                break
        du, r = divmod(x, N)
        u = by_rank[r]
        if key[u] != x:
            continue  # stale: u was re-keyed or peeled since
        key[u] = -1
        if du > k:
            k = du
        core[u] = k
        add(u)
        # neighbours of current degree > du drop by one
        lim = x - r + N
        later = 0
        for v in adj[u]:
            kv = key[v]
            if kv >= lim:
                kv -= N
                key[v] = kv
                heappush(heap, kv)
                later += 1
            elif kv >= 0:
                later += 1
        count(later)
    return order, core, d_out


def _peel_random(adj: Sequence[Sequence[int]], verts: List[int],
                 seed: int) -> Tuple[List[int], List[int]]:
    """The lazy tuple heap: ``random`` draws a fresh tie key on every
    push, so its keys cannot be ranked up front."""
    rng = random.Random(seed)
    n = len(adj)
    index = [0] * n
    for i, u in enumerate(verts):
        index[u] = i
    d = list(map(len, adj))
    heap: List[Tuple] = [(d[u], rng.random(), index[u], u) for u in verts]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    removed = bytearray(n)
    core = [0] * n
    order: List[int] = []
    k = 0
    while heap:
        du, _tk, _idx, u = heappop(heap)
        if removed[u] or du != d[u]:
            continue  # stale entry
        removed[u] = 1
        if du > k:
            k = du
        core[u] = k
        order.append(u)
        for v in adj[u]:
            dv = d[v]
            if not removed[v] and dv > du:
                d[v] = dv - 1
                heappush(heap, (dv - 1, rng.random(), index[v], v))
    return order, core


def park_decomposition(graph: DynamicGraph) -> Tuple[Dict[Vertex, int], List[List[Vertex]]]:
    """Level-synchronous peeling in the ParK style (paper Section 2).

    Repeatedly: collect every vertex whose current degree is <= the level
    ``k`` being finalized, peel them together as one parallel round, repeat
    until no vertex is below the threshold, then advance ``k``.  Returns
    core numbers (identical to BZ's) and the list of peel *rounds*, whose
    sizes show the parallel width available to a level-synchronous machine.
    """
    d: Dict[Vertex, int] = {u: graph.degree(u) for u in graph.vertices()}
    alive = set(d)
    core: Dict[Vertex, int] = {}
    rounds: List[List[Vertex]] = []
    k = 0
    while alive:
        # advance k to the minimum remaining degree
        kmin = min(d[u] for u in alive)
        k = max(k, kmin)
        frontier = [u for u in alive if d[u] <= k]
        while frontier:
            rounds.append(frontier)
            next_frontier: List[Vertex] = []
            for u in frontier:
                core[u] = k
                alive.discard(u)
            for u in frontier:
                for v in graph.neighbors(u):
                    if v in alive:
                        d[v] -= 1
            for u in frontier:
                for v in graph.neighbors(u):
                    if v in alive and d[v] <= k and v not in next_frontier:
                        next_frontier.append(v)
            # dedupe while preserving order
            seen = set()
            frontier = [v for v in next_frontier if not (v in seen or seen.add(v))]
    return core, rounds
