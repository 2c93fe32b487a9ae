"""Synchronous H-index refinement: a from-scratch core oracle.

The H-index iteration of Lu et al. (Nature Sci. Rep. 2016) —

    ``k_0(v) = deg(v)``, ``k_{t+1}(v) = H({k_t(u) : u in N(v)})``

where ``H`` is the Hirsch index of the multiset (the largest ``h`` such
that at least ``h`` members are ``>= h``).  The sequence is pointwise
non-increasing and converges to the coreness of every vertex.  It shares
nothing with the order-based maintainers (no k-order, no peeling), which
is what makes it a useful independent oracle: the sharded router's
:meth:`~repro.service.sharding.ShardedEngine.check` compares its
incrementally maintained global cores against :func:`graph_cores` of the
union graph.

Rounds are synchronous and double-buffered over flat ``array('q')``
buffers and CSR adjacency, so the fixpoint does not depend on vertex
visit order.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, List, Sequence

from repro.graph.storage import int64_buffer

__all__ = ["h_index", "refine_cores", "graph_cores"]


def h_index(values: Sequence[int]) -> int:
    """Hirsch index: the largest ``h`` with ``>= h`` values ``>= h``."""
    d = len(values)
    if d == 0:
        return 0
    counts = [0] * (d + 1)
    for v in values:
        counts[d if v >= d else v] += 1
    at_least = 0
    for h in range(d, 0, -1):
        at_least += counts[h]
        if at_least >= h:
            return h
    return 0


def refine_cores(indptr, targets, n: int) -> List[int]:
    """Cores of the CSR graph ``(indptr, targets)`` over slots ``0..n-1``:
    seed every slot with its degree, then run synchronous H-index rounds
    to the fixpoint."""
    cur = int64_buffer(n)
    nxt = int64_buffer(n)
    for u in range(n):
        cur[u] = indptr[u + 1] - indptr[u]
    while True:
        changed = False
        for u in range(n):
            lo = indptr[u]
            h = h_index([cur[targets[i]] for i in range(lo, indptr[u + 1])])
            nxt[u] = h
            if h != cur[u]:
                changed = True
        if not changed:
            return list(nxt)
        cur, nxt = nxt, cur


def graph_cores(graph) -> Dict[Hashable, int]:
    """:func:`refine_cores` of a :class:`~repro.graph.DynamicGraph`,
    keyed by vertex (isolated vertices at core 0)."""
    verts = list(graph.vertices())
    slot = {x: i for i, x in enumerate(verts)}
    indptr = array("q", [0])
    targets = array("q")
    for x in verts:
        targets.extend(slot[y] for y in graph.neighbors(x))
        indptr.append(len(targets))
    return dict(zip(verts, refine_cores(indptr, targets, len(verts))))
