"""Synchronous H-index refinement over flat int64 arrays.

The sharded engine's *epoch stitch* (:mod:`repro.service.sharding`,
``docs/sharding.md``): per-shard core numbers computed on shard subgraphs
are only lower bounds of the global coreness (a subgraph can only shrink
a core), so the stitched view recomputes exact global cores with the
H-index iteration of Lu et al. (Nature Sci. Rep. 2016) —

    ``k_0(v) = deg(v)``, ``k_{t+1}(v) = H({k_t(u) : u in N(v)})``

where ``H`` is the Hirsch index of the multiset (the largest ``h`` such
that at least ``h`` members are ``>= h``).  The sequence is pointwise
non-increasing and converges to the coreness of every vertex, so the
stitched cores are *exactly* the single-engine cores — the differential
bit-identity guarantee.

Rounds are **synchronous and double-buffered**: every round reads the
``cur`` array and writes the ``nxt`` array, then the driver swaps.  That
makes the fixpoint trajectory independent of vertex visit order and of
how vertices are split across shard workers — the process backend runs
the same :func:`refine_round` in N OS processes over two
``multiprocessing.shared_memory`` arrays (each worker owns a disjoint
slice of vertices, a barrier sits between rounds) and produces the same
bytes as the in-process driver.

Everything here operates on flat buffers (``array('q')`` or an int64
``memoryview`` over shared memory, :func:`repro.graph.storage.int64_view`)
and CSR adjacency (``IntGraph.flat_adjacency`` shape), so there is no
per-round object churn.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.graph.storage import int64_buffer

__all__ = ["h_index", "seed_degrees", "refine_round", "refine_cores"]


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


def seed_degrees(indptr, owned: Sequence[int], cur) -> None:
    """Round 0: write ``deg(u)`` into ``cur[u]`` for every owned slot."""
    for u in owned:
        cur[u] = indptr[u + 1] - indptr[u]


def refine_round(indptr, targets, owned: Sequence[int], cur, nxt) -> int:
    """One synchronous round over the ``owned`` slots.

    Reads neighbour estimates from ``cur``, writes the H-index of each
    owned slot into ``nxt`` (always, so the back buffer never holds a
    two-rounds-stale value), and returns how many owned slots changed.
    The counting H-index here is O(deg) per vertex with no sort and no
    allocation beyond one small counts list.
    """
    changed = 0
    for u in owned:
        lo = indptr[u]
        hi = indptr[u + 1]
        d = hi - lo
        if d == 0:
            h = 0
        else:
            counts = [0] * (d + 1)
            for i in range(lo, hi):
                v = cur[targets[i]]
                counts[d if v >= d else v] += 1
            at_least = 0
            h = 0
            for cand in range(d, 0, -1):
                at_least += counts[cand]
                if at_least >= cand:
                    h = cand
                    break
        nxt[u] = h
        if h != cur[u]:
            changed += 1
    return changed


def refine_cores(indptr, targets, n: int) -> List[int]:
    """In-process driver: run rounds to the fixpoint, return the cores.

    This is the in-process (direct/sim) stitch path; the process backend runs
    the identical per-round kernel distributed across shard workers
    (:mod:`repro.parallel.procs`) with the router as the barrier.
    """
    cur = int64_buffer(n)
    nxt = int64_buffer(n)
    owned = range(n)
    seed_degrees(indptr, owned, cur)
    while True:
        if refine_round(indptr, targets, owned, cur, nxt) == 0:
            return list(nxt)
        cur, nxt = nxt, cur
