"""Array-backed graph over dense integer vertex ids.

This is the substrate the paper's C++ implementation actually uses
(Section 5.2: adjacency, core numbers and counters live in flat arrays
indexed by vertex id, and array storage is credited for JER's speed over
tree-based storage).  Vertices are dense ints ``0..n_slots-1`` —
typically produced by a :class:`~repro.graph.interning.VertexInterner`
at the library boundary — and every per-vertex attribute is a direct
list index, no hashing.

Layout
------
* ``_adj[i]`` is the neighbor **list** of vertex ``i`` (append-ordered).
  Lists beat sets for the dominant access pattern — whole-adjacency
  scans during decomposition and maintenance — and for memory.
* ``_sets[i]`` is a lazily materialized membership set, built only once
  vertex ``i``'s degree crosses :data:`MEMBER_THRESHOLD`; below that a
  linear scan of the list is faster than set overhead.  ``has_edge`` is
  therefore O(1) amortized on hubs and O(small) elsewhere.
* ``_present[i]`` tracks vertex liveness.  Ids are never reused: removing
  a vertex clears its adjacency but keeps the slot, so interner ids stay
  valid forever.

Counters are **derived, not stored**: ``num_edges`` recomputes from
adjacency lengths on demand.  This is deliberate — the old mutable
``_num_edges`` counter raced under the thread backend (concurrent
``+= 1`` from worker threads) and required a post-run recompute hack in
``parallel/threads.py``; deriving the count keeps it correct under any
interleaving because each endpoint's adjacency append is individually
atomic under the GIL.

Kernels inside :mod:`repro` that need bulk array access (the int
decomposition kernel, CSR export) use the sanctioned
:meth:`IntGraph.adjacency_lists` / :meth:`IntGraph.presence_mask`
accessors; everything outside :mod:`repro.graph` must stay behind the
:class:`~repro.graph.core.GraphCore` protocol (lint rule RL005).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set, Tuple

Edge = Tuple[int, int]

__all__ = ["IntGraph", "MEMBER_THRESHOLD"]

#: Degree above which a per-vertex membership set is materialized for
#: ``has_edge``; below it a linear list scan wins.
MEMBER_THRESHOLD = 16


class IntGraph:
    """Undirected simple graph over dense int ids, adjacency as flat lists.

    Parameters
    ----------
    n:
        Number of vertex slots to pre-allocate (vertices ``0..n-1``, all
        present).  Further slots grow on demand via :meth:`add_vertex`.

    Examples
    --------
    >>> g = IntGraph(3)
    >>> g.add_edge(0, 1); g.add_edge(1, 2)
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_sets", "_present")

    def __init__(self, n: int = 0) -> None:
        self._adj: List[List[int]] = [[] for _ in range(n)]
        self._sets: List[Optional[Set[int]]] = [None] * n
        self._present: List[bool] = [True] * n

    # ------------------------------------------------------------------
    # bulk construction
    # ------------------------------------------------------------------
    @classmethod
    def from_canonical_edges(
        cls, edges: Iterable[Edge], n: Optional[int] = None
    ) -> "IntGraph":
        """Fast build from *deduplicated, self-loop-free* int edges.

        No per-edge duplicate checks are performed — callers must pass
        canonical edge lists (e.g. :func:`repro.graph.generators.dedupe_edges`
        output).  ``n`` pre-allocates the slot count; it is grown if an
        endpoint exceeds it.
        """
        g = cls(n or 0)
        adj = g._adj
        for u, v in edges:
            hi = u if u > v else v
            if hi >= len(adj):
                g._grow(hi + 1)
            adj[u].append(v)
            adj[v].append(u)
        return g

    def _grow(self, n: int) -> None:
        cur = len(self._adj)
        if n > cur:
            self._adj.extend([] for _ in range(n - cur))
            self._sets.extend([None] * (n - cur))
            self._present.extend([True] * (n - cur))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_slots(self) -> int:
        """Size of the id space (present or not) — the array length every
        slot-indexed side structure must cover."""
        return len(self._adj)

    @property
    def num_vertices(self) -> int:
        """Number of present vertices (including isolated ones)."""
        return sum(self._present)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, derived from adjacency lengths.

        Derivation (not a mutable counter) is what keeps this correct
        under the thread backend — see the module docstring.
        """
        return sum(map(len, self._adj)) // 2

    def vertices(self) -> Iterator[int]:
        """Iterate over present vertex ids in id order."""
        present = self._present
        return (i for i in range(len(present)) if present[i])

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge once, as ``(min, max)`` pairs."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def neighbors(self, u: int) -> List[int]:
        """The adjacency list ``u.adj`` of the paper (live view).

        Callers that mutate the graph while iterating must copy first;
        the returned list must not be mutated directly.
        """
        if not self._present[u]:
            raise KeyError(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        """``u.deg = |u.adj|``."""
        if not self._present[u]:
            raise KeyError(u)
        return len(self._adj[u])

    def has_vertex(self, u: int) -> bool:
        return 0 <= u < len(self._present) and self._present[u]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < len(self._adj)):
            return False
        s = self._sets[u]
        if s is not None:
            return v in s
        adj = self._adj[u]
        if len(adj) > MEMBER_THRESHOLD:
            s = set(adj)
            self._sets[u] = s
            return v in s
        return v in adj

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(self, u: int) -> None:
        """Ensure slot ``u`` exists and is present (idempotent)."""
        if u < 0:
            raise ValueError(f"vertex id must be non-negative: {u}")
        if u >= len(self._adj):
            self._grow(u + 1)
        elif not self._present[u]:
            self._present[u] = True

    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``(u, v)``.

        Raises
        ------
        ValueError
            If ``u == v`` (self-loop) or the edge already exists.
        """
        if u == v:
            raise ValueError(f"self-loop not allowed: {u!r}")
        if u < 0 or v < 0:
            raise ValueError(f"vertex id must be non-negative: {min(u, v)}")
        adj = self._adj
        if u >= len(adj) or v >= len(adj):
            self._grow(max(u, v) + 1)
        present = self._present
        if not present[u]:
            present[u] = True
        if not present[v]:
            present[v] = True
        # Inline duplicate check (the hot path of sequential maintenance):
        # same lazy-set logic as has_edge, without a second method call.
        au = adj[u]
        su = self._sets[u]
        if su is None and len(au) > MEMBER_THRESHOLD:
            su = set(au)
            self._sets[u] = su
        if (v in su) if su is not None else (v in au):
            raise ValueError(f"edge already present: ({u!r}, {v!r})")
        au.append(v)
        adj[v].append(u)
        if su is not None:
            su.add(v)
        sv = self._sets[v]
        if sv is not None:
            sv.add(u)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge ``(u, v)``.

        Raises
        ------
        KeyError
            If the edge is not present.
        """
        # list.remove performs the same scan has_edge would, so the
        # presence check is folded into the removal itself.
        if u < 0 or v < 0 or u >= len(self._adj):
            raise KeyError(f"edge not present: ({u!r}, {v!r})")
        try:
            self._adj[u].remove(v)
        except ValueError:
            raise KeyError(f"edge not present: ({u!r}, {v!r})") from None
        self._adj[v].remove(u)
        s = self._sets[u]
        if s is not None:
            s.discard(v)
        s = self._sets[v]
        if s is not None:
            s.discard(u)

    def remove_vertex(self, u: int) -> None:
        """Remove ``u`` and all incident edges.

        The slot stays allocated (ids are never reused) but the vertex is
        no longer present; re-adding it via :meth:`add_vertex` revives the
        same id with an empty adjacency.
        """
        if not self.has_vertex(u):
            raise KeyError(u)
        for v in list(self._adj[u]):
            self.remove_edge(u, v)
        self._present[u] = False

    # ------------------------------------------------------------------
    # sanctioned bulk access (repro.graph internals and kernels only)
    # ------------------------------------------------------------------
    def adjacency_lists(self) -> List[List[int]]:
        """The raw per-slot adjacency lists, for in-package kernels.

        Returned lists are the live storage — treat as read-only.  Code
        outside :mod:`repro.graph` must use the :class:`GraphCore`
        surface instead (lint rule RL005).
        """
        return self._adj

    def presence_mask(self) -> List[bool]:
        """The raw per-slot presence flags, for in-package kernels."""
        return self._present

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def copy(self) -> "IntGraph":
        """Deep copy of the adjacency structure."""
        g = IntGraph()
        g._adj = [list(nbrs) for nbrs in self._adj]
        g._sets = [set(s) if s is not None else None for s in self._sets]
        g._present = list(self._present)
        return g

    def average_degree(self) -> float:
        """``2m / n`` — the "AvgDeg" column of the paper's Table 1."""
        n = self.num_vertices
        return (2.0 * self.num_edges / n) if n else 0.0

    def connected_component(self, start: int) -> Set[int]:
        """Vertex ids reachable from ``start`` (BFS)."""
        if not self.has_vertex(start):
            raise KeyError(start)
        adj = self._adj
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    def __contains__(self, u: int) -> bool:
        return self.has_vertex(u)

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntGraph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntGraph):
            return NotImplemented
        if self._present != other._present:
            n = max(len(self._present), len(other._present))
            for i in range(n):
                a = i < len(self._present) and self._present[i]
                b = i < len(other._present) and other._present[i]
                if a != b:
                    return False
        n = max(len(self._adj), len(other._adj))
        for i in range(n):
            a = self._adj[i] if i < len(self._adj) else []
            b = other._adj[i] if i < len(other._adj) else []
            if set(a) != set(b):
                return False
        return True

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("IntGraph is mutable and unhashable")
