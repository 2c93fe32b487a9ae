"""Undirected, unweighted, simple dynamic graph — the public facade.

This is the substrate mutated by every core-maintenance algorithm in the
library.  The paper (Section 3) assumes graphs with no self-loops and no
repeated edges; directed inputs are symmetrized on load.  Vertices are
arbitrary hashable IDs (the evaluation uses dense integers).

Since the representation refactor (see ``docs/representation.md``),
``DynamicGraph`` is a thin compatibility wrapper over the array-backed
:class:`~repro.graph.intgraph.IntGraph` plus a
:class:`~repro.graph.interning.VertexInterner`:

* external hashable ids are interned to dense ints **once**, on first
  mention, at this boundary;
* all storage and all hot loops run on int ids (maintenance facades
  unwrap ``g.ig``/``g.interner`` and work int-natively);
* results are un-interned on the way back out, so the public API is
  unchanged — arbitrary hashable vertex ids in, the same ids out.

``neighbors`` returns a live set-like *view* (:class:`_NbrView`) over
the int adjacency, preserving the legacy contract that the returned
object reflects later mutation.  The previous dict-of-sets storage
survives as :class:`~repro.graph.dictgraph.DictGraph` for differential
testing and the representation benchmark.
"""

from __future__ import annotations

from itertools import chain, compress, filterfalse
from operator import eq, not_
from typing import Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graph.core import canonical_edge
from repro.graph.interning import VertexInterner
from repro.graph.intgraph import IntGraph

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["DynamicGraph", "Vertex", "Edge", "canonical_edge"]


class _NbrView:
    """Live, set-like view of one vertex's adjacency in external-id terms.

    Iteration, membership and ``len`` reflect the graph's current state;
    the view must not be mutated.  Algorithms snapshot (``list(view)``)
    where the paper's pseudocode requires a frozen scan.
    """

    __slots__ = ("_ig", "_interner", "_iu")

    def __init__(self, ig: IntGraph, interner: VertexInterner, iu: int) -> None:
        self._ig = ig
        self._interner = interner
        self._iu = iu

    def __iter__(self) -> Iterator[Vertex]:
        ext = self._interner.external
        return (ext(i) for i in self._ig.neighbors(self._iu))

    def __contains__(self, x: object) -> bool:
        i = self._interner.lookup_default(x)
        return i is not None and self._ig.has_edge(self._iu, i)

    def __len__(self) -> int:
        return self._ig.degree(self._iu)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{{{', '.join(repr(v) for v in self)}}}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (_NbrView, set, frozenset)):
            return set(self) == set(other)
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("neighbor views are live and unhashable")


class DynamicGraph:
    """An undirected simple graph supporting edge insertion and removal.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs used to initialize the graph.
        Self-loops raise; duplicate edges (in either orientation) are
        ignored during bulk construction, mirroring the paper's dataset
        preprocessing ("all of the self-loops and repeated edges are
        removed").
    vertices:
        Further vertices to add after the edges (edge-less ones).

    Examples
    --------
    >>> g = DynamicGraph([(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.add_edge(0, 2)
    >>> sorted(g.neighbors(2))
    [0, 1]
    """

    __slots__ = ("ig", "interner")

    def __init__(self, edges: Iterable[Edge] | None = None,
                 vertices: Iterable[Vertex] = ()) -> None:
        edges = [] if edges is None else list(edges)
        # Distinct, self-loop-free pairs (a journal's or a generator's
        # edge list) are interned and laid out in bulk; anything else
        # takes the checked per-edge path.  Both give the same ids
        # (endpoints in first-seen order) and the same adjacency order.
        flat = list(chain.from_iterable(edges))
        #: The external-id ↔ int-id mapping shared with :attr:`ig`.
        self.interner = VertexInterner(flat)
        ids = list(map(self.interner.tables()[0].__getitem__, flat))
        us, vs = ids[0::2], ids[1::2]
        if (set(map(len, edges)) <= {2} and not any(map(eq, us, vs))
                and len(set(zip(map(min, us, vs), map(max, us, vs))))
                == len(edges)):
            #: The array-backed substrate; maintenance facades run on it
            #: int-natively.  Treat as read-only outside ``repro``.
            self.ig = IntGraph.from_canonical_edges(
                zip(us, vs), n=len(self.interner))
        else:
            self.ig = IntGraph()
            self.interner = VertexInterner()
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop not allowed: {u!r}")
                if not self.has_edge(u, v):
                    self.add_edge(u, v)
        self.add_vertices(vertices)

    @classmethod
    def _wrap(cls, ig: IntGraph, interner: VertexInterner) -> "DynamicGraph":
        """Wrap existing substrate objects without copying (in-package)."""
        g = cls.__new__(cls)
        g.ig = ig
        g.interner = interner
        return g

    @classmethod
    def from_int_edges(
        cls, edges: Iterable[Tuple[int, int]], n: Optional[int] = None
    ) -> "DynamicGraph":
        """Fast build from *deduplicated, self-loop-free* int edges.

        Generator/dataset output (dense int vertices, already
        canonicalized by ``dedupe_edges``) skips the per-edge hashable
        round-trip: the interner is the identity on ``0..n-1`` and
        adjacency is bulk-appended.  No duplicate checks are performed.
        """
        edges = edges if isinstance(edges, list) else list(edges)
        if n is None:
            n = 1 + max((u if u > v else v for u, v in edges), default=-1)
        g = cls.__new__(cls)
        g.ig = IntGraph.from_canonical_edges(edges, n=n)
        g.interner = VertexInterner(range(g.ig.n_slots))
        return g

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices currently present (including isolated ones)."""
        return self.ig.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (derived from adjacency — stays
        correct under the thread backend, no post-run fixups)."""
        return self.ig.num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices (external ids, in first-seen order)."""
        ext = self.interner.external
        return (ext(i) for i in self.ig.vertices())

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once (canonical form;
        a snapshot taken at the call)."""
        pairs = self.ig.edges()
        if self.interner.identity:
            return pairs
        ext = self.interner.tables()[1]
        return iter([canonical_edge(ext[i], ext[j]) for i, j in pairs])

    def sorted_edges(self) -> List[Edge]:
        """Each edge once in canonical form, sorted by ``repr``: the edge
        list a journal records, independent of construction order."""
        return sorted(self.edges(), key=repr)

    def isolated_vertices(self) -> List[Vertex]:
        """Present vertices without an edge, sorted by ``repr``."""
        ext = self.interner.tables()[1]
        return sorted(map(ext.__getitem__, self.ig.isolated()), key=repr)

    def neighbors(self, u: Vertex) -> _NbrView:
        """The adjacency set ``u.adj`` of the paper.

        Returns a live set-like view; callers that mutate the graph while
        iterating must copy it first (the maintenance algorithms snapshot
        where the paper's pseudocode requires it).
        """
        i = self.interner.lookup_default(u)
        if i is None or not self.ig.has_vertex(i):
            raise KeyError(u)
        return _NbrView(self.ig, self.interner, i)

    def degree(self, u: Vertex) -> int:
        """``u.deg = |u.adj|``."""
        i = self.interner.lookup_default(u)
        if i is None or not self.ig.has_vertex(i):
            raise KeyError(u)
        return self.ig.degree(i)

    def has_vertex(self, u: Vertex) -> bool:
        i = self.interner.lookup_default(u)
        return i is not None and self.ig.has_vertex(i)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        it = self.interner
        i = it.lookup_default(u)
        if i is None:
            return False
        j = it.lookup_default(v)
        return j is not None and self.ig.has_edge(i, j)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(self, u: Vertex) -> None:
        """Ensure ``u`` exists (idempotent)."""
        self.ig.add_vertex(self.interner.intern(u))

    def add_vertices(self, us: Iterable[Vertex]) -> None:
        """:meth:`add_vertex` for every ``u`` in ``us``; the ones already
        present are skipped by C-level passes."""
        us = list(us)
        to_int, _ = self.interner.tables()
        for u in filterfalse(to_int.__contains__, us):
            self.add_vertex(u)
        present = self.ig.presence_mask()
        ids = list(map(to_int.__getitem__, us))
        for i in compress(ids, map(not_, map(present.__getitem__, ids))):
            self.ig.add_vertex(i)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert the undirected edge ``(u, v)``.

        Raises
        ------
        ValueError
            If ``u == v`` (self-loop) or the edge already exists.
        """
        if u == v:
            raise ValueError(f"self-loop not allowed: {u!r}")
        if self.has_edge(u, v):
            raise ValueError(f"edge already present: ({u!r}, {v!r})")
        it = self.interner
        self.ig.add_edge(it.intern(u), it.intern(v))

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``.

        Raises
        ------
        KeyError
            If the edge is not present.
        """
        if not self.has_edge(u, v):
            raise KeyError(f"edge not present: ({u!r}, {v!r})")
        it = self.interner
        self.ig.remove_edge(it.lookup(u), it.lookup(v))

    def remove_vertex(self, u: Vertex) -> None:
        """Remove ``u`` and all incident edges.

        The paper treats vertex removal as a sequence of edge removals; this
        helper exists for graph construction and tests.  The int id stays
        reserved: re-adding the same external id revives the same slot.
        """
        i = self.interner.lookup_default(u)
        if i is None or not self.ig.has_vertex(i):
            raise KeyError(u)
        self.ig.remove_vertex(i)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def copy(self) -> "DynamicGraph":
        """Deep copy of the adjacency structure (interner ids preserved)."""
        return DynamicGraph._wrap(self.ig.copy(), self.interner.copy())

    def subgraph(self, vertices: Iterable[Vertex]) -> "DynamicGraph":
        """Induced subgraph on ``vertices`` (used by the Traversal baseline
        and by tests that check subcore definitions)."""
        vs = set(vertices)
        g = DynamicGraph()
        for u in vs:
            g.add_vertex(u)
        for u in vs:
            if not self.has_vertex(u):
                continue  # tolerate absent vertices
            for v in self.neighbors(u):
                if v in vs and not g.has_edge(u, v):
                    g.add_edge(u, v)
        return g

    def average_degree(self) -> float:
        """``2m / n`` — the "AvgDeg" column of the paper's Table 1."""
        return self.ig.average_degree()

    def connected_component(self, start: Vertex) -> Set[Vertex]:
        """Vertices reachable from ``start`` (BFS)."""
        i = self.interner.lookup_default(start)
        if i is None or not self.ig.has_vertex(i):
            raise KeyError(start)
        ext = self.interner.external
        return {ext(j) for j in self.ig.connected_component(i)}

    def __contains__(self, u: Vertex) -> bool:
        return self.has_vertex(u)

    def __len__(self) -> int:
        return self.ig.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicGraph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        mine = set(self.vertices())
        if mine != set(other.vertices()):
            return False
        for u in mine:
            if set(self.neighbors(u)) != set(other.neighbors(u)):
                return False
        return True

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("DynamicGraph is mutable and unhashable")
