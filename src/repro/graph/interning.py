"""Vertex interning: stable external-id ↔ dense-int mapping.

The paper's C++ implementation (Section 5.2) stores adjacency, core
numbers and the ``d_out^+``/``d_in*`` counters in flat arrays indexed by
dense integer vertex ids, and credits array storage over tree/hash
storage for JER's speed.  Python callers, however, want to use arbitrary
hashable vertex ids (user ids, string labels, tuples).  The
:class:`VertexInterner` bridges the two worlds: every external id is
interned **once** at the library boundary and becomes a dense int id
``0..n-1`` that every internal layer — :class:`~repro.graph.intgraph.IntGraph`
adjacency, :class:`~repro.core.state.OrderState` counters, OM labels,
lock tables — can use as a direct array index.

Stability rules (relied on by the maintenance algorithms and by the
snapshot/history layers):

* ids are assigned in first-seen order and **never reused or remapped** —
  removing a vertex from a graph does not free its id, and re-adding the
  same external id yields the same int id;
* the mapping only grows; ``len(interner)`` is the id space size, which
  is exactly the slot count every array-backed structure must cover.

The *identity regime* is tracked as an optimization: as long as every
interned external id is the int equal to its assigned id (the common
case for generator/dataset graphs with vertices ``0..n-1`` inserted in
order), translation is skipped entirely by the
:class:`~repro.graph.dynamic_graph.DynamicGraph` wrapper.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Iterable, Iterator, List, Tuple

Vertex = Hashable

__all__ = ["VertexInterner", "ShardedInterner", "stable_shard"]


def stable_shard(x: Vertex, nshards: int) -> int:
    """Content-hash shard assignment: stable across runs and restarts.

    Placement must be a pure function of the *external* id — deriving it
    from interner arrival order would re-shard vertices after a crash
    (recovery re-interns in journal-replay order, which differs from the
    live admission order whenever an aborted attempt interned first).
    Small non-negative ints (the benchmark workloads) shard by value so
    uniform workloads stay balanced; everything else hashes its ``repr``
    through sha256, which python's per-process ``hash()`` randomization
    cannot perturb.
    """
    if isinstance(x, int) and not isinstance(x, bool) and x >= 0:
        return x % nshards
    digest = hashlib.sha256(repr(x).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % nshards


class VertexInterner:
    """Growable, serializable external-id ↔ dense-int-id mapping."""

    __slots__ = ("_to_int", "_to_ext", "identity")

    def __init__(self, externals: Iterable[Vertex] = ()) -> None:
        self._to_int: Dict[Vertex, int] = {}
        self._to_ext: List[Vertex] = []
        #: True while every interned id is an int equal to its slot index,
        #: letting wrappers skip translation entirely.
        self.identity = True
        for x in externals:
            self.intern(x)

    # ------------------------------------------------------------------
    # core mapping
    # ------------------------------------------------------------------
    def intern(self, x: Vertex) -> int:
        """Return the int id of ``x``, assigning the next free id if new."""
        i = self._to_int.get(x)
        if i is None:
            i = len(self._to_ext)
            self._to_int[x] = i
            self._to_ext.append(x)
            if self.identity and x != i:
                self.identity = False
        return i

    def intern_many(self, xs: Iterable[Vertex]) -> List[int]:
        """Intern a sequence of external ids (boundary bulk helper)."""
        intern = self.intern
        return [intern(x) for x in xs]

    def lookup(self, x: Vertex) -> int:
        """The int id of ``x``; raises ``KeyError`` if never interned."""
        return self._to_int[x]

    def lookup_default(self, x: Vertex, default=None):
        """The int id of ``x``, or ``default`` if never interned."""
        return self._to_int.get(x, default)

    def external(self, i: int) -> Vertex:
        """The external id owning int id ``i``."""
        return self._to_ext[i]

    def externals(self, ids: Iterable[int]) -> List[Vertex]:
        """Map int ids back to external ids (boundary bulk helper)."""
        ext = self._to_ext
        return [ext[i] for i in ids]

    def tables(self) -> Tuple[Dict[Vertex, int], List[Vertex]]:
        """The live ``external -> id`` dict and ``id -> external`` list,
        for hot read paths that index them directly.  Read-only: they
        grow as ids are interned and must never be written."""
        return self._to_int, self._to_ext

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._to_ext)

    def __contains__(self, x: Vertex) -> bool:
        return x in self._to_int

    def __iter__(self) -> Iterator[Vertex]:
        """External ids in id order (id ``i`` is the i-th yielded)."""
        return iter(self._to_ext)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " identity" if self.identity else ""
        return f"VertexInterner(n={len(self._to_ext)}{tag})"

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_list(self) -> List[Vertex]:
        """The external-id table; element ``i`` owns int id ``i``."""
        return list(self._to_ext)

    @classmethod
    def from_list(cls, externals: Iterable[Vertex]) -> "VertexInterner":
        """Rebuild from :meth:`to_list` output (ids preserved)."""
        it = cls()
        for x in externals:
            it.intern(x)
        if len(it._to_ext) != len(it._to_int):
            raise ValueError("duplicate external id in interner table")
        return it

    def copy(self) -> "VertexInterner":
        it = VertexInterner()
        it._to_int = dict(self._to_int)
        it._to_ext = list(self._to_ext)
        it.identity = self.identity
        return it


class ShardedInterner:
    """Shard-aware interning: dense global ids plus ``(shard, local)``.

    The router's view of the vertex space (:mod:`repro.service.sharding`):
    every external id is interned once into a *global* dense int, its
    shard is fixed by :func:`stable_shard`, and within the shard it gets
    a dense *local* id in per-shard arrival order.  All three views only
    grow; none is ever remapped.
    """

    __slots__ = ("nshards", "_global", "_shard", "_local", "_counts")

    def __init__(self, nshards: int) -> None:
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        self.nshards = nshards
        self._global = VertexInterner()
        self._shard: List[int] = []      # gid -> shard
        self._local: List[int] = []      # gid -> local id within shard
        self._counts = [0] * nshards     # next local id per shard

    def intern(self, x: Vertex) -> int:
        """Global dense id of ``x``, assigning shard + local id if new."""
        n = len(self._global)
        gid = self._global.intern(x)
        if gid == n:  # newly assigned
            s = stable_shard(x, self.nshards)
            self._shard.append(s)
            self._local.append(self._counts[s])
            self._counts[s] += 1
        return gid

    def shard_of(self, x: Vertex) -> int:
        """Shard owning ``x`` (pure content hash; interns as a side
        effect so the global id is dense by admission order)."""
        return self._shard[self.intern(x)]

    def split(self, gid: int) -> Tuple[int, int]:
        """``gid -> (shard, local_id)``."""
        return self._shard[gid], self._local[gid]

    def lookup(self, x: Vertex) -> int:
        return self._global.lookup(x)

    def external(self, gid: int) -> Vertex:
        return self._global.external(gid)

    def shard_size(self, shard: int) -> int:
        """Number of vertices owned by ``shard``."""
        return self._counts[shard]

    def owned(self, shard: int) -> List[int]:
        """Global ids owned by ``shard``, in local-id order."""
        return [g for g in range(len(self._shard))
                if self._shard[g] == shard]

    def __len__(self) -> int:
        return len(self._global)

    def __contains__(self, x: Vertex) -> bool:
        return x in self._global

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedInterner(n={len(self._global)}, "
                f"shards={self.nshards}, counts={self._counts})")
