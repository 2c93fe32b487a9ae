"""Core-number history over a dynamic stream.

The paper's related work includes querying *historical* k-cores over time
windows (Yu et al., VLDB'21 — reference [35]).  Maintenance makes that
cheap to support: every operation already knows exactly which vertices
changed (``V*``), so recording ``(time, vertex, old, new)`` deltas costs
O(|V*|) per operation instead of snapshotting cores.

:class:`CoreHistory` wraps any maintainer exposing
``insert_edge``/``remove_edge`` with per-op ``v_star`` stats (the Order and
Traversal maintainers) and answers:

* ``core_at(u, t)`` — u's core number right after logical time ``t``;
* ``series(u)`` — u's full (time, core) trajectory;
* ``changed_between(t0, t1)`` — vertices whose core moved in a window;
* ``shell_size_at(k, t)`` — |k-shell| at a past time.

Logical time advances by one per applied operation (timestamps can be
attached via ``record_marker``).
"""

from __future__ import annotations

import bisect
from typing import Dict, Hashable, List, Optional, Set, Tuple

Vertex = Hashable

__all__ = ["CoreHistory"]


class CoreHistory:
    """Delta-encoded core-number history around a maintainer."""

    def __init__(self, maintainer) -> None:
        self.m = maintainer
        self.t = 0
        # per-vertex parallel arrays: times[], values[] (value from time on)
        self._times: Dict[Vertex, List[int]] = {}
        self._values: Dict[Vertex, List[int]] = {}
        self._markers: List[Tuple[int, object]] = []
        for u, k in maintainer.cores().items():
            self._times[u] = [0]
            self._values[u] = [k]

    # ------------------------------------------------------------------
    def _record(self, u: Vertex, new: int) -> None:
        ts = self._times.setdefault(u, [])
        vs = self._values.setdefault(u, [])
        if vs and ts[-1] == self.t:
            vs[-1] = new
        else:
            ts.append(self.t)
            vs.append(new)

    def insert_edge(self, u: Vertex, v: Vertex):
        """Apply an insertion and record the resulting core deltas."""
        self.t += 1
        stats = self.m.insert_edge(u, v)
        for w in set(stats.v_star) | {u, v}:
            self._record(w, self.m.core(w))
        return stats

    def remove_edge(self, u: Vertex, v: Vertex):
        """Apply a removal and record the resulting core deltas."""
        self.t += 1
        stats = self.m.remove_edge(u, v)
        for w in stats.v_star:
            self._record(w, self.m.core(w))
        return stats

    def record_marker(self, label: object) -> None:
        """Attach an application timestamp/label to the current time."""
        self._markers.append((self.t, label))

    # ------------------------------------------------------------------
    def core_at(self, u: Vertex, t: int) -> Optional[int]:
        """u's core number right after logical time ``t`` (None if u was
        not yet known)."""
        ts = self._times.get(u)
        if not ts:
            return None
        i = bisect.bisect_right(ts, t) - 1
        if i < 0:
            return None
        return self._values[u][i]

    def cores_at(self, t: int) -> Dict[Vertex, int]:
        """The full core map right after logical time ``t`` — an
        epoch-versioned snapshot materialized from the per-vertex deltas.
        Vertices first seen after ``t`` are absent (they did not exist in
        that snapshot)."""
        out: Dict[Vertex, int] = {}
        for u in self._times:
            k = self.core_at(u, t)
            if k is not None:
                out[u] = k
        return out

    def series(self, u: Vertex) -> List[Tuple[int, int]]:
        """The full (time, core) change series of u."""
        return list(zip(self._times.get(u, []), self._values.get(u, [])))

    def changed_between(self, t0: int, t1: int) -> Set[Vertex]:
        """Vertices whose core changed in the window (t0, t1]."""
        out: Set[Vertex] = set()
        for u, ts in self._times.items():
            lo = bisect.bisect_right(ts, t0)
            hi = bisect.bisect_right(ts, t1)
            if hi > lo:
                # exclude no-op records (vertex touched but core unchanged)
                before = self.core_at(u, t0)
                if any(self._values[u][i] != before for i in range(lo, hi)):
                    out.add(u)
        return out

    def shell_size_at(self, k: int, t: int) -> int:
        """Number of vertices with core exactly ``k`` right after time t."""
        return sum(1 for u in self._times if self.core_at(u, t) == k)

    def markers(self) -> List[Tuple[int, object]]:
        return list(self._markers)

    # convenience passthroughs
    def core(self, u: Vertex) -> int:
        return self.m.core(u)

    def cores(self) -> Dict[Vertex, int]:
        return self.m.cores()

    def check(self) -> None:
        """Maintainer invariants + history-vs-present consistency."""
        self.m.check()
        for u, k in self.m.cores().items():
            assert self.core_at(u, self.t) == k, (
                f"history of {u!r} out of sync: "
                f"{self.core_at(u, self.t)} != {k}"
            )
