"""Flat-slot per-vertex storage for int-id graphs.

The paper stores every per-vertex attribute (core number, ``d_out^+``,
``mcd``, the removal status ``t``) in arrays indexed by vertex id.
:class:`IntSlotMap` is the Python rendering of that layout: a dict-shaped
mapping whose backing store is a flat ``list`` of slots, so reads and
writes on int ids are direct list indexing with no hashing.  ``None`` is
a legitimate stored value (the state layer uses it for invalidated
``d_out``/``mcd`` caches), so a private ``_MISSING`` sentinel marks
empty slots instead.

:func:`make_vertex_map` picks the storage for a given graph substrate —
slot-backed over :class:`~repro.graph.intgraph.IntGraph`, plain ``dict``
over hashable-id substrates — so the state layer stays
storage-agnostic.

:func:`raw_get` / :func:`raw_set` are the untraced escape hatch: the
race detector (:mod:`repro.analysis.trace`) instruments state maps by
subclassing, and the relaxed/wipe accessors in ``core/state.py`` and
``core/korder.py`` must bypass that instrumentation regardless of which
storage is underneath.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from operator import is_not
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["IntSlotMap", "make_vertex_map", "raw_map", "raw_get", "raw_set",
           "int64_buffer", "int64_view"]

#: bytes per int64 slot — the unit every shared flat array is sized in
INT64 = 8


def int64_buffer(n: int, fill: int = 0) -> array:
    """A flat int64 array of ``n`` slots, each set to ``fill``.

    The in-process rendering of the per-vertex flat arrays the process
    backend maps into ``multiprocessing.shared_memory``
    (:mod:`repro.parallel.procs`); both sides index it the same way.
    """
    return array("q", [fill]) * n if n else array("q")


def int64_view(buf, n: int) -> memoryview:
    """An int64[``n``] view over a writable bytes-like buffer.

    Used to overlay a ``SharedMemory.buf`` (or any ``memoryview``) with
    the same slot semantics as :func:`int64_buffer` — slot ``i`` of every
    attached process aliases the same 8 bytes.
    """
    return memoryview(buf)[: n * INT64].cast("q")


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()


class IntSlotMap:
    """Dict-shaped mapping from dense int ids to values, backed by a list.

    Supports the mapping surface the core/state layer uses: item access,
    ``get``, ``in``, iteration over set keys, ``keys``/``items``/``values``,
    ``len``, ``copy``, and equality against any mapping.  Assigning to an
    id beyond the current slot count grows the store; deletion is not
    supported (vertex ids are never reused).

    >>> m = IntSlotMap()
    >>> m[3] = "x"
    >>> m[3], m.get(0, "d"), 3 in m, len(m)
    ('x', 'd', True, 1)
    """

    __slots__ = ("_slots", "_count")

    def __init__(self, data: Optional[Mapping[int, Any]] = None, n: int = 0) -> None:
        if data:
            # one sizing pass, then plain slot stores (keys are distinct)
            n = max(n, max(data) + 1)
        self._slots: List[Any] = [_MISSING] * n
        self._count = 0
        if data:
            slots = self._slots
            for k, v in data.items():
                slots[k] = v
            self._count = len(data)

    # -- item access ---------------------------------------------------
    def __getitem__(self, k: int) -> Any:
        try:
            v = self._slots[k]
        except (IndexError, TypeError):
            raise KeyError(k) from None
        if v is _MISSING or k < 0:
            raise KeyError(k)
        return v

    def __setitem__(self, k: int, v: Any) -> None:
        slots = self._slots
        if k >= len(slots):
            slots.extend([_MISSING] * (k + 1 - len(slots)))
        if slots[k] is _MISSING:
            self._count += 1
        slots[k] = v

    def get(self, k: int, default: Any = None) -> Any:
        if isinstance(k, int) and 0 <= k < len(self._slots):
            v = self._slots[k]
            if v is not _MISSING:
                return v
        return default

    def __contains__(self, k: object) -> bool:
        return (
            isinstance(k, int)
            and 0 <= k < len(self._slots)
            and self._slots[k] is not _MISSING
        )

    # -- iteration -----------------------------------------------------
    # C-level passes: ``compress`` keeps the slots that are set
    def _filled(self) -> Iterator[bool]:
        return map(is_not, self._slots, repeat(_MISSING))

    def __iter__(self) -> Iterator[int]:
        return compress(range(len(self._slots)), self._filled())

    def keys(self) -> Iterator[int]:
        return iter(self)

    def values(self) -> Iterator[Any]:
        return compress(self._slots, self._filled())

    def items(self) -> Iterator[Tuple[int, Any]]:
        return compress(enumerate(self._slots), self._filled())

    def __len__(self) -> int:
        return self._count

    # -- bulk ----------------------------------------------------------
    def copy(self) -> "IntSlotMap":
        m = self.__class__.__new__(self.__class__)
        m._slots = list(self._slots)
        m._count = self._count
        return m

    def slots(self) -> List[Any]:
        """The raw backing list (``_MISSING`` sentinels included), for
        in-package kernels that scan all slots at C speed."""
        return self._slots

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntSlotMap):
            return dict(self.items()) == dict(other.items())
        if isinstance(other, Mapping) or isinstance(other, dict):
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("IntSlotMap is mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntSlotMap({dict(self.items())!r})"


def make_vertex_map(graph: Any, data: Optional[Mapping] = None):
    """Storage for a per-vertex attribute map over ``graph``.

    Returns an :class:`IntSlotMap` (sized to the graph's id space) when
    the substrate is an :class:`~repro.graph.intgraph.IntGraph`, else a
    plain ``dict`` — keeping the state layer storage-agnostic.
    """
    n = getattr(graph, "n_slots", None)
    if n is not None:
        return IntSlotMap(data, n=n)
    return dict(data) if data is not None else {}


def raw_map(m: Any) -> Any:
    """The C-speed indexable view of a vertex map, for hot read loops.

    Returns the backing list for :class:`IntSlotMap` (list indexing) and
    the mapping itself for plain dicts (hash lookup) — either way,
    ``raw_map(m)[k]`` costs one C-level subscript instead of a
    Python-level ``__getitem__`` call.  Only safe when every accessed key
    is known to be present (a missing slot yields the ``_MISSING``
    sentinel / ``IndexError`` rather than ``KeyError``) and when tracing
    must not see the reads — kernels using it are gated on
    ``trace is None``.
    """
    if isinstance(m, IntSlotMap):
        return m._slots
    return m


def raw_get(m: Any, k: Any, default: Any = None) -> Any:
    """Read ``m[k]`` bypassing any tracing subclass override.

    The race detector's traced maps override ``get``/``__getitem__``;
    the paper's *relaxed* (intentionally unsynchronized) reads must not
    be reported, so they dispatch through the base class explicitly.
    """
    if isinstance(m, IntSlotMap):
        return IntSlotMap.get(m, k, default)
    return dict.get(m, k, default)


def raw_set(m: Any, k: Any, v: Any) -> None:
    """Write ``m[k] = v`` bypassing any tracing subclass override."""
    if isinstance(m, IntSlotMap):
        IntSlotMap.__setitem__(m, k, v)
    else:
        dict.__setitem__(m, k, v)
