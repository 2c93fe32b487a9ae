"""Epoch-versioned, snapshot-isolated core views.

The serving engine commits updates in micro-batches; each commit is an
**epoch**.  Readers never look at the maintainer's live state — they get
a :class:`SnapshotView` pinned to a committed epoch, so a query issued
while a batch is pending (or, in a real deployment, mid-application)
answers against the last *consistent* core assignment.  This is the
asynchronous-reads serving shape of Liu et al. (arXiv 2401.08015) mapped
onto our order-based maintainer.

One representation backs every view.  :class:`SnapshotStore` keeps a
single dense int64 core array over interned vertex ids
(:data:`CORE_UNKNOWN` for vertices absent at the head), a shell index
``{k: slots with core k}``, and a bounded ring of the last
:data:`DELTA_EPOCHS` commits ``(epoch, kind, edges, undo)``.  OurI/OurR
name exactly the vertices a batch can move (endpoints plus ``V*``), so a
commit writes only those slots and keeps their old values in ``undo`` —
O(|V*|) per epoch, never a copy of the map.  The head view reads the
array directly and is reused until the next commit; a view at an older
epoch, or a head view held across later commits, rolls back through the
ring on its first read.  Epochs older than the ring advance
:attr:`SnapshotStore.min_epoch` and are refused.  The ring's edge
batches also feed consumers that track the graph rather than the cores
(the sharded router): :meth:`SnapshotStore.edge_deltas`.

The query-plane publisher (:mod:`repro.service.queryplane`) shares the
store's interner and copies the array as its payload; its readers wrap
the copied payload as the same array-backed :class:`SnapshotView`.
"""

from __future__ import annotations

from array import array
from collections import defaultdict, deque
from typing import (
    Any, Callable, Dict, FrozenSet, Hashable, Iterable, List, Mapping,
    Optional, Sequence, Set, Tuple,
)

from repro.graph.interning import VertexInterner
from repro.graph.storage import int64_buffer
from repro.service.requests import (
    E_BAD_REQUEST,
    E_UNKNOWN_QUERY,
    E_UNKNOWN_VERTEX,
)

Vertex = Hashable

__all__ = [
    "FrozenCoreMap", "SnapshotStore", "SnapshotView", "QUERY_KINDS",
    "CORE_UNKNOWN", "DELTA_EPOCHS", "answer_query",
]

#: core-array value for "this interned vertex has no core at this epoch"
CORE_UNKNOWN = -1

#: commits a :class:`SnapshotStore` retains (a ring: older ones are
#: dropped and their epochs stop being answerable)
DELTA_EPOCHS = 64


class FrozenCoreMap(dict):
    """A read-only dict for cached query results shared across callers.

    The per-view caches hand the *same* object to every caller (and the
    ``QUERY_KINDS`` handlers ship it as ``Response.value`` on the
    in-engine path), so mutation would silently corrupt every later
    answer at that epoch — here it raises instead.  Pickling reduces to
    a plain ``dict``, so cross-process consumers (reader pools, shard
    pipes) receive their own private, mutable copy; ``.copy()`` gives
    the same in-process.
    """

    __slots__ = ()

    def _frozen(self, *args, **kwargs):
        raise TypeError(
            "snapshot query results are read-only (shared per-epoch "
            "cache); take dict(result) to mutate a private copy"
        )

    __setitem__ = __delitem__ = _frozen
    clear = pop = popitem = setdefault = update = _frozen

    def __reduce__(self):
        return (dict, (dict(self),))


def _shells_of(cores: Sequence[int]) -> Dict[int, Set[int]]:
    """The shell index of a core array: ``{k: slots whose core is k}``."""
    shells: Dict[int, Set[int]] = defaultdict(set)
    for i, k in enumerate(cores):
        shells[k].add(i)
    shells.pop(CORE_UNKNOWN, None)
    return shells


class SnapshotView:
    """An immutable core-number view pinned to one committed epoch.

    Backed by a dense int64 core array: ``ids`` maps a vertex to its
    slot and ``ext`` a slot back to its vertex.  Point kinds read one
    slot.  Aggregates come from the shell index (the store's, kept
    current by each commit, or built from the array on first use) and
    are computed once per view and shared by later calls, hence frozen
    — under a read-heavy mix these, not the maintainer, are the hot
    path.  The view never touches the maintainer, so reading can never
    block on (or observe) an in-flight batch.

    A store's head view shares the store's live array until the next
    commit, which detaches it; a detached view rolls back through the
    store's ring on its next read, so it keeps answering its own epoch.
    """

    __slots__ = ("epoch", "_cores", "_ids", "_ext", "_shells", "_store",
                 "_memo")

    def __init__(self, epoch: int, cores: Sequence[int],
                 ids: Mapping[Vertex, int], ext: Sequence[Vertex],
                 shells: Optional[Dict[int, Set[int]]] = None,
                 store: Optional["SnapshotStore"] = None) -> None:
        self.epoch = epoch
        self._cores: Optional[Sequence[int]] = cores
        self._ids = ids
        self._ext = ext
        self._shells = shells
        self._store = store
        #: (kind, args) -> cached aggregate answer
        self._memo: Dict[tuple, Any] = {}

    def _detach(self) -> None:
        """The store is about to overwrite the shared array: read from a
        rolled-back copy from now on."""
        self._cores = self._shells = None

    def _array(self) -> Sequence[int]:
        cores = self._cores
        if cores is None:
            store = self._store
            cores = self._cores = store.rolled_back(self.epoch)
            self._ids, self._ext = store.interner.tables()
            self._store = None
        return cores

    def _shell_index(self) -> Dict[int, Set[int]]:
        if self._shells is None:
            self._shells = _shells_of(self._array())
        return self._shells

    def _cached(self, key: tuple, compute: Callable[[], Any]) -> Any:
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = compute()
        return got

    def _vertices(self, slots: Iterable[int]) -> FrozenSet[Vertex]:
        return frozenset(map(self._ext.__getitem__, slots))

    def __contains__(self, u: Vertex) -> bool:
        return self.core(u) is not None

    def core(self, u: Vertex) -> Optional[int]:
        """Core number of ``u`` at this epoch (None if unknown then)."""
        i = self._ids.get(u)
        if i is None:
            return None
        cores = self._cores
        if cores is None:
            cores = self._array()
        try:
            k = cores[i]
        except IndexError:  # interned after this view's payload
            return None
        return k if k >= 0 else None  # CORE_UNKNOWN is the only k < 0

    def cores(self) -> Mapping[Vertex, int]:
        """The full core map at this epoch, as a :class:`FrozenCoreMap`
        — mutation raises; take ``dict(view.cores())`` for a private
        copy."""
        return self._cached(("cores",), lambda: FrozenCoreMap(
            (self._ext[i], k) for i, k in enumerate(self._array())
            if k != CORE_UNKNOWN))

    def k_core(self, k: int) -> FrozenSet[Vertex]:
        """Vertices in the ``k``-core."""
        return self._cached(("k_core", k), lambda: self._vertices(
            i for c, s in self._shell_index().items() if c >= k for i in s))

    def k_shell(self, k: int) -> FrozenSet[Vertex]:
        """Vertices in the ``k``-shell."""
        return self._cached(("k_shell", k), lambda: self._vertices(
            self._shell_index().get(k, ())))

    def in_k_core(self, u: Vertex, k: int) -> bool:
        """k-core membership of one vertex; unknown vertices are in no
        core."""
        c = self.core(u)
        return c is not None and c >= k

    def degeneracy(self) -> int:
        return self._cached(("degeneracy",),
                            lambda: max(self._shell_index(), default=0))

    def innermost(self) -> Tuple[int, FrozenSet[Vertex]]:
        kmax = self.degeneracy()
        return self._cached(("innermost",), lambda: (kmax, self.k_shell(kmax)))

    def shell_histogram(self) -> Mapping[int, int]:
        return self._cached(("shell_histogram",), lambda: FrozenCoreMap(
            sorted((k, len(s)) for k, s in self._shell_index().items())))


#: the snapshot query plane: kind -> handler(view, args).  Every serving
#: surface (engine, sharded router, follower, query-plane reader)
#: answers through :func:`answer_query`, so all of them answer exactly
#: the same query kinds the same way.
QUERY_KINDS = {
    "core": lambda view, a: view.core(*a),
    "cores": lambda view, a: view.cores(),
    "k_core": lambda view, a: view.k_core(*a),
    "k_shell": lambda view, a: view.k_shell(*a),
    "in_k_core": lambda view, a: view.in_k_core(*a),
    "degeneracy": lambda view, a: view.degeneracy(),
    "innermost": lambda view, a: view.innermost(),
    "shell_histogram": lambda view, a: view.shell_histogram(),
}


def answer_query(view: SnapshotView, kind: str, args: Tuple
                 ) -> Tuple[Any, Optional[Tuple[str, str]]]:
    """Answer one query against a committed view: ``(value, None)``, or
    ``(None, (code, message))`` for a refusal.

    The classification every serving surface shares: an unknown kind is
    ``unknown-query``, arguments the handler rejects are
    ``bad-request``, and ``core`` of a vertex the epoch does not know is
    ``unknown-vertex``.  Admission, clocks and envelope stamps stay with
    each surface.
    """
    handler = QUERY_KINDS.get(kind or "")
    if handler is None:
        return None, (
            E_UNKNOWN_QUERY,
            f"unknown query kind {kind!r} (known: {sorted(QUERY_KINDS)})",
        )
    try:
        value = handler(view, args)
    except TypeError as exc:
        return None, (E_BAD_REQUEST, f"bad arguments for {kind!r}: {exc}")
    if kind == "core" and value is None:
        return None, (
            E_UNKNOWN_VERTEX,
            f"vertex {args[0]!r} unknown at epoch {view.epoch}",
        )
    return value, None


class SnapshotStore:
    """Epoch ledger over a maintainer: commits in, views out.

    Parameters
    ----------
    maintainer:
        Anything exposing ``core(u)`` / ``cores()`` — the engine passes
        its order maintainer.
    epoch0:
        First answerable epoch.  A fresh engine starts at 0; an engine
        restarted from a journal checkpoint starts at the checkpoint's
        epoch — epochs before it were truncated with the checkpoint and
        :meth:`view` refuses them (``docs/faults.md``).
    """

    def __init__(self, maintainer, epoch0: int = 0) -> None:
        self.maintainer = maintainer
        #: the last committed epoch, and the oldest one still answerable
        self.epoch = epoch0
        self.min_epoch = epoch0
        cores = maintainer.cores()
        #: vertex <-> slot; shared with the query-plane publisher
        self.interner = VertexInterner(cores)
        self._cores = array("q", cores.values())
        self._shells = _shells_of(self._cores)
        #: ``(epoch, kind, edges, undo)`` of the last commits, where
        #: ``undo`` maps each slot the commit changed to its old value
        self._ring: deque = deque(maxlen=DELTA_EPOCHS)
        self._new_head()

    # ------------------------------------------------------------------
    def commit(self, touched: Iterable[Vertex], kind: Optional[str] = None,
               edges: tuple = (), epoch: Optional[int] = None) -> int:
        """Commit the maintainer's cores of ``touched`` — every vertex
        whose core may have changed (batch endpoints plus all ``V*``) —
        as the next epoch, or as ``epoch`` (strictly later: the sharded
        router stamps its global epochs).  ``kind``/``edges`` name the
        batch for :meth:`edge_deltas`.  Returns the new epoch."""
        self._head._detach()
        cores, shells = self._cores, self._shells
        intern, core = self.interner.intern, self.maintainer.core
        undo: Dict[int, int] = {}
        for w in touched:
            try:
                k = core(w)
            except KeyError:  # the maintainer no longer knows w
                continue
            i = intern(w)
            if i == len(cores):
                cores.append(CORE_UNKNOWN)
            old = cores[i]
            if old == k:
                continue
            undo[i] = old
            cores[i] = k
            if old != CORE_UNKNOWN:
                shells[old].discard(i)
                if not shells[old]:
                    del shells[old]
            shells[k].add(i)
        epoch = self.epoch + 1 if epoch is None else epoch
        ring = self._ring
        if len(ring) == ring.maxlen:
            # the oldest commit falls off: its epoch is the last one the
            # remaining undo entries can still roll back to
            self.min_epoch = ring[0][0]
        ring.append((epoch, kind, edges, undo))
        self.epoch = epoch
        self._new_head()
        return epoch

    def commit_batch(self, kind: str, batch: Sequence[Tuple[Vertex, Vertex]],
                     result) -> int:
        """Commit an applied maintainer batch of ``kind`` (``"+"`` or
        ``"-"``) as the next epoch and return it.

        OurI/OurR name exactly the vertices whose cores may have moved:
        the batch endpoints plus every ``V*`` in ``result.stats``.  The
        batch itself joins the :meth:`edge_deltas` ring."""
        touched = {w for e in batch for w in e}
        for s in result.stats:
            touched.update(s.v_star)
        return self.commit(touched, kind, tuple(batch))

    def edge_deltas(self, since: int
                    ) -> Tuple[int, Optional[List[Tuple[int, str, tuple]]]]:
        """The edge batches committed after epoch ``since``.

        Returns ``(epoch, batches)``: the last committed epoch and its
        ``(epoch, kind, edges)`` batches in epoch order, or ``(epoch,
        None)`` when the ring no longer reaches back to ``since`` (more
        than :data:`DELTA_EPOCHS` epochs ago, or before a restart).
        Applying the batches in order to the edge set at ``since`` gives
        the edge set at ``epoch``."""
        batches = [entry[:3] for entry in self._ring if entry[0] > since]
        # a store's epochs are consecutive and its newest entry is the
        # head, so the run is whole iff it starts right after ``since``
        whole = (batches[0][0] == since + 1 if batches
                 else since == self.epoch)
        return self.epoch, batches if whole else None

    def publish_to(self, publisher) -> None:
        """Publish the head to a query-plane
        :class:`~repro.service.queryplane.EpochPublisher` (no-op for
        ``None``).  A publisher that outlived an earlier store (restart,
        promotion, router rebuild) keeps its interner — readers hold its
        ids — so the store re-keys onto it first."""
        if publisher is None:
            return
        if publisher.interner is not self.interner:
            self._adopt(publisher.interner)
        publisher.publish(self.epoch, self.min_epoch, self._cores)

    def _adopt(self, interner: VertexInterner) -> None:
        remap = interner.intern_many(self.interner)
        cores = int64_buffer(len(interner), CORE_UNKNOWN)
        for i, k in enumerate(self._cores):
            cores[remap[i]] = k
        # a handed-out head keeps the old array, which nothing writes now
        self._cores, self.interner = cores, interner
        self._shells = _shells_of(cores)
        for n, (e, kind, edges, undo) in enumerate(self._ring):
            self._ring[n] = (e, kind, edges,
                             {remap[i]: k for i, k in undo.items()})
        self._new_head()

    # ------------------------------------------------------------------
    def _new_head(self) -> None:
        """Build the head view once per commit, so reads only fetch it."""
        ids, ext = self.interner.tables()
        self._head = SnapshotView(self.epoch, self._cores, ids, ext,
                                  self._shells, self)

    def view(self, epoch: Optional[int] = None) -> SnapshotView:
        """A read view at ``epoch`` (default: the last committed one)."""
        if epoch is None or epoch == self.epoch:
            return self._head
        ids, ext = self.interner.tables()
        return SnapshotView(epoch, self.rolled_back(epoch), ids, ext)

    def rolled_back(self, epoch: int) -> array:
        """A private copy of the core array as it was at ``epoch``."""
        if not self.min_epoch <= epoch <= self.epoch:
            raise ValueError(
                f"epoch {epoch} out of range [{self.min_epoch}, {self.epoch}]"
            )
        cores = self._cores[:]
        for e, _, _, undo in reversed(self._ring):
            if e <= epoch:
                break
            for i, k in undo.items():
                cores[i] = k
        return cores

    # ------------------------------------------------------------------
    def rebind(self, maintainer) -> None:
        """Point the store at a rebuilt maintainer (crash recovery).

        The epoch ledger is untouched — recovery rebuilds the maintainer
        to exactly the last *committed* state, so every already-answered
        epoch stays answerable and the next :meth:`commit` continues the
        numbering.  Verifies the rebuilt cores match the committed head
        before accepting the swap.
        """
        live, committed = maintainer.cores(), self.view().cores()
        if live != committed:
            raise ValueError(
                "recovered maintainer disagrees with committed epoch "
                f"{self.epoch}: {len(live)} vs {len(committed)} cores"
            )
        self.maintainer = maintainer

    def check(self) -> None:
        """The committed head equals the maintainer's cores (valid at
        quiescence), and the shell index equals the array's."""
        live, committed = self.maintainer.cores(), self.view().cores()
        assert live == committed, (
            f"snapshot out of sync with the maintainer at epoch "
            f"{self.epoch}: {len(committed)} committed vs {len(live)} cores"
        )
        assert self._shells == _shells_of(self._cores), (
            f"shell index out of sync with the core array at epoch "
            f"{self.epoch}"
        )
