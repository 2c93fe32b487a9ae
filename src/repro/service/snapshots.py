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
``{k: vertices with core k}``, and a bounded ring of the last
:data:`DELTA_EPOCHS` commits ``(epoch, kind, edges, undo)``.  OurI/OurR
name exactly the vertices a batch can move (endpoints plus ``V*``), so a
commit writes only those slots and shells and keeps their old values in
``undo`` — O(|V*|) per epoch, never a copy of the map.  The head view
reads the array directly and is reused until the next commit; a view at
an older epoch, or a head view held across later commits, rolls back
through the ring on its first read.  Epochs older than the ring advance
:attr:`SnapshotStore.min_epoch` and are refused.  The ring's edge
batches also feed consumers that track the graph rather than the cores
(the sharded router): :meth:`SnapshotStore.edge_deltas`.

Shells are keyed on external vertices, so a ``k_shell`` answer needs no
per-slot translation: the head view lends the store's own shell set as a
read-only :class:`ShellSet`.  A commit that writes a shell while an
answer over it is still alive (tracked by weakref) queues the write
instead; the queue is applied in place once the answer is gone, and the
shell is copied (copy-on-write) only if a reader needs its contents
first or the queue would outgrow it.  Reads cost O(1), commits O(|V*|).

The query-plane publisher (:mod:`repro.service.queryplane`) shares the
store's interner; each publish hands it the array plus the slots the
ring says changed since its last publish, so it writes O(|V*|) slots
rather than the whole array.  Its readers wrap the copied payload as the
same array-backed :class:`SnapshotView`.
"""

from __future__ import annotations

import weakref
from array import array
from collections import defaultdict, deque
from collections.abc import Set as AbstractSet
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
    "FrozenCoreMap", "ShellSet", "SnapshotStore", "SnapshotView", "QUERY_KINDS",
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


class ShellSet(AbstractSet):
    """A read-only set over one shell of a shell index: the ``k_shell``
    and ``innermost`` answer type.

    It wraps the shell set itself, so an answer costs O(1) however large
    the shell; while an answer is alive the store never writes the set
    it wraps (:meth:`SnapshotStore._write` queues the write, or copies
    the shell), so the answer keeps its epoch.  It equals and hashes
    like the frozenset of its vertices, and pickles to that frozenset,
    so cross-process consumers (reader pools, shard pipes) receive a
    plain ``frozenset``.
    Set operators return ``frozenset``; ``frozenset(answer)`` is the
    private copy.
    """

    __slots__ = ("_s", "__weakref__")

    def __init__(self, shell: AbstractSet) -> None:
        self._s = shell

    def __contains__(self, u: object) -> bool:
        return u in self._s

    def __iter__(self):
        # a generator, not iter(self._s): its frame keeps the answer
        # alive, so no commit writes the set while it is being iterated
        yield from self._s

    def __len__(self) -> int:
        return len(self._s)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ShellSet):
            other = other._s
        if isinstance(other, (set, frozenset)):
            return self._s == other  # C-level, not the mixin's loop
        return AbstractSet.__eq__(self, other)

    def __hash__(self) -> int:
        # the value Set._hash gives (that of the equal frozenset), at C speed
        return hash(frozenset(self._s))

    @classmethod
    def _from_iterable(cls, it: Iterable) -> FrozenSet:
        return frozenset(it)

    def __reduce__(self):
        return (frozenset, (frozenset(self._s),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({set(self._s)!r})"


_NO_SHELL: FrozenSet = frozenset()

#: writes a shell may queue behind a live answer before it is copied,
#: below which copying a small shell is not worth it
_QUEUE_FLOOR = 64


def _shells_of(pairs: Iterable[Tuple[Vertex, int]]) -> Dict[int, Set[Vertex]]:
    """The shell index of ``(vertex, core)`` pairs: ``{k: vertices whose
    core is k}``."""
    shells: Dict[int, Set[Vertex]] = defaultdict(set)
    for u, k in pairs:
        shells[k].add(u)
    shells.pop(CORE_UNKNOWN, None)
    return shells


class SnapshotView:
    """An immutable core-number view pinned to one committed epoch.

    Backed by a dense int64 core array: ``ids`` maps a vertex to its
    slot and ``ext`` a slot back to its vertex.  Point kinds read one
    slot.  Aggregates come from the shell index ``{k: vertices}`` (the
    store's, kept current by each commit, or built from the array on
    first use).  ``k_shell`` and ``innermost`` wrap one shell as a
    :class:`ShellSet` and are not memoised; the other aggregates are
    computed once per view and shared by later calls, hence frozen.  The
    view never touches the maintainer, so reading can never block on (or
    observe) an in-flight batch.

    A store's head view shares the store's live array and shells until
    the next commit, which detaches it; a detached view rolls back
    through the store's ring on its next read, so it keeps answering its
    own epoch.  Views at other epochs, and query-plane reader views,
    build private shells from their array.
    """

    __slots__ = ("epoch", "_cores", "_ids", "_ext", "_shells", "_store",
                 "_memo")

    def __init__(self, epoch: int, cores: Sequence[int],
                 ids: Mapping[Vertex, int], ext: Sequence[Vertex],
                 shells: Optional[Dict[int, Set[Vertex]]] = None,
                 store: Optional["SnapshotStore"] = None) -> None:
        self.epoch = epoch
        self._cores: Optional[Sequence[int]] = cores
        self._ids = ids
        self._ext = ext
        self._shells = shells
        #: the store whose state a head view shares (``None`` once the
        #: view reads private state)
        self._store = store
        #: (kind, args) -> cached aggregate answer
        self._memo: Dict[tuple, Any] = {}

    def _detach(self) -> None:
        """The store is about to overwrite the shared array and shells:
        read from a rolled-back copy from now on."""
        self._cores = self._shells = None

    def _array(self) -> Sequence[int]:
        cores = self._cores
        if cores is None:
            store = self._store
            cores = self._cores = store.rolled_back(self.epoch)
            self._ids, self._ext = store.interner.tables()
            self._store = None
        return cores

    def _live(self) -> bool:
        """Whether this is its store's current head (not yet detached)."""
        return self._store is not None and self._cores is not None

    def _shell_index(self) -> Dict[int, Set[Vertex]]:
        if self._shells is None:
            if self._live():
                return self._store._settled()
            self._shells = _shells_of(zip(self._ext, self._array()))
        return self._shells

    def _shell_sizes(self) -> Mapping[int, int]:
        if self._live():
            return self._store._sizes
        return {k: len(s) for k, s in self._shell_index().items()}

    def _cached(self, key: tuple, compute: Callable[[], Any]) -> Any:
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = compute()
        return got

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
        return self._cached(("k_core", k), lambda: frozenset().union(
            *(s for c, s in self._shell_index().items() if c >= k)))

    def k_shell(self, k: int) -> ShellSet:
        """Vertices in the ``k``-shell, as a read-only :class:`ShellSet`
        (equal to, hashing and pickling like, the frozenset)."""
        if self._live():
            return self._store._lend(k)
        return ShellSet(self._shell_index().get(k, _NO_SHELL))

    def in_k_core(self, u: Vertex, k: int) -> bool:
        """k-core membership of one vertex; unknown vertices are in no
        core."""
        c = self.core(u)
        return c is not None and c >= k

    def degeneracy(self) -> int:
        return self._cached(("degeneracy",),
                            lambda: max(self._shell_sizes(), default=0))

    def innermost(self) -> Tuple[int, ShellSet]:
        kmax = self.degeneracy()
        return kmax, self.k_shell(kmax)

    def shell_histogram(self) -> Mapping[int, int]:
        return self._cached(("shell_histogram",), lambda: FrozenCoreMap(
            sorted(self._shell_sizes().items())))


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
        #: the shell index; a shell in ``_pending`` lags its queued writes
        self._shells = _shells_of(cores.items())
        #: ``{k: size}`` of every non-empty shell, queued writes included
        self._sizes = {k: len(s) for k, s in self._shells.items()}
        #: k -> weakref to the :class:`ShellSet` lent over ``_shells[k]``
        self._lent: Dict[int, weakref.ref] = {}
        #: k -> ``[(vertex, added), ...]`` writes to a shell that a live
        #: answer wraps, not yet applied to it
        self._pending: Dict[int, List[Tuple[Vertex, bool]]] = {}
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
        batch for :meth:`edge_deltas`.  Returns the new epoch.

        Writes to a shell that a live :class:`ShellSet` answer wraps
        are queued (:meth:`_write`), so the answer keeps its epoch."""
        self._head._detach()
        for k in [k for k in self._pending if self._lent[k]() is None]:
            self._settle(k)  # its answers are gone: apply in place
        cores, write = self._cores, self._write
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
                write(old, w, False)
            write(k, w, True)
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
        ids — so the store re-keys onto it first.

        When the publisher's last payload came from this store's array,
        the publish names the slots changed since then (:meth:`changed_since`)
        so the publisher writes only those; otherwise it copies the whole
        array."""
        if publisher is None:
            return
        if publisher.interner is not self.interner:
            self._adopt(publisher.interner)
        changed = (self.changed_since(publisher.epoch)
                   if publisher.source is self._cores else None)
        publisher.publish(self.epoch, self.min_epoch, self._cores, changed)

    def changed_since(self, epoch: int) -> Optional[Set[int]]:
        """The slots that any commit after ``epoch`` changed: the union of
        the ring's ``undo`` keys, or ``None`` when the ring no longer
        reaches back to ``epoch`` (or ``epoch`` is not in this store's
        range at all).  Every other slot of the head equals its value at
        ``epoch``."""
        if not self.min_epoch <= epoch <= self.epoch:
            return None
        changed: Set[int] = set()
        for e, _, _, undo in reversed(self._ring):
            if e <= epoch:
                break
            changed.update(undo)
        return changed

    def _adopt(self, interner: VertexInterner) -> None:
        remap = interner.intern_many(self.interner)
        cores = int64_buffer(len(interner), CORE_UNKNOWN)
        for i, k in enumerate(self._cores):
            cores[remap[i]] = k
        # a handed-out head keeps the old array, which nothing writes
        # now, and builds its own shells from it: the store's vertex-keyed
        # shells survive the re-key and go on changing
        self._head._store = None
        self._cores, self.interner = cores, interner
        for n, (e, kind, edges, undo) in enumerate(self._ring):
            self._ring[n] = (e, kind, edges,
                             {remap[i]: k for i, k in undo.items()})
        self._new_head()

    # ------------------------------------------------------------------
    def _write(self, k: int, w: Vertex, add: bool) -> None:
        """Add ``w`` to shell ``k`` or drop it: in place, or queued
        while a lent answer wraps the shell.  A queue that would outgrow
        its shell (and :data:`_QUEUE_FLOOR`) is settled by copying, so a
        write costs amortised O(1) however long the answer lives."""
        sizes = self._sizes
        n = sizes.get(k, 0) + (1 if add else -1)
        if n:
            sizes[k] = n
        else:
            del sizes[k]
        queue = self._pending.get(k)
        if queue is None:
            ref = self._lent.get(k)
            if ref is None or ref() is None:
                if ref is not None:
                    del self._lent[k]
                shells = self._shells
                shell = shells.get(k)
                if not add:
                    shell.discard(w)
                    if not shell:
                        del shells[k]
                elif shell is None:
                    shells[k] = {w}
                else:
                    shell.add(w)
                return
            queue = self._pending[k] = []
        queue.append((w, add))
        if len(queue) > max(len(self._shells[k]), _QUEUE_FLOOR):
            self._settle(k)

    def _settle(self, k: int) -> None:
        """Apply shell ``k``'s queued writes: in place once no answer
        wraps it, else to a copy that replaces it (the answer keeps the
        old set)."""
        queue = self._pending.pop(k)
        shell = self._shells[k]
        if self._lent.pop(k)() is not None:
            shell = self._shells[k] = set(shell)
        for w, add in queue:
            if add:
                shell.add(w)
            else:
                shell.discard(w)
        if not shell:
            del self._shells[k]

    def _settled(self) -> Dict[int, Set[Vertex]]:
        """The shell index with every queued write applied."""
        for k in list(self._pending):
            self._settle(k)
        return self._shells

    def _lend(self, k: int) -> ShellSet:
        """The head's ``k_shell`` answer: a :class:`ShellSet` over the
        store's own shell set.  While one is alive the same object is
        lent again, so one weakref per shell tracks every holder."""
        if k in self._pending:
            self._settle(k)
        shell = self._shells.get(k)
        if shell is None:
            return ShellSet(_NO_SHELL)
        ref = self._lent.get(k)
        got = ref() if ref is not None else None
        if got is None:
            got = ShellSet(shell)
            self._lent[k] = weakref.ref(got)
        return got

    def _new_head(self) -> None:
        """Build the head view once per commit, so reads only fetch it."""
        ids, ext = self.interner.tables()
        self._head = SnapshotView(self.epoch, self._cores, ids, ext,
                                  store=self)

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

    def check(self, publisher=None) -> None:
        """The committed head equals the maintainer's cores (valid at
        quiescence), and the shell index equals the array's.  With an
        open query-plane ``publisher``, its front buffer also carries
        exactly the head epoch and array."""
        live, committed = self.maintainer.cores(), self.view().cores()
        assert live == committed, (
            f"snapshot out of sync with the maintainer at epoch "
            f"{self.epoch}: {len(committed)} committed vs {len(live)} cores"
        )
        ext = self.interner.tables()[1]
        shells = self._settled()
        assert shells == _shells_of(zip(ext, self._cores)), (
            f"shell index out of sync with the core array at epoch "
            f"{self.epoch}"
        )
        assert self._sizes == {k: len(s) for k, s in shells.items()}, (
            f"shell sizes out of sync at epoch {self.epoch}"
        )
        if publisher is None or publisher.closed:
            return
        epoch, payload = publisher.front()
        assert (epoch, payload) == (self.epoch, self._cores.tobytes()), (
            f"query-plane front buffer (epoch {epoch}) out of sync with "
            f"the snapshot head at epoch {self.epoch}"
        )
