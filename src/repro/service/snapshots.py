"""Epoch-versioned, snapshot-isolated core views.

The serving engine commits updates in micro-batches; each commit is an
**epoch**.  Readers never look at the maintainer's live state — they get
a :class:`SnapshotView` pinned to a committed epoch, so a query issued
while a batch is pending (or, in a real deployment, mid-application)
answers against the last *consistent* core assignment.  This is the
asynchronous-reads serving shape of Liu et al. (arXiv 2401.08015) mapped
onto our order-based maintainer.

Storage is delta-based, not copy-based: :class:`SnapshotStore` records
each commit's touched vertices into a :class:`repro.core.history.CoreHistory`
(O(|V*|) per epoch), and materializes a full core map per epoch lazily,
with a small LRU cache (:data:`CACHE_EPOCHS` views) so the common case —
many queries against the latest epoch — pays the materialization once.
The store also keeps the last :data:`DELTA_EPOCHS` committed edge
batches, so a consumer that tracks the graph rather than the cores (the
sharded router's global maintainer) can catch up from an epoch with
:meth:`SnapshotStore.edge_deltas` instead of re-reading every edge.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import islice
from typing import (
    Any, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from repro.core.history import CoreHistory
from repro.core.queries import (
    degeneracy,
    in_k_core,
    innermost_core,
    k_core_vertices,
    k_shell,
    shell_histogram,
)
from repro.service.requests import (
    E_BAD_REQUEST,
    E_UNKNOWN_QUERY,
    E_UNKNOWN_VERTEX,
)

Vertex = Hashable

__all__ = [
    "FrozenCoreMap", "SnapshotStore", "SnapshotView", "QUERY_KINDS",
    "CACHE_EPOCHS", "DELTA_EPOCHS", "answer_query",
]

#: materialized epoch maps a :class:`SnapshotStore` keeps (LRU); evicted
#: epochs stay answerable, rebuilt from the history deltas
CACHE_EPOCHS = 8

#: committed edge batches a :class:`SnapshotStore` keeps for
#: :meth:`SnapshotStore.edge_deltas` (a ring: older ones are dropped)
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


class SnapshotView:
    """An immutable core-number view pinned to one committed epoch.

    All answers come from the frozen ``cores`` map via the helpers of
    :mod:`repro.core.queries`; the view never touches the maintainer, so
    reading can never block on (or observe) an in-flight batch.

    The map never changes after construction, so the derived aggregates
    (:meth:`degeneracy`, :meth:`shell_histogram`, :meth:`innermost`) and
    the :meth:`cores` export are computed once per view and cached —
    under a read-heavy mix these, not the maintainer, are the hot path.
    """

    __slots__ = ("epoch", "_cores", "_copy", "_degeneracy", "_innermost",
                 "_histogram", "_shells", "_kcores")

    def __init__(self, epoch: int, cores: Dict[Vertex, int]) -> None:
        self.epoch = epoch
        self._cores = cores
        self._copy: Optional["FrozenCoreMap"] = None
        self._degeneracy: Optional[int] = None
        self._innermost: Optional[Tuple[int, FrozenSet[Vertex]]] = None
        self._histogram: Optional["FrozenCoreMap"] = None
        self._shells: Dict[int, FrozenSet[Vertex]] = {}
        self._kcores: Dict[int, FrozenSet[Vertex]] = {}

    def __len__(self) -> int:
        return len(self._cores)

    def __contains__(self, u: Vertex) -> bool:
        return u in self._cores

    @property
    def mapping(self) -> Dict[Vertex, int]:
        """The view's internal core map — shared, **read-only**.  The
        zero-copy surface the query-plane publisher encodes from
        (:meth:`repro.service.queryplane.EpochPublisher.publish`);
        mutating it corrupts the epoch ledger."""
        return self._cores

    def core(self, u: Vertex) -> Optional[int]:
        """Core number of ``u`` at this epoch (None if unknown then)."""
        return self._cores.get(u)

    def cores(self) -> Mapping[Vertex, int]:
        """The full core map at this epoch.

        Built once per view and shared by every later call (the store
        hands out one view per cached epoch, so this is one copy per
        *epoch*, not per query).  The result is a :class:`FrozenCoreMap`
        — mutation raises; take ``dict(view.cores())`` for a private
        copy.
        """
        if self._copy is None:
            self._copy = FrozenCoreMap(self._cores)
        return self._copy

    def k_core(self, k: int) -> FrozenSet[Vertex]:
        """Vertices in the ``k``-core — computed once per ``k`` per view
        and shared by later calls, hence frozen."""
        got = self._kcores.get(k)
        if got is None:
            got = self._kcores[k] = frozenset(k_core_vertices(self._cores, k))
        return got

    def k_shell(self, k: int) -> FrozenSet[Vertex]:
        """Vertices in the ``k``-shell — computed once per ``k`` per
        view and shared by later calls, hence frozen."""
        got = self._shells.get(k)
        if got is None:
            got = self._shells[k] = frozenset(k_shell(self._cores, k))
        return got

    def in_k_core(self, u: Vertex, k: int) -> bool:
        return in_k_core(self._cores, u, k)

    def degeneracy(self) -> int:
        if self._degeneracy is None:
            self._degeneracy = degeneracy(self._cores)
        return self._degeneracy

    def innermost(self) -> Tuple[int, FrozenSet[Vertex]]:
        if self._innermost is None:
            kmax, verts = innermost_core(self._cores)
            self._innermost = (kmax, frozenset(verts))
        return self._innermost

    def shell_histogram(self) -> Mapping[int, int]:
        if self._histogram is None:
            self._histogram = FrozenCoreMap(shell_histogram(self._cores))
        return self._histogram


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
    """Epoch ledger over a maintainer: commit deltas in, views out.

    Parameters
    ----------
    maintainer:
        Anything exposing ``core(u)`` / ``cores()`` — the engine passes
        its :class:`~repro.parallel.batch.ParallelOrderMaintainer`.
    epoch0:
        First answerable epoch.  A fresh engine starts at 0; an engine
        restarted from a journal checkpoint starts at the checkpoint's
        epoch — epochs before it were truncated with the checkpoint and
        :meth:`view` refuses them (``docs/faults.md``).
    """

    def __init__(self, maintainer, epoch0: int = 0) -> None:
        self.history = CoreHistory(maintainer)
        self.history.t = epoch0
        self.min_epoch = epoch0
        #: epoch -> materialized SnapshotView (LRU).  Caching the *view*
        #: (not the raw map) makes the per-view aggregate caches and the
        #: one-copy-per-epoch ``cores()`` export effective across
        #: repeated ``view()`` calls at the same epoch.
        self._cache: "OrderedDict[int, SnapshotView]" = OrderedDict()
        self._cache[epoch0] = SnapshotView(epoch0, dict(maintainer.cores()))
        #: ``(epoch, kind, edges)`` of the last committed batches
        self._deltas: deque = deque(maxlen=DELTA_EPOCHS)

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The last committed epoch (0 = the initial graph)."""
        return self.history.t

    def commit(self, touched: Iterable[Vertex]) -> int:
        """Record a batch commit: ``touched`` is every vertex whose core
        may have changed (batch endpoints plus all ``V*``).  Returns the
        new epoch number."""
        prev = self._cache.get(self.history.t)
        touched = set(touched)
        epoch = self.history.record_epoch(touched)
        if prev is not None:
            # incremental materialization: patch the previous epoch's map
            cur = dict(prev.mapping)
            for w in touched:
                k = self.history.core_at(w, epoch)
                if k is not None:
                    cur[w] = k
            self._remember(epoch, SnapshotView(epoch, cur))
        return epoch

    def commit_batch(self, kind: str, batch: Sequence[Tuple[Vertex, Vertex]],
                     result) -> Tuple[int, Set[Vertex]]:
        """Commit an applied maintainer batch of ``kind`` (``"+"`` or
        ``"-"``) as the next epoch.

        OurI/OurR name exactly the vertices whose cores may have moved:
        the batch endpoints plus every ``V*`` in ``result.stats``.
        Returns the new epoch and that touched set, which also bounds
        the query-plane mirror update (:meth:`publish_to`).  The batch
        itself joins the :meth:`edge_deltas` ring."""
        touched = {w for e in batch for w in e}
        for s in result.stats:
            touched.update(s.v_star)
        epoch = self.commit(touched)
        self._deltas.append((epoch, kind, tuple(batch)))
        return epoch, touched

    def edge_deltas(self, since: int
                    ) -> Tuple[int, Optional[List[Tuple[int, str, tuple]]]]:
        """The edge batches committed after epoch ``since``.

        Returns ``(epoch, batches)``: the last committed epoch and its
        ``(epoch, kind, edges)`` batches in epoch order, or ``(epoch,
        None)`` when the ring no longer reaches back to ``since`` (more
        than :data:`DELTA_EPOCHS` epochs ago, before a restart, or past
        an epoch committed without a batch).  Applying the batches in
        order to the edge set at ``since`` gives the edge set at
        ``epoch``."""
        epoch = self.epoch
        n = epoch - since
        ring = self._deltas
        if n < 0 or n > len(ring):
            return epoch, None
        if n == 0:
            return epoch, []
        batches = list(islice(ring, len(ring) - n, None))
        # epochs are strictly increasing, so first and last pin the run
        if batches[0][0] != since + 1 or batches[-1][0] != epoch:
            return epoch, None
        return epoch, batches

    def publish_to(self, publisher, touched: Optional[Set[Vertex]] = None
                   ) -> None:
        """Publish the last committed epoch to a query-plane
        :class:`~repro.service.queryplane.EpochPublisher` (no-op for
        ``None``).  ``touched`` bounds the mirror update; ``None`` forces
        a full rewrite (first publish, rebind, recovery)."""
        if publisher is None:
            return
        view = self.view()
        publisher.publish(view.epoch, self.min_epoch, view.mapping, touched)

    def view(self, epoch: Optional[int] = None) -> SnapshotView:
        """A read view at ``epoch`` (default: the last committed one)."""
        e = self.epoch if epoch is None else epoch
        if e < self.min_epoch or e > self.epoch:
            raise ValueError(
                f"epoch {e} out of range [{self.min_epoch}, {self.epoch}]"
            )
        view = self._cache.get(e)
        if view is None:
            view = SnapshotView(e, self.history.cores_at(e))
            self._remember(e, view)
        else:
            self._cache.move_to_end(e)
        return view

    def _remember(self, epoch: int, view: SnapshotView) -> None:
        self._cache[epoch] = view
        self._cache.move_to_end(epoch)
        while len(self._cache) > CACHE_EPOCHS:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    def rebind(self, maintainer) -> None:
        """Point the store at a rebuilt maintainer (crash recovery).

        The epoch ledger is untouched — recovery rebuilds the maintainer
        to exactly the last *committed* state, so every already-answered
        epoch stays answerable and the next :meth:`commit` continues the
        numbering.  Verifies the rebuilt cores match the committed view
        before accepting the swap.
        """
        live = maintainer.cores()
        committed = self.view().mapping
        if live != committed:
            raise ValueError(
                "recovered maintainer disagrees with committed epoch "
                f"{self.epoch}: {len(live)} vs {len(committed)} cores"
            )
        self.history.m = maintainer

    def check(self) -> None:
        """History-vs-maintainer consistency (valid at quiescence)."""
        self.history.check()
        live = self.view().mapping
        for u, k in self.history.m.cores().items():
            assert live.get(u) == k, (
                f"snapshot of {u!r} out of sync: {live.get(u)} != {k}"
            )
