"""The streaming core-maintenance engine.

:class:`Engine` turns the batch library into a serving system: it accepts
an interleaved stream of ``insert`` / ``remove`` / ``query`` requests
(with per-request ids and deadlines) and keeps three promises:

1. **Homogeneous micro-batches.**  Updates accumulate in an adaptive
   micro-batcher (:mod:`repro.service.batcher`) and are applied when a
   cut policy fires (size, elapsed service time, query pressure, a kind
   conflict, or an explicit flush) — through
   :class:`~repro.core.maintainer.DirectOrderMaintainer`, the sequential
   order-based OI/OR.  The simulated parallel OurI/OurR
   (:class:`~repro.parallel.batch.ParallelOrderMaintainer`) reproduces
   the paper's experiments and is not a serving backend.

2. **Snapshot-isolated reads.**  Queries never touch the live maintainer
   state: they answer against the last committed epoch through
   :class:`~repro.service.snapshots.SnapshotStore`, so a read issued
   while a batch is pending returns the previous epoch's values in
   bounded time — it can never block on, or observe, an in-flight batch.

3. **No escaping exceptions.**  Admission control bounds the ingress
   queue (backpressure → ``rejected``), malformed or duplicate requests
   are quarantined with structured errors, and per-request deadlines
   produce ``timed_out`` responses — a partial-failure report per batch —
   instead of raising.

Time is a deterministic service clock in cost units: it advances by a
small ingest/query cost per request and, at commit, by each batch's
charge — the direct kernel's ``DIRECT_UNIT * (1 + |V+| + |V*|)`` per
edge.  That is what makes latency percentiles and deadline semantics
deterministic and testable; ``metrics()["clock_unit"]`` is ``"cost"``.

>>> from repro.graph.dynamic_graph import DynamicGraph
>>> from repro.service import Engine
>>> eng = Engine(DynamicGraph([(0, 1), (1, 2), (0, 2)]))
>>> eng.query("core", 0).value
2
>>> eng.insert(0, 3).status
'pending'
>>> eng.query("core", 3).value is None   # snapshot: not committed yet
True
>>> _ = eng.flush()
>>> eng.query("core", 3).value
1
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
)

from repro.core.maintainer import DirectOrderMaintainer, validate_batch
from repro.faults.plane import BatchCrashed, as_plane
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.service.batcher import (
    CANCEL,
    COALESCE,
    CONFLICT,
    AdaptiveBatcher,
)
from repro.service.journal import EdgeJournal, PreparedTx, Replay
from repro.service.metrics import ServiceMetrics
from repro.service.requests import (
    E_BACKPRESSURE,
    E_BAD_REQUEST,
    E_BATCH_FAILED,
    E_DEADLINE,
    E_DUPLICATE_ID,
    E_EDGE_EXISTS,
    E_EDGE_MISSING,
    E_RETRIES_EXHAUSTED,
    E_SELF_LOOP,
    E_UNKNOWN_VERTEX,
    STATUS_ABANDONED,
    STATUS_COMMITTED,
    STATUS_PENDING,
    STATUS_QUARANTINED,
    STATUS_REJECTED,
    STATUS_TIMED_OUT,
    Request,
    Response,
    make_error,
)
from repro.service.snapshots import SnapshotStore, SnapshotView, answer_query

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["Engine", "EngineConfig", "BACKENDS"]

#: where ``EngineConfig.backend`` may host shard engines
BACKENDS = ("direct", "process")


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs of the serving engine.

    Batching: ``max_batch`` / ``max_delay`` / ``query_pressure`` are the
    micro-batcher cut triggers (see :class:`AdaptiveBatcher`).  Admission:
    ``max_pending`` bounds the ingress queue — an update arriving while
    that many operations are pending is rejected (backpressure);
    ``None`` disables the bound.  Costs: ``ingest_cost`` / ``query_cost``
    advance the service clock per request.

    Faults & durability (``docs/faults.md``): ``faults`` arms a seeded
    :class:`~repro.faults.FaultSpec` / :class:`~repro.faults.FaultPlane`
    against every batch; ``journal_path`` additionally persists the
    write-ahead journal to a file; ``checkpoint_every`` writes a full
    graph+cores+order checkpoint record every N epochs; a crashed batch
    is retried up to ``max_retries`` times after recovery, each retry
    preceded by a ``retry_backoff * 2**(attempt-1)`` service-clock delay.
    """

    max_batch: int = 512
    max_delay: Optional[float] = None
    query_pressure: Optional[int] = None
    max_pending: Optional[int] = None
    ingest_cost: float = 1.0
    query_cost: float = 5.0
    #: where shard engines run: ``"direct"`` (in this process, the
    #: default) or ``"process"`` (shard workers in real OS processes,
    #: each hosting a direct engine — requires the sharded engine,
    #: :mod:`repro.service.sharding`)
    backend: str = "direct"
    #: number of engine shards (1 = the classic monolithic engine;
    #: >1 routes through :class:`~repro.service.sharding.ShardedEngine`)
    shards: int = 1
    #: group-commit size of the router's cross-shard 2PC buffer — how
    #: many cross edges are committed per grouped prepare/commit round
    #: (None = ``4 * max_batch``; the distributed commit amortizes its
    #: per-round cost over a larger run than the in-engine micro-batch)
    cross_group: Optional[int] = None
    #: seed of the fault plane built from a :class:`~repro.faults.FaultSpec`
    seed: int = 0
    #: fault-injection plane (None = no injection, the default)
    faults: Any = None
    #: persist the write-ahead journal to this file (None = in-memory)
    journal_path: Optional[str] = None
    #: checkpoint cadence in epochs (None = never checkpoint)
    checkpoint_every: Optional[int] = None
    #: crashed-batch retries before the batch is abandoned
    max_retries: int = 3
    #: service-clock backoff before retry N is 2^(N-1) times this
    retry_backoff: float = 64.0
    #: sliding-window retention in *event-clock* units (``docs/traffic.md``):
    #: every committed insert arms a deterministic expiry remove at
    #: ``arrival + window``, fired by :meth:`Engine.advance_to` through
    #: the normal admission path.  ``None`` (the default) disables the
    #: window plane entirely.
    window: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be >= 1 or None")
        if self.ingest_cost < 0 or self.query_cost < 0:
            raise ValueError("costs must be non-negative")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 or None")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} "
                "(use 'direct' or 'process')"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.cross_group is not None and self.cross_group < 1:
            raise ValueError("cross_group must be >= 1 or None")
        if self.window is not None and self.window <= 0:
            raise ValueError("window must be > 0 or None")


def apply_batch(maintainer, kind: str, edges: List[Edge]):
    """Apply one homogeneous batch — OurI for ``"+"``, OurR for ``"-"``."""
    if kind == "+":
        return maintainer.insert_edges(edges)
    return maintainer.remove_edges(edges)


def _replay_committed(m, replay: Replay, start: int,
                      store: Optional[SnapshotStore] = None) -> None:
    """Re-apply every committed journal batch after epoch ``start`` to
    the clean maintainer ``m``.  With ``store`` (the restart path) each
    batch is also committed as the epoch the journal names; crash
    recovery passes none — its ledger already holds those epochs."""
    for b in replay.batches_after(start):
        result = apply_batch(m, b.kind, list(b.edges))
        if store is None:
            continue
        epoch = store.commit_batch(b.kind, b.edges, result)
        if epoch != b.epoch:
            raise ValueError(
                f"journal epoch mismatch on replay: rebuilt epoch "
                f"{epoch}, journal says {b.epoch}"
            )


@dataclass
class _Tracked:
    """A pending update request attached to a queued edge."""

    request: Request
    admitted_at: float


class Engine:
    """Streaming core-maintenance engine.  See module docstring.

    Parameters
    ----------
    graph:
        Initial committed graph (epoch 0).  Ownership transfers to the
        maintainer.
    config:
        An :class:`EngineConfig`; keyword overrides are applied on top,
        so ``Engine(g, max_batch=64)`` works too.
    journal:
        An :class:`EdgeJournal` to adopt (continue appending to) instead
        of opening a fresh one — the :meth:`from_journal` restart path.
        Default: a new journal (at ``config.journal_path`` if set) whose
        first record is the initial graph.
    """

    #: the batch maintainer every build, restart and recovery of this
    #: engine uses (a shard engine swaps in a kernel-less one)
    maintainer_class = DirectOrderMaintainer

    def __init__(
        self,
        graph: DynamicGraph,
        config: Optional[EngineConfig] = None,
        *,
        journal: Optional[EdgeJournal] = None,
        _maintainer=None,
        _epoch0: int = 0,
        foreign: Sequence[Edge] = (),
        **overrides,
    ) -> None:
        cfg = config or EngineConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        self.config = cfg
        if cfg.backend == "process":
            raise ValueError(
                "backend 'process' runs shard workers in OS processes — "
                "construct a repro.service.sharding.ShardedEngine instead"
            )
        # The engine owns the plane (not the maintainer): its per-run
        # counter must survive maintainer rebuilds during recovery, or
        # the fault schedule would restart and re-kill every retry.
        self.faults = as_plane(cfg.faults, seed=cfg.seed)
        if _maintainer is not None:
            self.maintainer = _maintainer
            self.maintainer.faults = self.faults
        else:
            self.maintainer = self.maintainer_class(graph, faults=self.faults)
        self.snapshots = SnapshotStore(self.maintainer, epoch0=_epoch0)
        #: cross-shard edges this engine co-owns but does NOT maintain:
        #: the coordinator shard (owner of the canonical first endpoint)
        #: applies them to its maintainer; this engine only tracks
        #: them for validation and adjacency stitching.
        self._foreign: set = {canonical_edge(*e) for e in foreign}
        if journal is not None:
            self.journal = journal
        else:
            self.journal = EdgeJournal(cfg.journal_path)
            self.journal.log_init(
                self._graph_edges(),
                foreign=sorted(self._foreign, key=repr),
            )
        self.batcher = AdaptiveBatcher(
            max_batch=cfg.max_batch,
            max_delay=cfg.max_delay,
            query_pressure=cfg.query_pressure,
        )
        self.metrics_collector = ServiceMetrics(ingress_capacity=cfg.max_pending)
        self.now: float = 0.0
        #: event (arrival) clock — advanced only by :meth:`advance_to`.
        #: Distinct from the *service* clock ``now`` (which also counts
        #: ingest/query costs and batch makespans, and therefore depends
        #: on how ops are batched): expiry due-times live on the event
        #: clock so a trace replays to the same windowed graph however
        #: it is batched.
        self.event_now: float = 0.0
        # sliding-window expiry plane (config.window): a due-time heap
        # over committed-present edges.  _expiry_due is the authority —
        # a heap entry whose due-time disagrees with it is stale (the
        # edge was re-armed or disarmed) and is skipped on pop.
        self._expiry_heap: List[Tuple[float, int, Edge]] = []
        self._expiry_due: Dict[Edge, float] = {}
        self._arrival: Dict[Edge, float] = {}
        self._expiry_push = 0  # heap tiebreak: edges are never compared
        self._expiry_ids = 0
        self._seq = 0
        self._seen_ids: set = set()
        #: cross-shard transactions prepared but not yet decided (2PC)
        self._prepared: Dict[str, PreparedTx] = {}
        self._edge_reqs: Dict[Edge, List[_Tracked]] = {}
        self._completed: List[Response] = []
        #: wait-free query plane (docs/queryplane.md): an
        #: EpochPublisher fed at every commit, plus the plane's shared
        #: read counter folded into the batcher's pressure trigger
        self._queryplane = None
        self._read_counter: Optional[Callable[[], int]] = None
        self._reads_seen = 0

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        """The committed graph (pending operations not applied)."""
        return self.maintainer.graph

    @property
    def epoch(self) -> int:
        """The last committed epoch."""
        return self.snapshots.epoch

    def pending_ops(self) -> int:
        """Number of buffered, uncommitted update operations."""
        return len(self.batcher)

    def view(self, epoch: Optional[int] = None) -> SnapshotView:
        """A snapshot-isolated read view (default: latest committed)."""
        return self.snapshots.view(epoch)

    def core(self, u: Vertex) -> Optional[int]:
        """Committed-epoch core number of ``u``."""
        return self.view().core(u)

    def cores(self) -> Dict[Vertex, int]:
        """Committed-epoch core map."""
        return self.view().cores()

    def insert(self, u: Vertex, v: Vertex, *, id: Optional[str] = None,
               deadline: Optional[float] = None,
               timeout: Optional[float] = None) -> Response:
        """Submit an edge insertion (``timeout`` is relative to now)."""
        return self.submit(Request("insert", u=u, v=v, id=id,
                                   deadline=self._abs(deadline, timeout)))

    def remove(self, u: Vertex, v: Vertex, *, id: Optional[str] = None,
               deadline: Optional[float] = None,
               timeout: Optional[float] = None) -> Response:
        """Submit an edge removal."""
        return self.submit(Request("remove", u=u, v=v, id=id,
                                   deadline=self._abs(deadline, timeout)))

    def query(self, kind: str, *args, id: Optional[str] = None,
              deadline: Optional[float] = None,
              timeout: Optional[float] = None) -> Response:
        """Submit a snapshot query; the response carries the value and
        the epoch it was answered against."""
        return self.submit(Request("query", kind=kind, args=tuple(args), id=id,
                                   deadline=self._abs(deadline, timeout)))

    def submit(self, request: Request) -> Response:
        """Admit and process one request; never raises for bad input."""
        self._poll_external_reads()
        rid = self._assign_id(request)
        if rid is None:  # duplicate id
            return self._quarantine_direct(
                request, request.id, E_DUPLICATE_ID,
                f"request id {request.id!r} already seen",
            )
        if request.op == "query":
            return self._submit_query(request, rid)
        if request.op in ("insert", "remove"):
            return self._submit_update(request, rid)
        return self._quarantine_direct(
            request, rid, E_BAD_REQUEST, f"unknown op {request.op!r}"
        )

    def flush(self) -> List[Response]:
        """Force-cut the pending run and return every update response
        that became terminal since the last drain."""
        self._poll_external_reads()
        self._fire_due_expiries()
        self._cut("flush")
        return self.take_completed()

    # ------------------------------------------------------------------
    # sliding-window plane (docs/traffic.md)
    # ------------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Advance the **event clock** to ``t`` (a trace arrival time).

        The service clock is dragged along when it lags (a quiet stream
        still ages the pending run), due window expiries fire as
        ``remove`` requests through the normal admission path — they
        compete with live traffic for admission and batching — and any
        time-based cut trigger that became due fires.  Monotonic:
        ``t`` below the current event clock is a no-op advance."""
        if t > self.event_now:
            self.event_now = t
        if t > self.now:
            self.now = t
        self._fire_due_expiries()
        reason = self.batcher.cut_reason(self.now)
        if reason is not None:
            self._cut(reason)

    def drain_window(self) -> List[Response]:
        """Flush until quiescent *at the current event clock*: no pending
        operations and no armed expiry that is already due.  Each round
        fires due expiries then force-cuts, so removes armed by a commit
        inside the round are caught by the next one."""
        out: List[Response] = []
        while True:
            out.extend(self.flush())
            if not self.pending_ops() and not self._has_due_expiry():
                return out

    def expiries_armed(self) -> int:
        """Number of committed-present edges with a scheduled expiry."""
        return len(self._expiry_due)

    def rearm_window(self, asof: Optional[float] = None) -> None:
        """(Re)arm an expiry for every committed edge at ``asof +
        window`` (default: the current event clock).  The restart path:
        the WAL does not journal the expiry schedule, so a restarted
        engine grants every surviving edge a fresh window from the
        restart point — deterministic, and documented in
        ``docs/traffic.md``."""
        if self.config.window is None:
            return
        t = self.event_now if asof is None else asof
        for e in self._graph_edges():
            self._arm_expiry(e, t + self.config.window)

    def _arm_expiry(self, e: Edge, due: float) -> None:
        self._expiry_due[e] = due
        self._expiry_push += 1
        heapq.heappush(self._expiry_heap, (due, self._expiry_push, e))
        self.metrics_collector.window["scheduled"] += 1

    def _has_due_expiry(self) -> bool:
        heap = self._expiry_heap
        while heap and self._expiry_due.get(heap[0][2]) != heap[0][0]:
            heapq.heappop(heap)  # prune stale entries
        return bool(heap) and heap[0][0] <= self.event_now

    def _fire_due_expiries(self) -> None:
        """Submit a ``remove`` for every armed edge whose due-time has
        passed on the event clock.  Expiry requests carry the reserved
        ``exp:`` id prefix and no deadline (retention is a correctness
        obligation, not a latency SLO).  A backpressure rejection does
        not lose the expiry: it is re-armed ``retry_backoff`` later and
        keeps competing for admission."""
        if self.config.window is None:
            return
        heap = self._expiry_heap
        while heap and heap[0][0] <= self.event_now:
            due, _, e = heapq.heappop(heap)
            if self._expiry_due.get(e) != due:
                continue  # stale: re-armed later or disarmed
            rid = f"exp:{self._expiry_ids}"
            self._expiry_ids += 1
            resp = self.submit(Request("remove", u=e[0], v=e[1], id=rid))
            if resp.status == STATUS_REJECTED:
                self.metrics_collector.window["rebuffered"] += 1
                self._arm_expiry(e, self.event_now + self.config.retry_backoff)
            else:
                self.metrics_collector.window["fired"] += 1

    def _note_commit_window(self, kind: str, batch: Sequence[Edge]) -> None:
        """Window bookkeeping at batch commit: a committed insert arms
        its expiry at ``arrival + window``; a committed remove (live or
        expiry) disarms the edge."""
        if self.config.window is None:
            return
        w = self.config.window
        if kind == "+":
            for e in batch:
                self._arm_expiry(e, self._arrival.pop(e, self.event_now) + w)
        else:
            for e in batch:
                self._expiry_due.pop(e, None)

    def _requeue_window(self, kind: str,
                        live: Dict[Edge, List[_Tracked]]) -> None:
        """Window bookkeeping for a batch that terminally *failed to
        apply* (quarantined re-validation, abandoned after retries).
        Inserts never committed: drop their arrival stamps.  For removes
        the edges stay present; any whose *fired expiry* died with the
        batch is re-armed a backoff later, so retention is eventually
        enforced even through an abandoned batch."""
        if self.config.window is None:
            return
        for e, trackers in live.items():
            if kind == "+":
                self._arrival.pop(e, None)
            elif any((tr.request.id or "").startswith("exp:")
                     for tr in trackers):
                self._arm_expiry(e, self.event_now + self.config.retry_backoff)

    # ------------------------------------------------------------------
    # wait-free query plane (docs/queryplane.md)
    # ------------------------------------------------------------------
    def enable_queryplane(self, publisher=None,
                          read_counter: Optional[Callable[[], int]] = None,
                          **kwargs):
        """Attach (or create) an epoch publisher and publish the current
        committed state.

        ``publisher`` lets a restarted engine rebind the buffers its
        predecessor served (:meth:`from_journal` recovery): the store
        re-keys onto the publisher's interner and re-publishes at the
        restarted engine's epoch and ``min_epoch``, so readers pinned
        below a checkpoint-truncated epoch start getting structured
        refusals immediately.  A fresh publisher shares the store's
        interner; ``kwargs`` (``capacity``, ``vocab_capacity``) size it.

        ``read_counter`` is a zero-arg callable polled on every submit
        and flush — normally
        :meth:`repro.service.queryplane.ReaderPool.reads_total` — whose
        *delta* feeds :meth:`AdaptiveBatcher.note_queries`, keeping
        ``query_pressure`` cuts firing although wait-free reads never
        enter the engine.

        The engine does **not** own the publisher: close it (and any
        reader pool) caller-side after :meth:`close`.
        """
        if publisher is None:
            from repro.service.queryplane import EpochPublisher

            publisher = EpochPublisher(interner=self.snapshots.interner,
                                       **kwargs)
        self._queryplane = publisher
        if read_counter is not None:
            self.bind_read_counter(read_counter)
        self.snapshots.publish_to(publisher)
        return publisher

    def bind_read_counter(
        self, read_counter: Optional[Callable[[], int]]
    ) -> None:
        """Start folding an external (query-plane) read counter into the
        batcher's pressure trigger.  The counter must be monotonic; the
        engine tracks the last value it folded.  Pass ``None`` to unbind
        (e.g. before the reader pool's counter segment is released)."""
        self._read_counter = read_counter
        self._reads_seen = read_counter() if read_counter is not None else 0

    def _poll_external_reads(self) -> None:
        if self._read_counter is None:
            return
        total = self._read_counter()
        delta = total - self._reads_seen
        if delta > 0:
            self._reads_seen = total
            self.batcher.note_queries(delta)

    def take_completed(self) -> List[Response]:
        """Drain the asynchronously-completed update responses."""
        out = self._completed
        self._completed = []
        return out

    def metrics(self) -> Dict:
        """The full metrics surface as a plain dict."""
        return self.metrics_collector.as_dict(
            pending_depth=len(self.batcher), now=self.now, epoch=self.epoch,
            event_now=self.event_now, window_armed=self.expiries_armed(),
        )

    def check(self) -> None:
        """Flush, then assert maintainer, snapshot and accounting
        invariants."""
        self.flush()
        self.maintainer.check()
        self.snapshots.check()
        self.metrics_collector.assert_invariant()

    def close(self) -> None:
        """Release the engine's durable resources (the journal's file
        handle, if any).  Idempotent.  The engine object stays queryable
        — only further *journaled* work is off the table, exactly like a
        cleanly stopped process.  Use the engine as a context manager to
        get this on every exit path::

            with Engine(graph, journal_path=path) as eng:
                ...
        """
        self.journal.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission paths
    # ------------------------------------------------------------------
    def _abs(self, deadline: Optional[float], timeout: Optional[float]) -> Optional[float]:
        if timeout is not None:
            return self.now + timeout
        return deadline

    def _assign_id(self, request: Request) -> Optional[str]:
        rid = request.id
        if rid is None:
            rid = f"r{self._seq}"
            self._seq += 1
        elif rid in self._seen_ids:
            return None
        self._seen_ids.add(rid)
        return rid

    def _submit_update(self, request: Request, rid: str) -> Response:
        cfg = self.config
        # admission control: bounded ingress queue -> backpressure
        if cfg.max_pending is not None and len(self.batcher) >= cfg.max_pending:
            self.metrics_collector.rejected += 1
            return Response(
                id=rid, op=request.op, status=STATUS_REJECTED,
                error=make_error(
                    E_BACKPRESSURE,
                    f"ingress queue full ({cfg.max_pending} pending)",
                ),
            )
        self.metrics_collector.admitted += 1
        self.now += cfg.ingest_cost
        u, v = request.u, request.v
        if u == v or u is None or v is None:
            return self._quarantine(
                request, rid, E_SELF_LOOP, f"self-loop or missing endpoint: {u!r}"
            )
        if request.deadline is not None and request.deadline < self.now:
            return self._timeout_direct(request, rid)
        kind = "+" if request.op == "insert" else "-"
        action, e = self.batcher.classify(kind, u, v)
        if action == CONFLICT:
            # homogeneity: opposite-kind op on a fresh edge cuts the run
            self._cut("conflict")
            action = "queue"
        if action == CANCEL:
            # opposite op on a queued edge annihilates the pair: both
            # sides commit as a net no-op at the current epoch
            self.batcher.drop(e)
            for tr in self._edge_reqs.pop(e, []):
                self._finish_async(tr, STATUS_COMMITTED, detail="cancelled")
            self.metrics_collector.cancelled += 1
            if self.config.window is not None:
                if kind == "+":
                    # the insert annihilated a pending remove: the edge
                    # stays committed-present and its retention window
                    # restarts at this arrival
                    self._arm_expiry(e, self.event_now + self.config.window)
                else:
                    # the remove annihilated a pending insert: no commit
                    # will ever arm it
                    self._arrival.pop(e, None)
            return self._commit_direct(request, rid, detail="cancelled")
        if action == COALESCE:
            self._edge_reqs[e].append(_Tracked(request=replace(request, id=rid),
                                               admitted_at=self.now))
            self.metrics_collector.coalesced += 1
            return Response(id=rid, op=request.op, status=STATUS_PENDING,
                            detail="coalesced")
        # fresh op: validate against the committed graph (the pending run
        # is same-kind, so it cannot make this op valid or invalid)
        has = self.graph.has_edge(*e)
        if kind == "+" and has:
            return self._quarantine(
                request, rid, E_EDGE_EXISTS, f"edge already present: {e!r}"
            )
        if kind == "-" and not has:
            return self._quarantine(
                request, rid, E_EDGE_MISSING, f"edge not present: {e!r}"
            )
        self.batcher.queue(kind, e, self.now)
        if kind == "+" and self.config.window is not None:
            # stamp the arrival on the event clock; the expiry arms at
            # commit (an insert lost to overload must not leave a
            # phantom expiry behind)
            self._arrival.setdefault(e, self.event_now)
        self._edge_reqs.setdefault(e, []).append(
            _Tracked(request=replace(request, id=rid), admitted_at=self.now)
        )
        self.metrics_collector.note_depth(len(self.batcher))
        reason = self.batcher.cut_reason(self.now)
        if reason is not None:
            self._cut(reason)
        return Response(id=rid, op=request.op, status=STATUS_PENDING)

    def _submit_query(self, request: Request, rid: str) -> Response:
        self.metrics_collector.admitted += 1
        self.now += self.config.query_cost
        latency = self.config.query_cost
        if request.deadline is not None and request.deadline < self.now:
            return self._timeout_direct(request, rid)
        view = self.view()
        value, err = answer_query(view, request.kind, request.args)
        if err is not None:
            resp = self._quarantine(request, rid, *err)
            if err[0] != E_UNKNOWN_VERTEX:
                # a malformed query read nothing: no staleness pressure
                return resp
        else:
            self.metrics_collector.committed += 1
            self.metrics_collector.committed_queries += 1
            self.metrics_collector.note_latency("query", latency)
            resp = Response(
                id=rid, op="query", status=STATUS_COMMITTED, value=value,
                epoch=view.epoch, latency=latency,
            )
        # staleness pressure: enough reads against an old epoch -> cut
        self.batcher.note_query()
        if self.batcher.cut_reason(self.now) == "pressure":
            self._cut("pressure")
        return resp

    # ------------------------------------------------------------------
    # commit path
    # ------------------------------------------------------------------
    def _cut(self, reason: str) -> None:
        kind, edges = self.batcher.cut()
        if not edges:
            return
        self.metrics_collector.cuts[reason] += 1
        live = self._drop_expired(
            kind, {e: self._edge_reqs.pop(e, []) for e in edges}
        )
        if not live:
            return
        batch = list(live)
        inserting = kind == "+"
        try:
            # defensive re-validation: submission-time checks make this
            # unreachable, but an engine bug must surface as a structured
            # partial failure, not an exception escaping to the caller
            validate_batch(self.graph, batch, inserting)
        except (ValueError, KeyError) as exc:
            self._fail_live(kind, live, STATUS_QUARANTINED,
                            make_error(E_BATCH_FAILED, str(exc)))
            return
        attempt = 0
        while True:
            # write-ahead: intend before touching the maintainer, so a
            # crashed attempt leaves an intent-without-commit the replay
            # recognizes as aborted
            ids = sorted(tr.request.id or ""
                         for trackers in live.values() for tr in trackers)
            self.journal.log_intent(kind, batch, ids, attempt)
            try:
                result = apply_batch(self.maintainer, kind, batch)
                break
            except BatchCrashed as exc:
                attempt += 1
                if not self._recover_for_retry(exc, attempt):
                    self._fail_live(kind, live, STATUS_ABANDONED, make_error(
                        E_RETRIES_EXHAUSTED,
                        f"batch crashed {attempt} time(s), giving up: {exc}",
                    ))
                    return
                # the backoff advanced the clock: expire deadlines again
                live = self._drop_expired(kind, live)
                if not live:
                    return
                batch = list(live)
        self.now += result.makespan
        self.metrics_collector.fold_report(result.report)
        epoch = self.snapshots.commit_batch(kind, batch, result)
        self.journal.log_commit(epoch)
        self.snapshots.publish_to(self._queryplane)
        self._note_commit_window(kind, batch)
        detail = f"retried:{attempt}" if attempt else None
        if attempt:
            self.metrics_collector.faults["retried_ops"] += sum(
                len(t) for t in live.values()
            )
        latencies: List[float] = []
        for trackers in live.values():
            for tr in trackers:
                lat = self.now - tr.admitted_at
                latencies.append(lat)
                self._finish_async(tr, STATUS_COMMITTED, epoch=epoch,
                                   latency=lat, detail=detail)
        self.metrics_collector.record_epoch(
            epoch=epoch, kind=kind, batch_size=len(batch),
            makespan=result.makespan, committed_at=self.now,
            update_latencies=latencies,
        )
        self._maybe_checkpoint(epoch)

    def _drop_expired(self, kind: str, live: Dict[Edge, List[_Tracked]]
                      ) -> Dict[Edge, List[_Tracked]]:
        """Deadline pass: expired requests are timed out and detached;
        an edge with no live requester left is dropped from the batch."""
        still: Dict[Edge, List[_Tracked]] = {}
        for e, trackers in live.items():
            alive = []
            for tr in trackers:
                dl = tr.request.deadline
                if dl is not None and dl < self.now:
                    self._finish_async(tr, STATUS_TIMED_OUT)
                else:
                    alive.append(tr)
            if alive:
                still[e] = alive
            elif kind == "+":
                # the insert never applies: no window will arm for it
                self._arrival.pop(e, None)
        return still

    def _fail_live(self, kind: str, live: Dict[Edge, List[_Tracked]],
                   status: str, error: Dict[str, str]) -> None:
        """Terminally fail every requester of a batch that never
        applied (quarantined re-validation, abandoned after retries)."""
        for trackers in live.values():
            for tr in trackers:
                self._finish_async(tr, status, error=error)
        self._requeue_window(kind, live)

    def _recover_for_retry(self, exc: BatchCrashed, attempt: int) -> bool:
        """Crash bookkeeping for failed attempt number ``attempt``: count
        it, fold the doomed attempt's report, rebuild the maintainer
        from the journal, and — if the retry budget allows another
        attempt — charge its exponential backoff and return True."""
        if self.faults is None:
            raise exc  # a real protocol bug, not an injected fault
        m = self.metrics_collector
        m.faults["crashed_batches"] += 1
        rep = exc.report
        if rep is not None:
            # the doomed attempt still burned service time and its
            # injections must show up in the totals
            m.fold_faults(rep)
            self.now += rep.makespan
        self._recover()
        if attempt > self.config.max_retries:
            return False
        m.faults["retries"] += 1
        self.now += self.config.retry_backoff * (2 ** (attempt - 1))
        return True

    # ------------------------------------------------------------------
    # durability: checkpoints, recovery, restart
    # ------------------------------------------------------------------
    def _graph_edges(self) -> List[Edge]:
        """Committed graph as a canonical sorted edge list (journal form)."""
        g = self.maintainer.graph
        return sorted((canonical_edge(u, v) for u, v in g.edges()), key=repr)

    def foreign_edges(self) -> List[Edge]:
        """Tracked-but-not-maintained cross-shard edges (sorted)."""
        return sorted(self._foreign, key=repr)

    def checkpoint_payload(self) -> Dict[str, Any]:
        """The committed state as :meth:`EdgeJournal.log_checkpoint
        <repro.service.journal.EdgeJournal.log_checkpoint>` arguments:
        epoch, edges, the maintainer's cores and order, foreign set."""
        m = self.maintainer
        return {"epoch": self.epoch, "edges": self._graph_edges(),
                "cores": m.cores(), "order": m.order_sequence(),
                "foreign": self.foreign_edges()}

    def _maybe_checkpoint(self, epoch: int) -> None:
        ce = self.config.checkpoint_every
        if ce is None or epoch % ce != 0:
            return
        self.journal.log_checkpoint(**self.checkpoint_payload())

    @classmethod
    def _base_maintainer(cls, replay: Replay) -> Tuple[Any, int]:
        """A *clean* (fault-free) maintainer at the replay's starting
        point: the latest checkpoint if there is one, else the initial
        graph.  Returns it with the epoch it represents."""
        ck = replay.checkpoint
        if ck is not None:
            m = cls.maintainer_class.from_checkpoint(
                DynamicGraph(list(ck.edges)), dict(ck.cores), list(ck.order)
            )
            return m, ck.epoch
        graph = DynamicGraph(list(replay.initial_edges))
        return cls.maintainer_class(graph), 0

    def _recover(self) -> None:
        """Discard the (presumed corrupt) maintainer and rebuild the last
        *committed* state from the journal: checkpoint fast-path, then a
        clean replay of every later committed batch.  The epoch ledger is
        untouched — recovery never invents or loses an epoch."""
        replay = self.journal.replay()
        m, start = self._base_maintainer(replay)
        _replay_committed(m, replay, start)
        self.snapshots.rebind(m)
        # re-arm only after the clean rebuild: the plane must not inject
        # into replay, and its run counter keeps advancing across the
        # swap so retries see fresh schedules
        m.faults = self.faults
        self.maintainer = m
        self.metrics_collector.faults["recoveries"] += 1
        # the buffers already carry the last committed epoch, but a full
        # re-publish pins them to the *rebuilt* state — recovery must
        # never leave the wait-free plane answering from a corrupt map
        self.snapshots.publish_to(self._queryplane)

    @classmethod
    def from_journal(
        cls,
        source,
        config: Optional[EngineConfig] = None,
        **overrides,
    ) -> "Engine":
        """Restart an engine from its write-ahead journal (a path, raw
        bytes, or an :class:`EdgeJournal`) after a simulated process
        crash.

        The maintainer is rebuilt from the latest checkpoint (or the
        init record) and every later *committed* batch is re-applied and
        re-committed, so the restarted engine answers the same epochs
        with the same cores as the engine that wrote the journal —
        aborted intents are skipped.  Request ids named by any intent
        are remembered, preserving duplicate-id detection across the
        restart.  Metrics start fresh (counters are per-process);
        pending-but-uncut operations are lost by design (they were never
        journaled), which is the usual WAL contract.
        """
        if isinstance(source, EdgeJournal):
            journal = source
        elif isinstance(source, bytes):
            journal = EdgeJournal.from_bytes(source)
        else:
            journal = EdgeJournal.load(source)
        cfg = config or EngineConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        replay = journal.replay()
        m, epoch0 = cls._base_maintainer(replay)
        eng = cls(DynamicGraph(), cfg, journal=journal,
                  _maintainer=m, _epoch0=epoch0)
        m.faults = None  # replay must be fault-free
        _replay_committed(m, replay, epoch0, eng.snapshots)
        m.faults = eng.faults
        eng._seen_ids.update(replay.ids)
        eng._foreign = set(replay.foreign)
        for rid in replay.ids:
            if rid.startswith("r") and rid[1:].isdigit():
                eng._seq = max(eng._seq, int(rid[1:]) + 1)
            elif rid.startswith("exp:") and rid[4:].isdigit():
                eng._expiry_ids = max(eng._expiry_ids, int(rid[4:]) + 1)
        # window recovery: the expiry schedule is volatile state — every
        # surviving edge gets a fresh window from the restart point
        eng.rearm_window()
        return eng

    # ------------------------------------------------------------------
    # cross-shard 2PC participant surface (docs/sharding.md)
    # ------------------------------------------------------------------
    def validate_cross(self, kind: str, edge: Edge) -> Optional[str]:
        """Error code if a cross-shard op is inapplicable, else None.

        Only the *committed* graph matters: a cross-shard edge can never
        sit in this engine's local batcher (its routing class is fixed
        by the endpoint hash), so pending local ops cannot make it valid
        or invalid.  Edges this engine merely *tracks* (peer-owner role;
        the coordinator shard maintains them) count as present, so both
        owners always cast the same vote.
        """
        has = (self.graph.has_edge(*edge)
               or canonical_edge(*edge) in self._foreign)
        if kind == "+" and has:
            return E_EDGE_EXISTS
        if kind == "-" and not has:
            return E_EDGE_MISSING
        return None

    def prepare_cross(self, tx: str, kind: str, edge: Edge, rid: str,
                      shard: int, peer: int,
                      role: str = "apply") -> Optional[str]:
        """Phase 1: vote on transaction ``tx``.  A yes-vote writes a
        durable ``prepare`` record (the redo information) and parks the
        transaction; a validation failure returns the error code and
        writes nothing.  ``role`` records which side of the edge this
        engine is: the coordinator (``"apply"``) applies the edge to its
        maintainer and commits an epoch; the peer (``"track"``) only updates its foreign
        adjacency set."""
        err = self.validate_cross(kind, edge)
        if err is not None:
            return err
        e = canonical_edge(*edge)
        self.journal.log_prepare(tx, kind, e, rid, shard, peer, role=role)
        self._prepared[tx] = PreparedTx(tx=tx, kind=kind, edge=e, id=rid,
                                        shard=shard, peer=peer, role=role)
        self._seen_ids.add(rid)
        return None

    def commit_cross_group(self, txs: List[str]) -> int:
        """Phase 2 for a whole cross-shard *group*: apply every decided
        edge as one maintainer batch, publish one epoch, then write one
        ``commit2`` per transaction carrying that shared epoch (replay
        folds the run back into one batch) and return that epoch.  The
        ``commit2`` records are, on the coordinator, the protocol's
        decision records.  The router guarantees the group is
        kind-homogeneous and duplicate-free — the same contract the
        micro-batcher gives local batches."""
        return self._apply_cross_batch([self._prepared.pop(tx) for tx in txs])

    def abort_cross(self, tx: str) -> None:
        """Phase 2 (abort): void the prepared transaction."""
        self._prepared.pop(tx)
        self.journal.log_abort2(tx)

    def resolve_prepared(self, prep: PreparedTx, commit: bool) -> Optional[int]:
        """Recovery resolution for a *dangling* prepare (one this engine
        re-read from its journal rather than parked live).  ``commit``
        redoes the apply and writes the missing ``commit2``; otherwise
        an ``abort2`` voids it.  Driven by the router's resolution pass
        (:meth:`repro.service.sharding.ShardedEngine.from_journals`)."""
        if commit:
            return self._apply_cross_batch([prep])
        self.journal.log_abort2(prep.tx)
        return None

    def _apply_cross_batch(self, preps: List[PreparedTx]) -> int:
        """Apply decided cross-shard edges to the local maintainer.

        No intent record is written — the ``prepare`` *is* the
        write-ahead — and the decision is redo-only: an injected crash
        during the apply recovers and retries, it can never abort.

        Only ``"apply"``-role transactions (this engine coordinates the
        edge) touch the maintainer and publish an epoch; ``"track"``-role
        ones (the peer coordinates) just update the foreign adjacency
        set and journal their ``commit2`` with the current epoch — the
        coordinator's journal owns the redo."""
        applied = [p for p in preps if p.role != "track"]
        tracked = [p for p in preps if p.role == "track"]
        kind = preps[0].kind
        makespan = 0.0
        if applied:
            batch = [p.edge for p in applied]
            attempt = 0
            while True:
                try:
                    result = apply_batch(self.maintainer, kind, batch)
                    break
                except BatchCrashed as exc:
                    attempt += 1
                    if not self._recover_for_retry(exc, attempt):
                        # a decided transaction cannot be abandoned; this
                        # is only reachable with an unbounded crash budget
                        raise
            makespan = result.makespan
            self.now += makespan
            self.metrics_collector.fold_report(result.report)
            epoch = self.snapshots.commit_batch(kind, batch, result)
            self.snapshots.publish_to(self._queryplane)
        else:
            epoch = self.epoch
        for p in tracked:
            if p.kind == "+":
                self._foreign.add(p.edge)
            else:
                self._foreign.discard(p.edge)
        for p in preps:
            self.journal.log_commit2(p.tx, epoch)
        n = len(preps)
        self.metrics_collector.admitted += n
        self.metrics_collector.committed += n
        self.metrics_collector.committed_updates += n
        op = "insert" if kind == "+" else "remove"
        for _ in preps:
            self.metrics_collector.note_latency(op, makespan)
        if applied:
            self.metrics_collector.record_epoch(
                epoch=epoch, kind=kind, batch_size=len(applied),
                makespan=makespan, committed_at=self.now,
                update_latencies=[makespan] * len(applied),
            )
            self._maybe_checkpoint(epoch)
        return epoch

    # ------------------------------------------------------------------
    # response bookkeeping
    # ------------------------------------------------------------------
    def _finish_async(
        self,
        tracked: _Tracked,
        status: str,
        *,
        epoch: Optional[int] = None,
        latency: Optional[float] = None,
        error: Optional[Dict[str, str]] = None,
        detail: Optional[str] = None,
    ) -> None:
        req = tracked.request
        if status == STATUS_TIMED_OUT and error is None:
            error = make_error(
                E_DEADLINE,
                f"deadline {req.deadline} passed before commit (now {self.now})",
            )
        if latency is None:
            latency = self.now - tracked.admitted_at
        resp = Response(id=req.id, op=req.op, status=status, error=error,
                        epoch=epoch, latency=latency, detail=detail)
        self._count_terminal(resp)
        self._completed.append(resp)

    def _commit_direct(self, request: Request, rid: str,
                       detail: Optional[str] = None) -> Response:
        resp = Response(id=rid, op=request.op, status=STATUS_COMMITTED,
                        epoch=self.epoch, latency=0.0, detail=detail)
        self._count_terminal(resp)
        return resp

    def _quarantine(self, request: Request, rid: str, code: str,
                    message: str) -> Response:
        resp = Response(id=rid, op=request.op, status=STATUS_QUARANTINED,
                        error=make_error(code, message))
        self._count_terminal(resp)
        return resp

    def _quarantine_direct(self, request: Request, rid: Optional[str],
                           code: str, message: str) -> Response:
        # duplicate-id / bad-op quarantine: the request *was* admitted
        self.metrics_collector.admitted += 1
        return self._quarantine(request, rid or "?", code, message)

    def _timeout_direct(self, request: Request, rid: str) -> Response:
        resp = Response(
            id=rid, op=request.op, status=STATUS_TIMED_OUT,
            error=make_error(
                E_DEADLINE,
                f"deadline {request.deadline} already passed at admission "
                f"(now {self.now})",
            ),
            latency=0.0,
        )
        self._count_terminal(resp)
        return resp

    def _count_terminal(self, resp: Response) -> None:
        m = self.metrics_collector
        if resp.status == STATUS_COMMITTED:
            m.committed += 1
            if resp.op == "query":
                m.committed_queries += 1
            else:
                m.committed_updates += 1
                m.note_latency(resp.op, resp.latency)
        elif resp.status == STATUS_QUARANTINED:
            m.quarantined += 1
        elif resp.status == STATUS_TIMED_OUT:
            m.timed_out += 1
        elif resp.status == STATUS_ABANDONED:
            m.abandoned += 1
