"""Sharded multi-engine serving: router + N engine shards.

``docs/sharding.md`` is the full design; the shape:

* **Topology.**  A :class:`ShardedEngine` owns a
  :class:`~repro.graph.interning.ShardedInterner` (stable content-hash
  placement: a vertex's shard never depends on arrival order, so it
  survives crash recovery) and N shard engines.  Each is a
  :class:`ShardEngine` that holds an edge set and runs no OI/OR.  It
  keeps its own batcher, batch validation, fault plane, 2PC votes,
  commit ring and write-ahead journal (``<path>.shard<i>``).  Shards
  are hosted in-process (``direct`` backend) or in real OS processes
  (``process`` backend, :mod:`repro.parallel.procs`), one
  shared-nothing event loop each.

* **Routing.**  An update whose endpoints hash to the same shard is
  forwarded to that shard's engine and micro-batches there as usual
  (the process backend defers them into per-shard runs shipped as one
  frame).  A *cross-shard* edge commits through a two-shard
  prepare/commit protocol (2PC, presumed abort, redo-only) layered on
  the WAL, group-committed: the router buffers a kind-homogeneous run
  of cross edges (coalescing and annihilating duplicates exactly like
  the micro-batcher), then scatters one ``prepare`` frame per involved
  shard, gathers the votes, and scatters ``commit2``.  Each edge has
  exactly **one owning shard**: the coordinator shard — the owner of
  the canonical first endpoint — adds it to its edge set and commits
  it as an epoch (role ``"apply"``); the peer owner journals the same
  prepare/commit pair but only updates a lightweight *foreign
  adjacency set* (role ``"track"``) used for validation votes and the
  stitch.  A
  prepare resolved by neither ``commit2`` nor ``abort2`` is *dangling*;
  the recovery resolution pass (:meth:`ShardedEngine.from_journals`)
  commits it iff any shard holds the transaction's ``commit2``, else
  aborts it on every participant — identical outcomes on both shards
  by construction, whichever role each side held.

* **Epoch stitching.**  Each shard publishes its own epoch sequence;
  the sharded engine's global epoch is their sum and a query answers
  against one consistent *stitched* view.  Shards hold no cores: the
  router keeps the exact global cores, the only ones any query reads.
  It holds the union graph under a sequential OI/OR
  :class:`~repro.core.maintainer.OrderMaintainer` and, at each view,
  applies the edge batches every shard committed since the router's
  last epoch vector (:meth:`SnapshotStore.edge_deltas
  <repro.service.snapshots.SnapshotStore.edge_deltas>`), committing
  the touched vertices through its own
  :class:`~repro.service.snapshots.SnapshotStore` stamped with the
  global epoch.  Cores are a function of the edge set, so the result
  equals a single engine on the same committed edges — the
  differential guarantee the tests pin, with a from-scratch H-index
  refinement (:func:`repro.parallel.hindex.graph_cores`) as the oracle
  in :meth:`ShardedEngine.check`.  The store's head view serves every
  read until some shard commits again.

Response-stream semantics intentionally differ from a monolithic engine
in two documented ways: update responses carry *shard-local* epochs
(queries carry the stitched global epoch), and cross-shard updates
commit synchronously instead of micro-batching.  Final state does not
differ — that is the acceptance bar.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.maintainer import EdgeSetMaintainer, OrderMaintainer
from repro.faults.plane import CRASH, ROUTER_SALT, derive_plane
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.graph.interning import ShardedInterner
from repro.service.engine import Engine, EngineConfig
from repro.service.metrics import ServiceMetrics
from repro.service.requests import (
    E_BAD_REQUEST,
    E_DUPLICATE_ID,
    E_SELF_LOOP,
    STATUS_COMMITTED,
    STATUS_PENDING,
    STATUS_QUARANTINED,
    Request,
    Response,
    make_error,
)
from repro.service.snapshots import SnapshotStore, SnapshotView, answer_query

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["ShardedEngine", "ShardEngine", "LocalShard", "RouterCrashed",
           "shard_paths"]

#: the 2PC steps the router can crash at (fault injection / tests), in
#: protocol order: after the coordinator prepare, after both prepares,
#: and after the coordinator's decision commit2
CRASH_POINTS = ("prepare-peer", "commit-coord", "commit-peer")


class RouterCrashed(RuntimeError):
    """The router died mid-2PC (injected).  Shard journals survive; the
    dangling transaction is resolved by :meth:`ShardedEngine.from_journals`."""

    def __init__(self, point: str, tx: str) -> None:
        super().__init__(f"router crashed at {point} of {tx}")
        self.point = point
        self.tx = tx


def shard_paths(base: Optional[str], nshards: int) -> List[Optional[str]]:
    """Per-shard journal paths derived from one base path."""
    if base is None:
        return [None] * nshards
    return [f"{base}.shard{i}" for i in range(nshards)]


class ShardEngine(Engine):
    """One shard's engine: an :class:`Engine` over an
    :class:`~repro.core.maintainer.EdgeSetMaintainer`.

    A shard keeps only what the router needs from it: its edge set,
    batch validation, its fault plane, its journal, its 2PC votes and
    the commit ring that :meth:`SnapshotStore.edge_deltas
    <repro.service.snapshots.SnapshotStore.edge_deltas>` feeds to the
    stitch.  It runs no OI/OR — the router maintains the global cores —
    so its snapshot store and its checkpoints hold no cores.
    """

    maintainer_class = EdgeSetMaintainer

    def edges(self) -> List[Edge]:
        """Edges this shard co-owns: maintained plus foreign-tracked."""
        return list(self.graph.edges()) + self.foreign_edges()

    def present_vertices(self) -> List[Vertex]:
        """Present vertices, including endpoints only foreign edges
        name."""
        ends = (x for e in self.foreign_edges() for x in e)
        return list(dict.fromkeys(chain(self.graph.vertices(), ends)))


class LocalShard:
    """In-process shard handle: direct calls into a shard's engine.

    The ``direct`` backend uses this; the ``process`` backend
    substitutes :class:`repro.parallel.procs.ProcessShard`,
    which speaks the same surface over a pipe.
    """

    def __init__(self, shard_id: int, engine: ShardEngine) -> None:
        self.shard_id = shard_id
        self.engine = engine

    # -- op plane ------------------------------------------------------
    def submit(self, request: Request) -> Response:
        return self.engine.submit(request)

    def flush(self) -> List[Response]:
        return self.engine.flush()

    def take_completed(self) -> List[Response]:
        return self.engine.take_completed()

    # -- 2PC participant ----------------------------------------------
    def prepare_group(self, items: List[Tuple]) -> List[Optional[str]]:
        """Prepare a group of cross txs; one vote per item, in order."""
        return [self.engine.prepare_cross(tx, kind, edge, rid,
                                          self.shard_id, peer, role=role)
                for tx, kind, edge, rid, peer, role in items]

    def commit_group(self, txs: List[str]) -> int:
        return self.engine.commit_cross_group(txs)

    def abort_group(self, txs: List[str]) -> None:
        for tx in txs:
            self.engine.abort_cross(tx)

    # -- stitch inputs -------------------------------------------------
    def epoch(self) -> int:
        return self.engine.epoch

    def pending_ops(self) -> int:
        return self.engine.pending_ops()

    def edges(self) -> List[Edge]:
        return self.engine.edges()

    def edge_deltas(self, since: int):
        """``(epoch, batches)`` committed after ``since``; see
        :meth:`repro.service.snapshots.SnapshotStore.edge_deltas`."""
        return self.engine.snapshots.edge_deltas(since)

    def present_vertices(self) -> List[Vertex]:
        return self.engine.present_vertices()

    def metrics(self) -> Dict:
        return self.engine.metrics()

    def check(self) -> None:
        self.engine.check()

    # -- shutdown (docs/sharding.md: quiesce BEFORE checkpoint) --------
    def quiesce(self) -> Dict:
        """Stop the shard's worker and return its checkpoint payload.
        In-process shards have no worker to join — the engine is
        already quiescent once this (synchronous) call runs."""
        return self.engine.checkpoint_payload()

    def final_checkpoint(self, payload: Dict) -> None:
        self.engine.journal.log_checkpoint(**payload)

    def close(self) -> None:
        self.engine.close()

    def abandon(self) -> None:
        """Crash-stop: drop the journal handle with no checkpoint (what
        a killed process leaves behind)."""
        self.engine.journal.close()


@dataclass
class _Resolution:
    """Outcome of the recovery resolution pass for one dangling tx."""

    tx: str
    id: str
    committed: bool
    shards: Tuple[int, ...]     #: shards the resolution touched


class ShardedEngine:
    """Router + N engine shards behind the monolithic-engine surface.

    Parameters
    ----------
    graph:
        Initial committed graph.  Edges are partitioned by the stable
        endpoint hash: intra-shard edges go to their owner's initial
        graph; a cross-shard edge goes to its coordinator's initial
        graph and to the peer owner's foreign set.
    config:
        An :class:`EngineConfig`; ``shards`` picks N, ``backend`` picks
        the shard substrate (``process`` hosts each shard engine in its
        own OS process).
    crash_2pc:
        Test hook: ``{point: tx_seq}`` crashes the router (raises
        :class:`RouterCrashed`) at the named 2PC step of the tx with
        that sequence number.  Seeded injection uses ``config.faults``:
        the router derives its own plane (``ROUTER_SALT``) and draws a
        crash decision at every 2PC step; shard engines get their own
        independently-seeded planes (``SHARD_SALT``).
    """

    def __init__(
        self,
        graph: Optional[DynamicGraph] = None,
        config: Optional[EngineConfig] = None,
        *,
        crash_2pc: Optional[Dict[str, int]] = None,
        _shards: Optional[List] = None,
        _interner: Optional[ShardedInterner] = None,
        **overrides,
    ) -> None:
        cfg = config or EngineConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        if cfg.window is not None:
            # engine-native expiry cannot see cross-shard edges (they
            # bypass the shard batcher via 2PC); windowed traffic on a
            # sharded engine is driven by the trace layer instead
            # (repro.traffic model mode, docs/traffic.md)
            raise ValueError(
                "config.window is a monolithic-engine feature; drive "
                "sliding windows on a sharded engine through "
                "repro.traffic (model mode)"
            )
        self.config = cfg
        self.nshards = cfg.shards
        self.interner = _interner or ShardedInterner(self.nshards)
        self.crash_2pc = dict(crash_2pc or {})
        self.faults = derive_plane(cfg.faults, self.nshards,
                                   seed=cfg.seed, salt=ROUTER_SALT)
        self.metrics_collector = ServiceMetrics(ingress_capacity=None)
        self.now: float = 0.0
        self._seq = 0
        self._txseq = 0
        self._seen_ids: set = set()
        # router-side cross-shard run buffer (mirrors AdaptiveBatcher's
        # coalesce/cancel/kind-conflict semantics, see _submit_cross)
        self._xkind: Optional[str] = None
        self._xedges: List[Edge] = []
        self._xriders: Dict[Edge, List[Tuple[str, str]]] = {}
        # deferred intra-shard ops per process shard (see _flush_local)
        self._lbuf: Dict[int, List[Request]] = {}
        #: group-commit run size for cross buffer and deferred-local runs
        self._group_cap = (self.config.cross_group
                           or 4 * self.config.max_batch)
        self._completed: List[Response] = []
        #: the router's store over its global maintainer of the union
        #: graph, and the shard epoch vector both reflect: empty, and no
        #: vector, until the first view rebuilds them (see _stitch)
        self._snapshots = SnapshotStore(OrderMaintainer(DynamicGraph()))
        self._router_vec: Optional[Tuple[int, ...]] = None
        self._stitch_counts = {"stitch_rebuilds": 0, "stitch_incremental": 0,
                              "stitch_edges_applied": 0}
        self.resolutions: List[_Resolution] = []
        self._closed = False
        #: stitched-global query plane (docs/queryplane.md): refreshed
        #: at every stitch, and so after every flush that committed
        self._queryplane = None
        if _shards is not None:
            self.shards = _shards
            return
        init = [[] for _ in range(self.nshards)]
        finit = [[] for _ in range(self.nshards)]
        isolated = [[] for _ in range(self.nshards)]
        if graph is not None:
            for e in graph.edges():
                su = self.interner.shard_of(e[0])
                sv = self.interner.shard_of(e[1])
                init[su].append(e)
                if sv != su:
                    # single-owner rule: the coordinator (owner of the
                    # canonical first endpoint) holds the edge, the peer
                    # only tracks it
                    finit[sv].append(e)
            # an edge-less vertex lives in its owner's birth graph
            for x in graph.isolated_vertices():
                isolated[self.interner.shard_of(x)].append(x)
        self.shards = self._build_shards(init, finit, isolated)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _shard_config(self, shard: int) -> EngineConfig:
        """One shard's engine config: a direct engine with its own
        journal file and its own derived fault plane.  A process shard's
        worker hosts the same :class:`ShardEngine` in its own OS
        process."""
        cfg = self.config
        paths = shard_paths(cfg.journal_path, self.nshards)
        return replace(
            cfg,
            shards=1,
            backend="direct",
            journal_path=paths[shard],
            faults=derive_plane(cfg.faults, shard, seed=cfg.seed),
        )

    def _build_shards(self, init: List[List[Edge]],
                      finit: List[List[Edge]],
                      isolated: List[List[Vertex]]) -> List:
        if self.config.backend == "process":
            from repro.parallel.procs import ProcessShard

            return [
                ProcessShard.start(s, self._shard_spec(s), init[s],
                                   foreign=finit[s], isolated=isolated[s])
                for s in range(self.nshards)
            ]
        return [
            LocalShard(s, ShardEngine(DynamicGraph(init[s], isolated[s]),
                                      self._shard_config(s),
                                      foreign=finit[s]))
            for s in range(self.nshards)
        ]

    def _shard_spec(self, shard: int) -> Dict:
        """A picklable shard-engine spec for the process backend: the
        derived plane cannot cross the fork (it holds a mutex), so the
        worker rebuilds it from ``(spec, seed)``."""
        cfg = self._shard_config(shard)
        plane = cfg.faults
        cfg = replace(cfg, faults=None)
        return {
            "config": cfg,
            "fault_spec": None if plane is None else plane.spec,
            "fault_seed": 0 if plane is None else plane.seed,
        }

    # ------------------------------------------------------------------
    # public surface (Engine-shaped)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Global epoch: the sum of every shard's committed epoch."""
        return sum(self._epoch_vector())

    def _epoch_vector(self) -> Tuple[int, ...]:
        return tuple(sh.epoch() for sh in self.shards)

    def pending_ops(self) -> int:
        return (sum(sh.pending_ops() for sh in self.shards)
                + sum(len(r) for r in self._xriders.values())
                + sum(len(b) for b in self._lbuf.values()))

    def insert(self, u: Vertex, v: Vertex, *, id: Optional[str] = None,
               deadline: Optional[float] = None) -> Response:
        return self.submit(Request("insert", u=u, v=v, id=id,
                                   deadline=deadline))

    def remove(self, u: Vertex, v: Vertex, *, id: Optional[str] = None,
               deadline: Optional[float] = None) -> Response:
        return self.submit(Request("remove", u=u, v=v, id=id,
                                   deadline=deadline))

    def query(self, kind: str, *args, id: Optional[str] = None) -> Response:
        return self.submit(Request("query", kind=kind, args=tuple(args),
                                   id=id))

    def submit(self, request: Request) -> Response:
        """Route one request; never raises for bad input (RouterCrashed
        is an *injected* fault, not bad input)."""
        rid = request.id
        if rid is None:
            rid = f"g{self._seq}"
            self._seq += 1
        elif rid in self._seen_ids:
            self.metrics_collector.admitted += 1
            return self._quarantine(request, rid, E_DUPLICATE_ID,
                                    f"request id {rid!r} already seen")
        self._seen_ids.add(rid)
        if request.op == "query":
            return self._submit_query(request, rid)
        if request.op in ("insert", "remove"):
            return self._submit_update(request, rid)
        self.metrics_collector.admitted += 1
        return self._quarantine(request, rid, E_BAD_REQUEST,
                                f"unknown op {request.op!r}")

    def advance_to(self, t: float) -> None:
        """Advance the router's service clock to a trace arrival time
        (monotonic no-op when behind).  Shards keep their own clocks;
        window expiry on a sharded engine is the trace driver's job
        (see :meth:`__init__`'s ``window`` rejection)."""
        if t > self.now:
            self.now = t

    def flush(self) -> List[Response]:
        for s in sorted(self._lbuf):
            self._flush_local(s)
        self._cut_cross("flush")
        out = self._completed
        self._completed = []
        for sh in self.shards:
            out.extend(sh.flush())
        if self._queryplane is not None:
            self.view()  # refresh the stitched buffer at the new vector
        return out

    # ------------------------------------------------------------------
    # wait-free query plane (docs/queryplane.md)
    # ------------------------------------------------------------------
    def enable_queryplane(self, publisher=None, **kwargs):
        """Attach the stitched-global epoch publisher.

        The buffer carries the router store's head — the stitched core
        map stamped with the global epoch (the shard-epoch vector sum) —
        and refreshes at every stitch: after :meth:`flush` and on any
        :meth:`view` at a new epoch vector.  Its ``min_epoch`` is the
        router store's: the epoch of the last rebuild, advancing with
        the retention horizon; older pins get a structured refusal.
        """
        self.view()
        if publisher is None:
            from repro.service.queryplane import EpochPublisher

            publisher = EpochPublisher(interner=self._snapshots.interner,
                                       **kwargs)
        self._queryplane = publisher
        self._snapshots.publish_to(publisher)
        return publisher

    def take_completed(self) -> List[Response]:
        out = self._completed
        self._completed = []
        for sh in self.shards:
            out.extend(sh.take_completed())
        return out

    def core(self, u: Vertex) -> Optional[int]:
        return self.view().core(u)

    def cores(self) -> Dict[Vertex, int]:
        """The stitched global core map (exact; see module docstring)."""
        return self.view().cores()

    def view(self) -> SnapshotView:
        """One consistent stitched view of the latest committed state:
        the router store's head, re-stitched only when some shard
        committed since the last stitch."""
        vec = self._epoch_vector()
        if vec != self._router_vec:
            self._stitch(vec)
        return self._snapshots.view()

    def metrics(self) -> Dict:
        """Router ledger (plus the stitch counters) and every shard's own
        metrics surface."""
        router = self.metrics_collector.as_dict(
            pending_depth=self.pending_ops(), now=self.now, epoch=self.epoch)
        router.update(self._stitch_counts)
        return {"router": router,
                "shards": [sh.metrics() for sh in self.shards]}

    def check(self) -> None:
        """Flush everything, then assert per-shard and router invariants,
        the router maintainer's OI/OR invariants, and the stitch's
        exactness against a from-scratch H-index refinement of the union
        of shard edges."""
        from repro.parallel.hindex import graph_cores

        self.flush()
        for sh in self.shards:
            sh.check()
        self.metrics_collector.assert_invariant()
        got = dict(self.cores())
        self._snapshots.maintainer.check()
        self._snapshots.check()
        want = graph_cores(self._union_graph())
        if got != want:
            wrong = sorted((x for x in want.keys() | got.keys()
                            if got.get(x) != want.get(x)), key=repr)
            raise AssertionError(
                f"stitched cores differ from a from-scratch refinement "
                f"at {len(wrong)} vertex(es), e.g. {wrong[:5]!r}"
            )

    # ------------------------------------------------------------------
    # shutdown — quiesce workers BEFORE the final checkpoint
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop shard workers, then checkpoint, then close journals.

        Ordering is the point (and is what the torn-tail regression
        pins): the process backend's workers append to their journals
        from *their* process, so the final checkpoint may only be
        written once every worker has been joined — checkpointing while
        a worker still held the file would interleave a torn tail.
        Idempotent, like :meth:`Engine.close`.
        """
        if self._closed:
            return
        self._closed = True
        payloads = [sh.quiesce() for sh in self.shards]   # 1. join workers
        for sh, payload in zip(self.shards, payloads):    # 2. checkpoint
            sh.final_checkpoint(payload)
        for sh in self.shards:                            # 3. release
            sh.close()

    def abandon(self) -> None:
        """Crash-stop every shard (no checkpoint, no flush): what the
        cross-shard crash tests use to simulate the whole serving
        process dying mid-2PC."""
        self._closed = True
        for sh in self.shards:
            sh.abandon()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _submit_update(self, request: Request, rid: str) -> Response:
        self.metrics_collector.admitted += 1
        self.now += self.config.ingest_cost
        u, v = request.u, request.v
        if u == v or u is None or v is None:
            return self._quarantine(
                request, rid, E_SELF_LOOP,
                f"self-loop or missing endpoint: {u!r}",
            )
        su = self.interner.shard_of(u)
        sv = self.interner.shard_of(v)
        if su == sv:
            # intra-shard: the shard's own engine batches it; its
            # admission verdict is authoritative (it holds the edge).
            # The shard engine cannot see a duplicate id (the router
            # deduplicates globally), so the verdict is about the edge.
            self.metrics_collector.admitted -= 1  # shard ledger counts it
            sh = self.shards[su]
            if not hasattr(sh, "send"):
                return sh.submit(replace(request, id=rid))
            # process shard: defer — one submit_many frame per run of
            # local ops beats a pipe round-trip per op.  The shard's
            # admission verdict (e.g. duplicate-edge quarantine)
            # surfaces through take_completed() instead.
            buf = self._lbuf.setdefault(su, [])
            buf.append(replace(request, id=rid))
            if len(buf) >= self._group_cap:
                self._flush_local(su)
            return Response(id=rid, op=request.op, status=STATUS_PENDING)
        return self._submit_cross(request, rid)

    def _flush_local(self, s: int) -> None:
        """Ship shard ``s``'s deferred intra-shard ops in one frame.
        Non-pending verdicts (quarantines) are terminal responses the
        monolith would have returned synchronously — they surface via
        the completed-response drain."""
        reqs = self._lbuf.pop(s, None)
        if not reqs:
            return
        for resp in self.shards[s].submit_many(reqs):
            if resp.status != STATUS_PENDING:
                self._completed.append(resp)

    def _submit_query(self, request: Request, rid: str) -> Response:
        self.metrics_collector.admitted += 1
        self.now += self.config.query_cost
        view = self.view()
        value, err = answer_query(view, request.kind, request.args)
        if err is not None:
            return self._quarantine(request, rid, *err)
        m = self.metrics_collector
        m.committed += 1
        m.committed_queries += 1
        m.note_latency("query", self.config.query_cost)
        return Response(id=rid, op="query", status=STATUS_COMMITTED,
                        value=value, epoch=view.epoch,
                        latency=self.config.query_cost)

    # ------------------------------------------------------------------
    # cross-shard 2PC (router/coordinator side)
    # ------------------------------------------------------------------
    def _submit_cross(self, request: Request, rid: str) -> Response:
        """Queue one cross-shard op into the router's run buffer.

        The buffer mirrors the micro-batcher's semantics edge-for-edge:
        a same-kind duplicate coalesces onto the queued edge, an
        opposite-kind op annihilates the pair (both sides commit as a
        net no-op), a kind conflict on a *fresh* edge cuts the pending
        group first.  A full group (``_group_cap`` edges) commits through
        one grouped prepare/commit round per shard — one maintainer
        batch and one epoch per shard instead of an edge at a time.
        """
        kind = "+" if request.op == "insert" else "-"
        e = canonical_edge(request.u, request.v)
        m = self.metrics_collector
        if e in self._xriders:
            if kind == self._xkind:
                self._xriders[e].append((rid, request.op))
                m.coalesced += 1
                return Response(id=rid, op=request.op,
                                status=STATUS_PENDING, detail="coalesced")
            for orid, oop in self._xriders.pop(e):
                self._finish(orid, oop, STATUS_COMMITTED, detail="cancelled")
            self._xedges.remove(e)
            m.cancelled += 1
            m.committed += 1
            m.committed_updates += 1
            m.note_latency(request.op, 0.0)
            return Response(id=rid, op=request.op, status=STATUS_COMMITTED,
                            epoch=self.epoch, latency=0.0, detail="cancelled")
        if self._xkind is not None and kind != self._xkind and self._xedges:
            self._cut_cross("conflict")
        self._xkind = kind
        self._xedges.append(e)
        self._xriders[e] = [(rid, request.op)]
        if len(self._xedges) >= self._group_cap:
            self._cut_cross("size")
        return Response(id=rid, op=request.op, status=STATUS_PENDING)

    _INFLIGHT = object()

    def _scatter(self, point: str, frame: str, payloads, seqs) -> Dict:
        """Send one group frame per shard (ascending id), then gather.

        Process shards overlap — each worker runs its maintainer batch
        while the router is still scattering — so a group's wall time is
        the *slowest* shard, not the sum.  Local shards execute at send
        time (a direct call), which keeps their semantics identical.  The
        crash point fires between sends: frames already sent are
        processed (and journaled) by their workers even if the router
        dies before gathering, which is exactly the torn window the
        recovery resolution pass owns.  After a :class:`RouterCrashed`
        the engine must be abandoned — a gather was skipped, so a pipe
        may hold a stale reply.
        """
        staged = []
        for i, (s, payload) in enumerate(payloads):
            if i:
                self._crash_point(point, seqs)
            sh = self.shards[s]
            if hasattr(sh, "send"):
                sh.send(frame, payload)
                staged.append((s, sh, self._INFLIGHT))
            else:
                staged.append((s, sh, getattr(sh, frame)(payload)))
        return {s: (sh.recv() if res is self._INFLIGHT else res)
                for s, sh, res in staged}

    def _crash_point(self, point: str, seqs) -> None:
        if self.crash_2pc.get(point) in seqs:
            raise RouterCrashed(point, f"tx{self.crash_2pc[point]}")
        if self.faults is not None:
            decision = self.faults.decide(CRASH_POINTS.index(point), "tick")
            if decision is not None and decision[0] == CRASH:
                raise RouterCrashed(point, f"group@{min(seqs)}")

    def _cut_cross(self, reason: str) -> None:
        """Commit the pending cross-shard group through grouped 2PC.

        Protocol order (the crash windows the recovery tests pin):
        ``prepare`` scattered to every involved shard in ascending shard
        order (``prepare-peer`` crashes between sends), gather all
        votes, then — the group now decided — ``commit2`` scattered in
        ascending shard order (``commit-coord`` crashes before the first
        commit, leaving every prepare dangling → recovery aborts;
        ``commit-peer`` between commits, leaving a commit2 on one shard
        → recovery redoes the rest).  Resolution needs no coordinator
        identity: *any* shard's ``commit2`` is proof of decision.
        """
        edges, riders, kind = self._xedges, self._xriders, self._xkind
        self._xedges, self._xriders, self._xkind = [], {}, None
        if not edges:
            return
        self.metrics_collector.cuts[reason] += 1
        group = []   # (tx, seq, edge, coord, part)
        by_shard: Dict[int, List[Tuple]] = {}
        for e in edges:
            seq = self._txseq
            tx = f"tx{seq}"
            self._txseq += 1
            coord = self.interner.shard_of(e[0])
            part = self.interner.shard_of(e[1])
            group.append((tx, seq, e, coord, part))
            rid0 = riders[e][0][0]
            by_shard.setdefault(coord, []).append(
                (tx, kind, e, rid0, part, "apply"))
            by_shard.setdefault(part, []).append(
                (tx, kind, e, rid0, coord, "track"))
        seqs = {g[1] for g in group}
        # phase 1: prepare, scattered to every involved shard
        votes = self._scatter("prepare-peer", "prepare_group",
                              sorted(by_shard.items()), seqs)
        errors: Dict[str, str] = {}
        prepared_on: Dict[str, List[int]] = {}
        for s, items in sorted(by_shard.items()):
            for it, err in zip(items, votes[s]):
                if err is None:
                    prepared_on.setdefault(it[0], []).append(s)
                else:
                    errors.setdefault(it[0], err)
        # failed votes: abort wherever prepared, quarantine the riders
        aborts: Dict[int, List[str]] = {}
        for tx, seq, e, coord, part in group:
            if tx not in errors:
                continue
            for s in prepared_on.get(tx, ()):
                aborts.setdefault(s, []).append(tx)
            for orid, oop in riders[e]:
                self._finish(
                    orid, oop, STATUS_QUARANTINED,
                    error=make_error(errors[tx],
                                     f"cross-shard op rejected: {e!r}"),
                )
        for s, txs in sorted(aborts.items()):
            self.shards[s].abort_group(txs)
        decided = [g for g in group if g[0] not in errors]
        if not decided:
            return
        # phase 2: the group is decided — commit, scattered
        self._crash_point("commit-coord", seqs)
        commit_by_shard: Dict[int, List[str]] = {}
        for tx, seq, e, coord, part in decided:
            commit_by_shard.setdefault(coord, []).append(tx)
            commit_by_shard.setdefault(part, []).append(tx)
        epochs = self._scatter("commit-peer", "commit_group",
                               sorted(commit_by_shard.items()), seqs)
        for tx, seq, e, coord, part in decided:
            ep = epochs[coord]
            for orid, oop in riders[e]:
                self._finish(orid, oop, STATUS_COMMITTED, epoch=ep,
                             detail="cross-shard")

    def _finish(self, rid: str, op: str, status: str, *,
                epoch: Optional[int] = None, error: Optional[Dict] = None,
                detail: Optional[str] = None) -> None:
        m = self.metrics_collector
        if status == STATUS_COMMITTED:
            m.committed += 1
            m.committed_updates += 1
            m.note_latency(op, 0.0)
        elif status == STATUS_QUARANTINED:
            m.quarantined += 1
        self._completed.append(Response(id=rid, op=op, status=status,
                                        error=error, epoch=epoch,
                                        latency=0.0, detail=detail))

    def _quarantine(self, request: Request, rid: str, code: str,
                    message: str) -> Response:
        self.metrics_collector.quarantined += 1
        return Response(id=rid, op=request.op, status=STATUS_QUARANTINED,
                        error=make_error(code, message))

    # ------------------------------------------------------------------
    # epoch stitch
    # ------------------------------------------------------------------
    def _stitch(self, vec: Tuple[int, ...]) -> None:
        """Bring the router's maintainer and store to the shard epoch
        vector ``vec``.

        Asks only the shards whose epoch moved for the edge batches they
        committed since the router's vector, applies each shard's
        batches in epoch order with OI/OR, and commits the touched
        vertices as global epoch ``sum(vec)``.  Every edge has exactly
        one owning shard (owner or coordinator), so the
        interleaving of shards cannot produce an invalid operation and
        the resulting cores do not depend on it.  The first view, a
        restart, and any shard whose delta ring no longer reaches back
        rebuild instead.
        """
        if self._router_vec is None:
            return self._rebuild(vec)
        deltas = []
        for s, (mine, now) in enumerate(zip(self._router_vec, vec)):
            if mine != now:
                _, batches = self.shards[s].edge_deltas(mine)
                if batches is None:
                    return self._rebuild(vec)
                deltas.append(batches)
        m = self._snapshots.maintainer
        touched = set()
        applied = 0
        for batches in deltas:
            for _, kind, edges in batches:
                op = m.insert_edge if kind == "+" else m.remove_edge
                for u, v in edges:
                    touched.add(u)
                    touched.add(v)
                    touched.update(op(u, v).v_star)
                applied += len(edges)
        self._router_vec = vec
        self._snapshots.commit(touched, epoch=sum(vec))
        self._snapshots.publish_to(self._queryplane)
        self._stitch_counts["stitch_incremental"] += 1
        self._stitch_counts["stitch_edges_applied"] += applied

    def _rebuild(self, vec: Tuple[int, ...]) -> None:
        """Build the router maintainer and a fresh store from every
        shard's full edge list: one decomposition of the union graph at
        ``vec``."""
        self._router_vec = vec
        self._snapshots = SnapshotStore(OrderMaintainer(self._union_graph()),
                                        epoch0=sum(vec))
        self._snapshots.publish_to(self._queryplane)
        self._stitch_counts["stitch_rebuilds"] += 1

    def _union_graph(self) -> DynamicGraph:
        """The union of shard subgraphs: maintained plus foreign-tracked
        edges, and every present vertex, isolated ones included."""
        edges: Dict[Edge, None] = {}
        vertices: Dict[Vertex, None] = {}
        for sh in self.shards:
            # canonical edges; a cross edge is reported by both owners
            edges.update(dict.fromkeys(sh.edges()))
            vertices.update(dict.fromkeys(sh.present_vertices()))
        return DynamicGraph(edges, vertices)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def from_journals(
        cls,
        base_path: str,
        config: Optional[EngineConfig] = None,
        **overrides,
    ) -> "ShardedEngine":
        """Restart a sharded engine from its per-shard journals.

        Three phases (``docs/sharding.md``):

        1. every shard restarts via :meth:`ShardEngine.from_journal
           <repro.service.engine.Engine.from_journal>`
           (checkpoint fast-path + committed replay, cross-shard
           ``commit2`` batches included);
        2. the router-side **resolution pass** settles every dangling
           prepare: commit (redo + the missing ``commit2``) iff *any*
           shard holds that transaction's ``commit2``, else ``abort2``
           on every shard that prepared — both participants always
           resolve identically;
        3. for the process backend, the resolved journals are handed to
           fresh shard workers.

        The router's global maintainer is never journaled: the first
        view rebuilds it from the recovered shards (see :meth:`_stitch`).
        """
        cfg = config or EngineConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        if cfg.journal_path is None:
            cfg = replace(cfg, journal_path=base_path)
        paths = shard_paths(base_path, cfg.shards)
        for p in paths:
            if not os.path.exists(p):
                raise FileNotFoundError(p)
        router = cls(None, cfg, _shards=[])
        # phase 1: per-shard restart (in-process, fault-free replay)
        engines: List[ShardEngine] = []
        replays = []
        for s in range(cfg.shards):
            shard_cfg = replace(router._shard_config(s), faults=None)
            eng = ShardEngine.from_journal(paths[s], shard_cfg)
            engines.append(eng)
            replays.append(eng.journal.replay())
        # phase 2: resolution pass over dangling prepares
        decided = set()
        for rp in replays:
            decided |= rp.commit2
        for s, rp in enumerate(replays):
            for tx in sorted(rp.prepared):
                prep = rp.prepared[tx]
                commit = tx in decided
                engines[s].resolve_prepared(prep, commit)
                router.resolutions.append(_Resolution(
                    tx=tx, id=prep.id, committed=commit, shards=(s,),
                ))
        # effects-without-decision is a protocol violation worth loud
        # failure: a commit2 on one shard whose peer journal holds
        # neither prepare nor commit2 cannot happen under the write
        # ordering (peer prepare is durable before any commit2)
        for s, rp in enumerate(replays):
            for tx in rp.commit2:
                others = [o for o in range(cfg.shards) if o != s]
                if others and not any(
                    tx in replays[o].commit2 or tx in replays[o].abort2
                    or any(r.tx == tx for r in router.resolutions)
                    for o in others
                ):
                    raise ValueError(
                        f"commit2 for {tx!r} with no peer prepare — "
                        "2PC write ordering violated"
                    )
        # restore the router's id space
        for rp in replays:
            router._seen_ids.update(rp.ids)
        for rid in router._seen_ids:
            if isinstance(rid, str) and rid.startswith("g") and rid[1:].isdigit():
                router._seq = max(router._seq, int(rid[1:]) + 1)
        router._txseq = max(
            (int(tx[2:]) + 1
             for rp in replays
             for tx in (set(rp.commit2) | set(rp.abort2) | set(rp.prepared))
             if tx.startswith("tx") and tx[2:].isdigit()),
            default=0,
        )
        # phase 3: hand the resolved journals to their shard hosts
        if cfg.backend == "process":
            from repro.parallel.procs import ProcessShard

            for eng in engines:
                eng.close()
            router.shards = [
                ProcessShard.start(s, router._shard_spec(s), None,
                                   recover_from=paths[s])
                for s in range(cfg.shards)
            ]
        else:
            router.shards = [LocalShard(s, eng)
                             for s, eng in enumerate(engines)]
        return router
