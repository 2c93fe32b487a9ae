"""Read replicas: continuous journal replay behind the primary.

A :class:`FollowerEngine` is the replica-side half of WAL shipping: it
**receives** primary journal records (from a
:class:`~repro.replication.shipper.JournalShipper`), keeps them in its
own local copy of the log, and **replays** them continuously into a
private maintainer + :class:`~repro.service.snapshots.SnapshotStore`
pair.  The maintainer is the primary's
:class:`~repro.core.maintainer.DirectOrderMaintainer`, so both break
OM-order ties identically.  It then serves
the exact snapshot query plane of the primary
(:data:`~repro.service.snapshots.QUERY_KINDS`) — same kinds, same
answers — with two extra staleness fields stamped into every response
envelope (``docs/replication.md``):

``replica_epoch``
    the epoch the follower had applied when it answered;
``replica_lag_records``
    how many primary journal records it had *not yet replayed* —
    records it received but has not applied, plus (when the caller
    passes the primary's head position) records not even shipped yet.

Replay is fault-free by construction: the follower applies only
*committed* intents (an intent record parks as pending until its commit
arrives), asserts every replayed epoch matches the journal's commit
record, and **re-anchors** on every checkpoint record — it rebuilds its
maintainer through ``from_checkpoint``, the same canonical path
``Engine.from_journal`` takes, with the snapshot store's ``rebind``
verifying the replayed cores agree with the checkpoint.  Re-anchoring
is what makes promotion sound: OM order ties resolve differently under
different construction histories, so a follower that replays the way a
cold restart would is the only kind whose graph, core numbers and OM
order are bit-identical to ``Engine.from_journal`` of the same record
prefix — which :meth:`verify_matches` asserts and
:meth:`ReplicaSet.promote
<repro.replication.replicaset.ReplicaSet.promote>` relies on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.maintainer import DirectOrderMaintainer
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.service.engine import EngineConfig, apply_batch
from repro.service.journal import (
    REC_CHECKPOINT,
    REC_COMMIT,
    REC_INIT,
    REC_INTENT,
    REC_PROMOTE,
)
from repro.service.requests import (
    E_REPLICA_UNREADY,
    STATUS_COMMITTED,
    STATUS_QUARANTINED,
    Response,
    make_error,
)
from repro.service.snapshots import SnapshotStore, SnapshotView, answer_query

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["FollowerEngine"]


class FollowerEngine:
    """One read replica: a local journal copy + continuous replay.

    Parameters
    ----------
    replica_id:
        Small integer naming this replica in metrics and promote
        records.
    config:
        :class:`EngineConfig` the replica mirrors (``query_cost`` and the
        promoted engine's knobs), so a promoted follower rebuilds exactly
        the engine the primary ran.
        Fault injection is never armed on a follower — replay applies
        already-committed work.
    """

    def __init__(self, replica_id: int = 0,
                 config: Optional[EngineConfig] = None,
                 **overrides) -> None:
        cfg = config or EngineConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        self.config = cfg
        self.replica_id = replica_id
        #: the local copy of the primary's journal (received records)
        self.records: List[Dict] = []
        #: how many of ``records`` have been replayed into the maintainer
        self.applied = 0
        self.maintainer = None
        self.snapshots: Optional[SnapshotStore] = None
        self._pending: Optional[Dict] = None
        #: primary generation last seen in a promote record
        self.generation = 0
        self.promotions_seen = 0
        self.aborted_intents = 0
        #: service time (cost units) charged by replayed batches
        self.replay_makespan = 0.0
        self.queries_served = 0
        self._qseq = 0
        #: wait-free query plane publisher (docs/queryplane.md); a
        #: follower republishes at every applied commit and re-anchor,
        #: so reader processes stay bounded-stale behind replication lag
        self._queryplane = None

    # ------------------------------------------------------------------
    # receiving + replaying
    # ------------------------------------------------------------------
    @property
    def received(self) -> int:
        """Records shipped to this replica so far."""
        return len(self.records)

    @property
    def epoch(self) -> int:
        """Last applied epoch (0 until the init record is replayed)."""
        return self.snapshots.epoch if self.snapshots is not None else 0

    def backlog(self) -> int:
        """Received-but-unapplied records."""
        return len(self.records) - self.applied

    def lag_records(self, head: Optional[int] = None) -> int:
        """Primary records not yet replayed here.  ``head`` is the
        primary's journal length; default assumes everything received."""
        base = len(self.records) if head is None else head
        return base - self.applied

    def receive(self, recs: Sequence[Dict]) -> int:
        """Append shipped records to the local log (no replay yet)."""
        self.records.extend(recs)
        return len(recs)

    def replay(self, max_records: Optional[int] = None) -> int:
        """Apply up to ``max_records`` backlog records (default: all).

        Returns how many were applied.  Raises ``ValueError`` on a
        stream that violates the journal grammar — a replica that
        cannot follow its primary must fail loudly, not serve garbage.
        """
        n = 0
        while self.applied < len(self.records):
            if max_records is not None and n >= max_records:
                break
            self._apply(self.records[self.applied])
            self.applied += 1
            n += 1
        return n

    def _apply(self, rec: Dict) -> None:
        t = rec["t"]
        if t == REC_INIT:
            if self.maintainer is not None:
                raise ValueError("second init record in replication stream")
            self._boot(DynamicGraph([(u, v) for u, v in rec["edges"]]),
                       epoch0=0)
        elif t == REC_INTENT:
            if self._pending is not None:
                # superseded attempt: the primary crashed mid-batch and
                # retried; only the committed attempt ever gets applied
                self.aborted_intents += 1
            self._pending = rec
        elif t == REC_COMMIT:
            if self._pending is None:
                raise ValueError(
                    f"commit for epoch {rec['epoch']} without an intent "
                    f"in the shipped stream (replica {self.replica_id})"
                )
            self._apply_commit(self._pending, rec["epoch"])
            self._pending = None
        elif t == REC_CHECKPOINT:
            # re-anchor: rebuild the maintainer from the checkpoint, the
            # same canonical path ``Engine.from_journal`` takes.  OM tie
            # placement depends on construction history, so re-anchoring
            # at every checkpoint is what keeps the follower's state
            # after record i bit-identical to a cold restart of the
            # first i records — the promotion safety property.
            m = DirectOrderMaintainer.from_checkpoint(
                DynamicGraph([(u, v) for u, v in rec["edges"]]),
                {u: k for u, k in rec["cores"]},
                list(rec["order"]),
            )
            if self.maintainer is None:
                # mid-stream attach: the first record a late-joining
                # replica receives is the primary's latest checkpoint
                self._adopt(m, epoch0=rec["epoch"])
            else:
                # rebind verifies the checkpoint's cores agree with the
                # replayed committed view — the divergence tripwire
                self.snapshots.rebind(m)
                self.maintainer = m
        elif t == REC_PROMOTE:
            if self._pending is not None:
                raise ValueError(
                    "promote record follows an unresolved intent — the "
                    "failover truncation was skipped"
                )
            self.promotions_seen += 1
            self.generation = rec["generation"]
        else:
            raise ValueError(f"unknown record kind {t!r} shipped to replica")

    def _apply_commit(self, pending: Dict, epoch: int) -> None:
        m = self.maintainer
        if m is None or self.snapshots is None:
            raise ValueError("commit record before init/checkpoint")
        edges = [(u, v) for u, v in pending["edges"]]
        result = apply_batch(m, pending["kind"], edges)
        self.replay_makespan += result.makespan
        got = self.snapshots.commit_batch(pending["kind"], edges, result)
        if got != epoch:
            raise ValueError(
                f"replica {self.replica_id} epoch drift: replay produced "
                f"epoch {got}, primary committed {epoch}"
            )
        self.snapshots.publish_to(self._queryplane)

    def _boot(self, graph: DynamicGraph, epoch0: int) -> None:
        self._adopt(DirectOrderMaintainer(graph), epoch0=epoch0)

    def _adopt(self, m, epoch0: int) -> None:
        self.maintainer = m
        self.snapshots = SnapshotStore(m, epoch0=epoch0)
        # a mid-stream attach moves min_epoch forward: republish so
        # pinned readers below the new floor get the truncation refusal
        self.snapshots.publish_to(self._queryplane)

    # ------------------------------------------------------------------
    # wait-free query plane (docs/queryplane.md)
    # ------------------------------------------------------------------
    def enable_queryplane(self, publisher=None, **kwargs):
        """Attach an :class:`~repro.service.queryplane.EpochPublisher`.

        Every applied commit (and every checkpoint re-anchor) republishes
        the follower's core map, stamped with the replica's applied epoch
        — reader processes answer from shared memory at replication-lag
        staleness without touching the replay loop.  Pass an existing
        ``publisher`` to rebind after promotion (the promoted engine's
        plane keeps its segments; epochs continue from the follower's
        applied epoch).  The caller owns the publisher's lifetime.
        """
        if publisher is None:
            from repro.service.queryplane import EpochPublisher

            publisher = EpochPublisher(
                interner=(self.snapshots.interner
                          if self.snapshots is not None else None),
                **kwargs)
        self._queryplane = publisher
        if self.snapshots is not None:
            self.snapshots.publish_to(publisher)
        return publisher

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def view(self, epoch: Optional[int] = None) -> SnapshotView:
        """A snapshot view at ``epoch`` (default: last applied)."""
        if self.snapshots is None:
            raise ValueError("replica has not received an init record yet")
        return self.snapshots.view(epoch)

    def query(self, kind: str, *args, id: Optional[str] = None,
              head_records: Optional[int] = None) -> Response:
        """Answer one snapshot query with the staleness contract.

        ``head_records`` is the primary journal length at routing time;
        the :class:`~repro.replication.replicaset.ReplicaSet` passes it
        so ``replica_lag_records`` counts unshipped records too.
        """
        rid = id if id is not None else f"f{self.replica_id}-q{self._qseq}"
        self._qseq += 1
        self.queries_served += 1
        lag = self.lag_records(head_records)
        stamp = dict(replica_epoch=self.epoch, replica_lag_records=lag)
        if self.snapshots is None:
            return Response(
                id=rid, op="query", status=STATUS_QUARANTINED,
                error=make_error(
                    E_REPLICA_UNREADY,
                    f"replica {self.replica_id} has not replayed an init "
                    "record yet",
                ),
                **stamp,
            )
        view = self.view()
        value, err = answer_query(view, kind, tuple(args))
        if err is not None:
            return Response(id=rid, op="query", status=STATUS_QUARANTINED,
                            error=make_error(*err), **stamp)
        return Response(
            id=rid, op="query", status=STATUS_COMMITTED, value=value,
            epoch=view.epoch, latency=self.config.query_cost, **stamp,
        )

    # ------------------------------------------------------------------
    # promotion support
    # ------------------------------------------------------------------
    def canonical_edges(self) -> List[Edge]:
        """Replayed graph as the journal's canonical sorted edge list."""
        if self.maintainer is None:
            return []
        g = self.maintainer.graph
        return sorted((canonical_edge(u, v) for u, v in g.edges()), key=repr)

    def verify_matches(self, engine, strict_order: bool = True) -> None:
        """Assert bit-identity with an :class:`~repro.service.engine.Engine`
        rebuilt from the same journal prefix: same graph, same cores,
        same OM order, same epoch.  This is the promotion safety check —
        a follower that drifted must never take over as primary.

        ``strict_order=False`` skips the OM-order comparison: against a
        *live* primary (whose maintainer grew organically rather than
        through the checkpoint re-anchor path) order ties may resolve
        differently without either side being wrong."""
        if self.maintainer is None:
            raise ValueError(f"replica {self.replica_id} is empty")
        if self.epoch != engine.epoch:
            raise ValueError(
                f"promotion check: replica epoch {self.epoch} != "
                f"rebuilt epoch {engine.epoch}"
            )
        if self.canonical_edges() != engine._graph_edges():
            raise ValueError("promotion check: graphs differ")
        if self.maintainer.cores() != engine.maintainer.cores():
            raise ValueError("promotion check: core numbers differ")
        if strict_order and (
            list(self.maintainer.order_sequence())
            != list(engine.maintainer.order_sequence())
        ):
            raise ValueError("promotion check: OM order differs")

    def counters(self) -> Dict[str, Any]:
        return {
            "replica": self.replica_id,
            "received": self.received,
            "applied": self.applied,
            "backlog": self.backlog(),
            "epoch": self.epoch,
            "generation": self.generation,
            "promotions_seen": self.promotions_seen,
            "aborted_intents": self.aborted_intents,
            "queries_served": self.queries_served,
            "replay_makespan": self.replay_makespan,
        }
