"""Primary + followers + failover: the replicated serving topology.

A :class:`ReplicaSet` wires one primary :class:`~repro.service.engine.Engine`
to N :class:`~repro.replication.follower.FollowerEngine` replicas through
per-replica :class:`~repro.replication.shipper.JournalShipper` tails, and
owns the two control-plane decisions a real deployment makes outside any
single process (``docs/replication.md``):

**Shipping policy (semi-synchronous).**  After every update submission
the *sync* replica (the pool's first) is shipped the whole journal head,
so by the time a caller drains a committed response, at least one
replica durably holds the commit record — that is the zero
committed-op-loss guarantee the failover bench asserts.  The remaining
*async* replicas are shipped lazily: only once their shipping backlog
exceeds ``ship_lag`` records, which is what makes ``replica_lag_records``
a real, bounded, observable quantity on their query answers.

**Failover.**  Primary death is decided by a seeded, process-level
:class:`~repro.faults.FaultPlane` (one ``decide(0, "tick")`` draw per
update submission — the same deterministic oracle the engine uses for
worker faults, aimed at the whole process) or forced via
:meth:`kill_primary`.  Promotion then:

1. picks the most-caught-up follower (longest *committed* prefix of
   received records, ties to the lowest replica id);
2. truncates its local log to that committed prefix — a dangling
   trailing intent the dead primary never committed is dropped, exactly
   mirroring :meth:`EdgeJournal.committed_prefix_len
   <repro.service.journal.EdgeJournal.committed_prefix_len>`;
3. finishes its replay, then rebuilds an independent
   ``Engine.from_journal`` of the same prefix and asserts the follower
   is **bit-identical** to it (graph, cores, OM order, epoch) before
   trusting it;
4. installs the rebuilt engine as the new primary, appends a
   ``promote`` record opening generation G+1, and re-points the
   surviving shippers at the new journal (their cursors stay valid on
   the shared prefix).

Queries are routed round-robin across followers (the primary serves
them only when the pool is empty), each answer stamped with the
staleness contract fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.faults.plane import CRASH, as_plane
from repro.graph.dynamic_graph import DynamicGraph
from repro.service.engine import Engine, EngineConfig
from repro.service.journal import REC_INTENT, EdgeJournal
from repro.service.requests import (
    E_PRIMARY_DOWN,
    STATUS_REJECTED,
    Request,
    Response,
    make_error,
)
from repro.replication.follower import FollowerEngine
from repro.replication.shipper import JournalShipper

Vertex = Hashable

__all__ = ["ReplicaSet", "Promotion", "PRIMARY_WID"]

#: the worker id the process-level fault plane draws against — the
#: "worker" is the primary process itself
PRIMARY_WID = 0


@dataclass(frozen=True)
class Promotion:
    """One completed failover, as recorded in replica-set metrics."""

    generation: int        #: generation the new primary opened
    replica: int           #: id of the promoted follower
    epoch: int             #: its last committed epoch at takeover
    prefix_records: int    #: committed-prefix length it took over from
    catchup_records: int   #: backlog it had to replay before serving
    truncated_records: int  #: dangling-intent tail dropped by failover
    wall_s: float          #: real seconds from death detection to serving


class ReplicaSet:
    """Replicated serving: one primary, N followers, seeded failover.

    Parameters
    ----------
    graph:
        Initial committed graph for the first-generation primary.
    config:
        Shared :class:`EngineConfig` (primary and any promoted follower
        run the same knobs); keyword overrides apply on top.
    replicas:
        Follower count.  ``0`` degenerates to a plain primary (queries
        served locally, no failover possible).
    ship_lag:
        Async replicas are shipped only once they are more than this
        many records behind the journal head.
    ship_batch:
        Max records per shipping poll (``None`` = unbounded).
    primary_faults:
        A :class:`~repro.faults.FaultSpec` (or plane) for *process-level*
        primary crashes; ``crash_rate`` is per update submission and
        ``max_crashes`` budgets total primary deaths.  ``None`` disables
        seeded crashes (``kill_primary`` still works).
    seed:
        Seed for the process fault plane (default: ``config.seed`` mixed
        with a fixed offset so it never correlates with the engine's own
        worker-fault draws).
    promote_on_crash:
        Fail over automatically when the primary dies.  When ``False``
        (or no followers remain) the set stays headless: updates come
        back ``rejected`` with :data:`E_PRIMARY_DOWN`.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        config: Optional[EngineConfig] = None,
        *,
        replicas: int = 2,
        ship_lag: int = 8,
        ship_batch: Optional[int] = None,
        primary_faults: Any = None,
        seed: Optional[int] = None,
        promote_on_crash: bool = True,
        **overrides,
    ) -> None:
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        if ship_lag < 0:
            raise ValueError("ship_lag must be >= 0")
        cfg = config or EngineConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        self.config = cfg
        self.ship_lag = ship_lag
        self.promote_on_crash = promote_on_crash
        self.primary: Optional[Engine] = Engine(graph, cfg)
        self.followers: List[FollowerEngine] = [
            FollowerEngine(i, cfg) for i in range(replicas)
        ]
        self._shippers: Dict[int, JournalShipper] = {
            f.replica_id: JournalShipper(
                self.primary.journal, batch_records=ship_batch
            )
            for f in self.followers
        }
        self.process_faults = as_plane(
            primary_faults,
            seed=(cfg.seed ^ 0x5EED0F) if seed is None else seed,
        )
        if self.process_faults is not None:
            self.process_faults.begin_run()
        self.generation = 0
        self.primary_crashes = 0
        self.promotions: List[Promotion] = []
        self._rr = 0
        self._seq = 0
        self._submitted_updates = 0
        # birth sync: every replica gets the init record before traffic
        self.pump(force=True)

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------
    def shipper(self, replica_id: int) -> JournalShipper:
        return self._shippers[replica_id]

    def _ship_to(self, f: FollowerEngine) -> None:
        s = self._shippers[f.replica_id]
        while True:
            batch = s.poll()
            if not batch:
                break
            f.receive(batch)
        f.replay()

    def pump(self, force: bool = False) -> None:
        """One shipping pass.

        The sync replica (first in the pool) is always shipped to the
        head; async replicas only when their backlog exceeds
        ``ship_lag`` (or ``force=True``, which deliberately defeats the
        lag — tests use it to reach quiescence).
        """
        if self.primary is None:
            return
        for i, f in enumerate(self.followers):
            s = self._shippers[f.replica_id]
            if force or i == 0 or s.lag() > self.ship_lag:
                self._ship_to(f)

    def sync(self) -> None:
        """Ship + replay everything everywhere (lag goes to zero)."""
        self.pump(force=True)

    # ------------------------------------------------------------------
    # request plane
    # ------------------------------------------------------------------
    def insert(self, u: Vertex, v: Vertex, **kw) -> Response:
        return self.submit(Request("insert", u=u, v=v,
                                   id=kw.pop("id", None)))

    def remove(self, u: Vertex, v: Vertex, **kw) -> Response:
        return self.submit(Request("remove", u=u, v=v,
                                   id=kw.pop("id", None)))

    def query(self, kind: str, *args, id: Optional[str] = None) -> Response:
        return self.submit(Request("query", kind=kind, args=tuple(args),
                                   id=id))

    def submit(self, request: Request) -> Response:
        """Route one request: updates to the primary (after the seeded
        crash draw), queries round-robin across followers."""
        if request.op == "query":
            return self._submit_query(request)
        return self._submit_update(request)

    def _submit_update(self, request: Request) -> Response:
        self._submitted_updates += 1
        if self.process_faults is not None and self.primary is not None:
            d = self.process_faults.decide(PRIMARY_WID, "tick")
            if d is not None and d[0] == CRASH:
                self._primary_died()
        if self.primary is None:
            return self._headless(request)
        resp = self.primary.submit(request)
        # semi-sync shipping: the commit (if one happened) reaches the
        # sync replica before the caller can observe the ack
        self.pump()
        return resp

    def _submit_query(self, request: Request) -> Response:
        if not self.followers:
            if self.primary is None:
                return self._headless(request)
            return self.primary.submit(request)
        f = self.followers[self._rr % len(self.followers)]
        self._rr += 1
        head = (len(self.primary.journal.records)
                if self.primary is not None else None)
        return f.query(request.kind or "", *request.args, id=request.id,
                       head_records=head)

    def _headless(self, request: Request) -> Response:
        rid = request.id
        if rid is None:
            rid = f"dead-{self._seq}"
            self._seq += 1
        return Response(
            id=rid, op=request.op, status=STATUS_REJECTED,
            error=make_error(
                E_PRIMARY_DOWN,
                "primary is dead and no follower was promoted "
                f"(crashes={self.primary_crashes})",
            ),
        )

    def flush(self) -> List[Response]:
        """Force-cut the primary's pending run, ship the commits, and
        drain terminal update responses."""
        if self.primary is None:
            return []
        self.primary.flush()
        self.pump()
        return self.take_completed()

    def take_completed(self) -> List[Response]:
        return self.primary.take_completed() if self.primary else []

    @property
    def epoch(self) -> int:
        if self.primary is None:
            raise ValueError("primary is dead")
        return self.primary.epoch

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def kill_primary(self) -> None:
        """Force the primary's death (chaos hook / operator action)."""
        if self.primary is None:
            raise ValueError("primary is already dead")
        self._primary_died()

    def _primary_died(self) -> None:
        dead = self.primary
        self.primary = None
        self.primary_crashes += 1
        if dead is not None:
            # the dead process's handle is gone; its in-memory journal
            # object is now unreachable to the control plane — failover
            # works from what the followers *received*, nothing more
            dead.close()
        if self.promote_on_crash and self.followers:
            self.promote()

    @staticmethod
    def _committed_prefix(f: FollowerEngine) -> int:
        n = len(f.records)
        while n > 0 and f.records[n - 1].get("t") == REC_INTENT:
            n -= 1
        return n

    def promote(self) -> Promotion:
        """Promote the most-caught-up follower to primary.

        See the module docstring for the four-step protocol.  Raises if
        the primary is still alive, the pool is empty, or the winner
        fails the bit-identity check against ``Engine.from_journal`` of
        its own committed prefix.
        """
        if self.primary is not None:
            raise ValueError("cannot promote while the primary is alive")
        if not self.followers:
            raise ValueError("no follower left to promote")
        t0 = time.perf_counter()
        winner = max(
            self.followers,
            key=lambda f: (self._committed_prefix(f), -f.replica_id),
        )
        prefix = self._committed_prefix(winner)
        truncated = len(winner.records) - prefix
        catchup = max(0, prefix - winner.applied)
        self._truncate(winner, prefix)
        winner.replay()
        # independent rebuild of the same prefix: the promoted state must
        # be indistinguishable from a cold restart of that journal
        j = EdgeJournal()
        j.records = list(winner.records)
        newp = Engine.from_journal(j, self.config)
        winner.verify_matches(newp)
        self.generation += 1
        newp.journal.log_promote(
            newp.epoch, prefix, self.generation, winner.replica_id
        )
        self.primary = newp
        self.followers = [f for f in self.followers if f is not winner]
        del self._shippers[winner.replica_id]
        for f in self.followers:
            self._truncate(f, prefix)
            self._shippers[f.replica_id].retarget(newp.journal, prefix)
        promo = Promotion(
            generation=self.generation,
            replica=winner.replica_id,
            epoch=newp.epoch,
            prefix_records=prefix,
            catchup_records=catchup,
            truncated_records=truncated,
            wall_s=time.perf_counter() - t0,
        )
        self.promotions.append(promo)
        # survivors learn the new generation with their next shipment
        self.pump()
        return promo

    @staticmethod
    def _truncate(f: FollowerEngine, prefix: int) -> None:
        """Drop a follower's record tail beyond the committed prefix (a
        dangling intent the failover discards); replayed state needs no
        rollback because intents alone never touch the maintainer."""
        if len(f.records) > prefix:
            del f.records[prefix:]
        if f.applied > prefix:
            f.applied = prefix
            f._pending = None

    def close(self) -> None:
        """Release the live primary's durable resources (idempotent)."""
        if self.primary is not None:
            self.primary.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Quiesce and assert every invariant: primary engine checks,
        every follower fully caught up and bit-identical-compatible with
        the primary's committed state."""
        if self.primary is None:
            raise ValueError("primary is dead")
        self.primary.check()
        self.sync()
        for f in self.followers:
            if f.backlog() != 0:
                raise AssertionError(f"replica {f.replica_id} not drained")
            if f.epoch != self.primary.epoch:
                raise AssertionError(
                    f"replica {f.replica_id} at epoch {f.epoch}, "
                    f"primary at {self.primary.epoch}"
                )
            if f.maintainer is not None:
                f.check()
                f.verify_matches(self.primary, strict_order=False)

    def metrics(self) -> Dict[str, Any]:
        """The replication metrics surface (per-replica lag, promotion
        count, records shipped/replayed) as a plain dict."""
        head = (len(self.primary.journal.records)
                if self.primary is not None else None)
        per_replica = []
        for f in self.followers:
            row = f.counters()
            row["lag_records"] = f.lag_records(head)
            row["shipper"] = self._shippers[f.replica_id].counters()
            per_replica.append(row)
        return {
            "generation": self.generation,
            "primary_alive": self.primary is not None,
            "primary_crashes": self.primary_crashes,
            "promotions": len(self.promotions),
            "promotion_log": [
                {
                    "generation": p.generation,
                    "replica": p.replica,
                    "epoch": p.epoch,
                    "prefix_records": p.prefix_records,
                    "catchup_records": p.catchup_records,
                    "truncated_records": p.truncated_records,
                    "wall_s": p.wall_s,
                }
                for p in self.promotions
            ],
            "records_shipped": sum(
                s.records_shipped for s in self._shippers.values()
            ),
            "records_replayed": sum(f.applied for f in self.followers),
            "submitted_updates": self._submitted_updates,
            "replicas": per_replica,
            "process_faults": (
                self.process_faults.counters()
                if self.process_faults is not None else None
            ),
        }
