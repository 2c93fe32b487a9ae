"""Write-ahead edge journal + checkpoint/replay for the serving engine.

The engine's durability story (``docs/faults.md``) is the classic
WAL + checkpoint pair, scaled down to the reproduction's serving
plane:

* every micro-batch writes an **intent** record *before* touching the
  maintainer, and a **commit** record only after the batch applied and
  its epoch was published to the snapshot store;
* an intent with no matching commit is an *aborted attempt* — the batch
  crashed mid-application (``BatchCrashed``) and
  its partial effects were discarded — so replay skips it;
* a periodic **checkpoint** record stores the committed graph, its core
  numbers and the *full OM order* so recovery can rebuild the
  maintainer bit-identically via
  :meth:`~repro.core.maintainer.OrderFacade.from_checkpoint`
  without replaying history from the initial graph;
* a **promote** record marks a replication failover: the journal up to
  that point is the committed prefix a follower replayed before taking
  over as the new primary (:mod:`repro.replication`,
  ``docs/replication.md``);
* **prepare** / **commit2** / **abort2** records carry the two-shard
  commit protocol for cross-shard edges (:mod:`repro.service.sharding`,
  ``docs/sharding.md``): a prepare is a yes-vote holding full redo
  information, the coordinator's commit2 is the decision, and a prepare
  resolved by neither is *dangling* — the router's recovery resolution
  pass commits it iff any shard holds a commit2 for the same
  transaction, else aborts it on every participant (presumed abort).

Records are canonical JSON lines (sorted keys, no whitespace), which
makes the journal *byte-comparable*: two runs with the same seed and the
same request stream produce identical journals (the determinism
regression test), and :meth:`EdgeJournal.digest` is a stable fingerprint.

The journal is in-memory by default; give it a ``path`` to also append
each record to a file (one JSON object per line, flushed per record).
:meth:`EdgeJournal.load` reads such a file back for a post-restart
:meth:`Engine.from_journal <repro.service.engine.Engine.from_journal>`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.graph.core import canonical_edge

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["EdgeJournal", "Replay", "CommittedBatch", "Checkpoint",
           "PreparedTx"]

#: record types, in the order they may legally appear
REC_INIT = "init"
REC_INTENT = "intent"
REC_COMMIT = "commit"
REC_CHECKPOINT = "checkpoint"
#: a follower took over as primary at this point (``docs/replication.md``);
#: written by :meth:`repro.replication.ReplicaSet.promote` at the head of
#: each new primary generation's journal continuation
REC_PROMOTE = "promote"
#: cross-shard two-phase commit (``docs/sharding.md``): a shard voted yes
#: on a cross-shard edge transaction and holds its redo information
REC_PREPARE = "prepare"
#: the cross-shard transaction applied on this shard at ``epoch`` — the
#: first ``commit2`` written anywhere (the coordinator's) is the decision
REC_COMMIT2 = "commit2"
#: the cross-shard transaction was abandoned; the prepare above it is void
REC_ABORT2 = "abort2"

_KINDS = (REC_INIT, REC_INTENT, REC_COMMIT, REC_CHECKPOINT, REC_PROMOTE,
          REC_PREPARE, REC_COMMIT2, REC_ABORT2)


def _canon(record: Dict) -> str:
    """One canonical JSON line (sorted keys, minimal separators)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _parse(data: bytes) -> Tuple[List[Dict], int]:
    """The records of JSONL ``data`` and the byte length they span.

    Every record is written with its newline in one flushed append, so a
    final line without a newline is a write the process died inside:
    that torn tail is dropped (it was never acknowledged).  Any other
    malformed line still raises."""
    end = data.rfind(b"\n") + 1
    records = [json.loads(line)
               for line in data[:end].decode("utf-8").splitlines()
               if line.strip()]
    return records, end


def _edges_out(edges: Sequence[Edge]) -> List[List[Vertex]]:
    return [[u, v] for u, v in edges]


def _edges_in(edges: Sequence[Sequence[Vertex]]) -> Tuple[Edge, ...]:
    return tuple((u, v) for u, v in edges)


@dataclass(frozen=True)
class CommittedBatch:
    """One durably committed micro-batch, as reconstructed by replay."""

    kind: str               #: ``"+"`` (insert) or ``"-"`` (remove)
    edges: Tuple[Edge, ...]
    ids: Tuple[str, ...]    #: request ids the batch carried
    epoch: int              #: epoch it committed as
    attempt: int = 0        #: 0 = first try; >0 = committed after retries


@dataclass(frozen=True)
class PreparedTx:
    """A cross-shard transaction this shard voted yes on (``prepare``
    record).  Carries everything needed to *redo* the local apply if the
    router decides commit during recovery (``docs/sharding.md``)."""

    tx: str                 #: router-global transaction id
    kind: str               #: ``"+"`` or ``"-"``
    edge: Edge
    id: str                 #: the originating request id
    shard: int              #: the shard this journal belongs to
    peer: int               #: the other participant shard
    #: ``"apply"`` — this shard is the edge's coordinator and holds it
    #: in its edge set; ``"track"`` — this shard is the peer owner and
    #: only records the edge in its foreign adjacency (durability +
    #: stitch adjacency, no maintainer work; see ``docs/sharding.md``)
    role: str = "apply"


@dataclass(frozen=True)
class Checkpoint:
    """A full engine snapshot: graph + cores + the exact OM order (an
    edge-set shard's has no cores, and its order is its vertex list)."""

    epoch: int
    edges: Tuple[Edge, ...]
    cores: Tuple[Tuple[Vertex, int], ...]
    order: Tuple[Vertex, ...]
    #: cross-shard edges this shard tracks but does not maintain
    #: (peer-owner replicas; empty for monolithic engines)
    foreign: Tuple[Edge, ...] = ()


@dataclass
class Replay:
    """Everything recovery needs, distilled from the record stream."""

    initial_edges: Tuple[Edge, ...] = ()
    committed: List[CommittedBatch] = field(default_factory=list)
    checkpoint: Optional[Checkpoint] = None
    #: every request id named by any intent (also aborted ones) — used to
    #: restore duplicate-id detection across a restart
    ids: Set[str] = field(default_factory=set)
    #: intents that were superseded or never committed (crashed attempts)
    aborted_intents: int = 0
    last_epoch: int = 0
    #: how many failovers this journal has lived through (promote records)
    promotions: int = 0
    #: primary generation: 0 for the original primary, bumped per promote
    generation: int = 0
    #: cross-shard transactions still *dangling* at the end of the journal
    #: (prepare without a commit2/abort2) — the router's recovery
    #: resolution pass decides their fate (``docs/sharding.md``)
    prepared: Dict[str, PreparedTx] = field(default_factory=dict)
    #: cross-shard transactions that applied locally (commit2 records)
    commit2: Set[str] = field(default_factory=set)
    #: cross-shard transactions abandoned locally (abort2 records)
    abort2: Set[str] = field(default_factory=set)
    #: the running foreign-adjacency set (peer-owner replicas of cross
    #: edges, ``role == "track"``) as of the end of the journal
    foreign: Set[Edge] = field(default_factory=set)

    def batches_after(self, epoch: int) -> List[CommittedBatch]:
        """Committed batches strictly after ``epoch``, in commit order."""
        return [b for b in self.committed if b.epoch > epoch]


class EdgeJournal:
    """Append-only, canonical-JSONL write-ahead log.

    Parameters
    ----------
    path:
        ``None`` (default) keeps the journal purely in memory.  A path
        additionally appends every record to that file, flushed per
        record, so a crashed *process* can be restarted with
        :meth:`load` + ``Engine.from_journal``.  A fresh journal
        truncates an existing file (it is a new engine lifetime); use
        :meth:`load` to continue one.
    """

    def __init__(self, path: Optional[str] = None, _truncate: bool = True) -> None:
        self.path = path
        self.records: List[Dict] = []
        self._fh = None
        if path is not None:
            self._fh = open(path, "w" if _truncate else "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: Dict) -> None:
        """Append one record (validated, canonicalized, flushed)."""
        t = record.get("t")
        if t not in _KINDS:
            raise ValueError(f"unknown journal record type {t!r}")
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(_canon(record) + "\n")
            self._fh.flush()

    def log_init(self, edges: Sequence[Edge],
                 foreign: Sequence[Edge] = ()) -> None:
        """Record the engine's birth graph (epoch 0).  ``foreign`` is the
        birth foreign-adjacency set of a peer-owner shard (cross edges it
        tracks without maintaining); omitted when empty so monolithic
        journals keep their historical byte shape."""
        rec = {"t": REC_INIT, "edges": _edges_out(edges),
               "foreign": _edges_out(foreign)}
        if not foreign:
            del rec["foreign"]
        self.append(rec)

    def log_intent(self, kind: str, edges: Sequence[Edge],
                   ids: Sequence[str], attempt: int = 0) -> None:
        """Write-ahead: about to apply this batch (attempt N)."""
        self.append({
            "t": REC_INTENT, "kind": kind, "edges": _edges_out(edges),
            "ids": list(ids), "attempt": attempt,
        })

    def log_commit(self, epoch: int) -> None:
        """The immediately preceding intent applied and published."""
        self.append({"t": REC_COMMIT, "epoch": epoch})

    def log_checkpoint(self, epoch: int, edges: Sequence[Edge],
                       cores: Dict[Vertex, int],
                       order: Sequence[Vertex],
                       foreign: Sequence[Edge] = ()) -> None:
        """Durable snapshot: graph + cores + full OM order at ``epoch``.

        ``cores`` is stored as a list of pairs ordered by ``order`` so the
        record is canonical without requiring sortable vertex ids.  An
        edge-set shard passes no cores, and its ``order`` only lists its
        vertices (:class:`~repro.core.maintainer.EdgeSetMaintainer`).
        ``foreign`` snapshots a shard's foreign adjacency (omitted when
        empty) — without it, recovery from the checkpoint fast-path
        would lose peer-owner replicas committed before the checkpoint.
        """
        rec = {
            "t": REC_CHECKPOINT, "epoch": epoch,
            "edges": _edges_out(edges),
            "cores": [[u, cores[u]] for u in order] if cores else [],
            "order": list(order),
            "foreign": _edges_out(foreign),
        }
        if not foreign:
            del rec["foreign"]
        self.append(rec)

    def log_promote(self, epoch: int, records: int, generation: int,
                    replica: int) -> None:
        """A follower was promoted to primary: it replayed ``records``
        records of the dead primary's journal, its last committed epoch
        was ``epoch``, and it starts generation ``generation``
        (``docs/replication.md``)."""
        self.append({
            "t": REC_PROMOTE, "epoch": epoch, "records": records,
            "generation": generation, "replica": replica,
        })

    def log_prepare(self, tx: str, kind: str, edge: Edge, id: str,
                    shard: int, peer: int, role: str = "apply") -> None:
        """Cross-shard write-ahead: this shard votes yes on transaction
        ``tx`` (a single ``kind`` op on the cross-shard ``edge``) and can
        redo the apply from this record alone (``docs/sharding.md``).
        ``role`` records which side of the edge this shard holds:
        ``"apply"`` (coordinator, applies the edge) or ``"track"``
        (peer owner, foreign adjacency only)."""
        u, v = edge
        self.append({
            "t": REC_PREPARE, "tx": tx, "kind": kind, "edge": [u, v],
            "id": id, "shard": shard, "peer": peer, "role": role,
        })

    def log_commit2(self, tx: str, epoch: int) -> None:
        """The prepared cross-shard transaction ``tx`` applied locally
        and published as ``epoch``.  The coordinator's commit2 is the
        protocol's decision record: once it is durable anywhere, every
        participant must (re)do its apply."""
        self.append({"t": REC_COMMIT2, "tx": tx, "epoch": epoch})

    def log_abort2(self, tx: str) -> None:
        """The prepared cross-shard transaction ``tx`` was abandoned:
        no shard wrote a commit2, so its prepare is void everywhere."""
        self.append({"t": REC_ABORT2, "tx": tx})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def rebase(self, path: str) -> None:
        """Move the journal to ``path``: write every record already held
        to the new file, then keep appending there.  Used by
        ``repro-serve --recover-from OLD --journal NEW`` so a recovered
        engine stays durable in a *fresh* file instead of silently
        dropping the ``--journal`` request."""
        fh = open(path, "w", encoding="utf-8")
        for rec in self.records:
            fh.write(_canon(rec) + "\n")
        fh.flush()
        self.close()
        self.path = path
        self._fh = fh

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> "EdgeJournal":
        """Read a journal file back; further appends continue the file.
        A torn final record is cut off the file first (see
        :func:`_parse`), so the next append starts on a fresh line."""
        j = cls(path=None)
        with open(path, "rb") as fh:
            data = fh.read()
        j.records, end = _parse(data)
        if end < len(data):
            with open(path, "r+b") as fh:
                fh.truncate(end)
        j.path = path
        j._fh = open(path, "a", encoding="utf-8")
        return j

    @classmethod
    def from_bytes(cls, data: bytes) -> "EdgeJournal":
        """Rehydrate an in-memory journal from :meth:`to_bytes` output
        (a torn final record is dropped, see :func:`_parse`)."""
        j = cls(path=None)
        j.records, _ = _parse(data)
        return j

    def to_bytes(self) -> bytes:
        """The canonical byte serialization (JSONL, sorted keys)."""
        return "".join(_canon(r) + "\n" for r in self.records).encode("utf-8")

    def prefix_bytes(self, records: int) -> bytes:
        """Canonical bytes of the first ``records`` records — what a
        follower that has received that many records holds locally, and
        what promotion verifies against ``Engine.from_journal``."""
        return "".join(
            _canon(r) + "\n" for r in self.records[:records]
        ).encode("utf-8")

    def committed_prefix_len(self) -> int:
        """Number of leading records up to and including the last record
        that is *not* a dangling intent — i.e. the longest prefix whose
        replay loses no committed batch.  A trailing intent (a batch the
        primary died mid-applying) is excluded: its effects were never
        acknowledged, so failover may drop it."""
        n = len(self.records)
        while n > 0 and self.records[n - 1].get("t") == REC_INTENT:
            n -= 1
        return n

    def digest(self) -> str:
        """sha256 fingerprint of :meth:`to_bytes` — the determinism
        regression tests compare this across same-seed runs."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(self) -> Replay:
        """Distill the record stream into recovery state.

        Intent-without-commit (trailing, or superseded by a retry's
        intent) is an aborted attempt: its effects were rolled back by
        rebuilding the maintainer, so replay ignores it beyond counting.
        """
        out = Replay()
        pending: Optional[Dict] = None
        for rec in self.records:
            t = rec["t"]
            if t == REC_INIT:
                out.initial_edges = _edges_in(rec["edges"])
                out.foreign = {canonical_edge(u, v)
                               for u, v in rec.get("foreign", ())}
            elif t == REC_INTENT:
                if pending is not None:
                    out.aborted_intents += 1
                out.ids.update(rec["ids"])
                pending = rec
            elif t == REC_COMMIT:
                if pending is None:
                    raise ValueError(
                        f"commit for epoch {rec['epoch']} without an intent"
                    )
                out.committed.append(CommittedBatch(
                    kind=pending["kind"],
                    edges=_edges_in(pending["edges"]),
                    ids=tuple(pending["ids"]),
                    epoch=rec["epoch"],
                    attempt=pending.get("attempt", 0),
                ))
                out.last_epoch = rec["epoch"]
                pending = None
            elif t == REC_CHECKPOINT:
                out.checkpoint = Checkpoint(
                    epoch=rec["epoch"],
                    edges=_edges_in(rec["edges"]),
                    cores=tuple((u, k) for u, k in rec["cores"]),
                    order=tuple(rec["order"]),
                    foreign=_edges_in(rec.get("foreign", ())),
                )
                out.foreign = {canonical_edge(u, v)
                               for u, v in rec.get("foreign", ())}
            elif t == REC_PREPARE:
                # cross-shard vote: independent of the local intent/commit
                # stream (a prepare can never interleave inside a local
                # batch — the engine's commit path is synchronous)
                tx = rec["tx"]
                u, v = rec["edge"]
                out.prepared[tx] = PreparedTx(
                    tx=tx, kind=rec["kind"], edge=(u, v), id=rec["id"],
                    shard=rec["shard"], peer=rec["peer"],
                    role=rec.get("role", "apply"),
                )
                out.ids.add(rec["id"])
            elif t == REC_COMMIT2:
                tx = rec["tx"]
                prep = out.prepared.pop(tx, None)
                if prep is None:
                    raise ValueError(
                        f"commit2 for transaction {tx!r} without a prepare"
                    )
                if prep.role == "track":
                    # peer-owner replica: update the foreign adjacency,
                    # no maintainer batch to fold (the coordinator's
                    # journal owns the apply)
                    e = canonical_edge(*prep.edge)
                    if prep.kind == "+":
                        out.foreign.add(e)
                    else:
                        out.foreign.discard(e)
                    out.commit2.add(tx)
                    continue
                # a cross-shard *group* applies as one maintainer batch
                # and publishes one epoch, then writes one commit2 per
                # transaction with that shared epoch — fold those runs
                # back into a single CommittedBatch so restart replays
                # the same batches (and epoch sequence) the live engine
                # committed
                last = out.committed[-1] if out.committed else None
                if (last is not None and last.epoch == rec["epoch"]
                        and last.kind == prep.kind):
                    out.committed[-1] = CommittedBatch(
                        kind=last.kind, edges=last.edges + (prep.edge,),
                        ids=last.ids + (prep.id,), epoch=last.epoch,
                    )
                else:
                    out.committed.append(CommittedBatch(
                        kind=prep.kind, edges=(prep.edge,), ids=(prep.id,),
                        epoch=rec["epoch"],
                    ))
                out.last_epoch = rec["epoch"]
                out.commit2.add(tx)
            elif t == REC_ABORT2:
                tx = rec["tx"]
                if out.prepared.pop(tx, None) is None:
                    raise ValueError(
                        f"abort2 for transaction {tx!r} without a prepare"
                    )
                out.abort2.add(tx)
            elif t == REC_PROMOTE:
                # failover marker: a dangling intent left by the dead
                # primary (had there been one) was truncated before the
                # promote record was written, so ``pending`` is clear
                if pending is not None:
                    raise ValueError(
                        f"promote record at generation {rec['generation']} "
                        "follows an unresolved intent — the failover "
                        "truncation was skipped"
                    )
                out.promotions += 1
                out.generation = rec["generation"]
        if pending is not None:
            out.aborted_intents += 1
        return out

    def final_edges(self) -> List[Edge]:
        """The committed edge set at the end of the journal (sorted) —
        the differential tests' ground truth for the recovered graph."""
        replay = self.replay()
        present: Set[Edge] = set()
        for u, v in replay.initial_edges:
            present.add(canonical_edge(u, v))
        for b in replay.committed:
            for u, v in b.edges:
                e = canonical_edge(u, v)
                if b.kind == "+":
                    present.add(e)
                else:
                    present.discard(e)
        return sorted(present, key=repr)
