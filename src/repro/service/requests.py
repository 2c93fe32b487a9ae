"""Request/response envelope of the serving engine.

Every interaction with :class:`repro.service.engine.Engine` is a
:class:`Request` in and one or more :class:`Response` objects out.  The
engine never raises for bad input — malformed, duplicate, rejected and
late requests all come back as structured responses so a serving loop can
keep draining its stream (the ISSUE's "partial-failure report instead of
an exception escaping the engine").

Lifecycle
---------
An update request is either **rejected** at the door (ingress queue full,
it was never admitted), or admitted and then finished in exactly one of
four terminal states: **committed** (applied in some epoch, or netted
out by a cancelling opposite operation), **quarantined** (malformed or
duplicate — structured error attached), **timed_out** (its deadline
passed before its micro-batch was cut), or **abandoned** (its batch
crashed under fault injection and every retry — after engine recovery
from the write-ahead journal — crashed too; see ``docs/faults.md``).  A
batch that commits after one or more crash/recover/retry rounds still
ends **committed** (with ``detail="retried:N"``), so abandonment is
reserved for retries-exhausted.  A query is admitted and answered
immediately against the last committed epoch, so its only terminal
states are committed / quarantined / timed_out.  That yields the
accounting invariant checked by CI::

    admitted == committed + quarantined + timed_out + abandoned
                                                         (at quiescence)

Deadlines are *absolute service-clock times* in cost units (the engine
clock advances by ingest/query costs and batch charges, see
:mod:`repro.service.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple

Vertex = Hashable

__all__ = [
    "Request",
    "Response",
    "STATUS_PENDING",
    "STATUS_COMMITTED",
    "STATUS_QUARANTINED",
    "STATUS_REJECTED",
    "STATUS_TIMED_OUT",
    "STATUS_ABANDONED",
    "E_SELF_LOOP",
    "E_DUPLICATE_ID",
    "E_EDGE_EXISTS",
    "E_EDGE_MISSING",
    "E_UNKNOWN_QUERY",
    "E_UNKNOWN_VERTEX",
    "E_BACKPRESSURE",
    "E_DEADLINE",
    "E_BATCH_FAILED",
    "E_BAD_REQUEST",
    "E_WORKER_CRASH",
    "E_RETRIES_EXHAUSTED",
    "E_REPLICA_UNREADY",
    "E_PRIMARY_DOWN",
    "E_EPOCH_TRUNCATED",
    "E_EPOCH_UNAVAILABLE",
]

# terminal + transient statuses
STATUS_PENDING = "pending"          # admitted update, waiting for its batch
STATUS_COMMITTED = "committed"      # applied (or answered, for queries)
STATUS_QUARANTINED = "quarantined"  # malformed/duplicate, never applied
STATUS_REJECTED = "rejected"        # backpressure: never admitted
STATUS_TIMED_OUT = "timed_out"      # deadline passed before commit
STATUS_ABANDONED = "abandoned"      # batch crashed; retries exhausted

# structured error codes
E_SELF_LOOP = "self-loop"
E_DUPLICATE_ID = "duplicate-id"
E_EDGE_EXISTS = "edge-exists"
E_EDGE_MISSING = "edge-missing"
E_UNKNOWN_QUERY = "unknown-query"
E_UNKNOWN_VERTEX = "unknown-vertex"
E_BACKPRESSURE = "backpressure"
E_DEADLINE = "deadline-exceeded"
E_BATCH_FAILED = "batch-failed"
E_BAD_REQUEST = "bad-request"
E_WORKER_CRASH = "worker-crash"
E_RETRIES_EXHAUSTED = "retries-exhausted"
# replication-plane codes (docs/replication.md)
E_REPLICA_UNREADY = "replica-unready"   # follower has no init record yet
E_PRIMARY_DOWN = "primary-down"         # primary dead, no promotable follower
# query-plane refusals (docs/queryplane.md): a pinned epoch the wait-free
# buffers can no longer answer gets a structured refusal, never a stale
# or torn answer
E_EPOCH_TRUNCATED = "epoch-truncated"      # pin below the published min_epoch
E_EPOCH_UNAVAILABLE = "epoch-unavailable"  # pin valid but not buffered


@dataclass(frozen=True)
class Request:
    """One item of the interleaved insert/remove/query stream.

    ``op`` is ``"insert"``/``"remove"`` (with ``u``, ``v``) or ``"query"``
    (with ``kind`` and positional ``args``).  ``id`` must be unique per
    engine; leave it ``None`` to have the engine assign a sequence id.
    ``deadline`` is an absolute service-clock time; ``None`` means no bound.
    """

    op: str
    u: Optional[Vertex] = None
    v: Optional[Vertex] = None
    kind: Optional[str] = None
    args: Tuple = ()
    id: Optional[str] = None
    deadline: Optional[float] = None


@dataclass
class Response:
    """Outcome (possibly interim) of one request.

    ``error`` is ``{"code": ..., "message": ...}`` for quarantined /
    rejected / timed-out responses.  ``epoch`` is the epoch the request
    committed in (for queries: the epoch it was answered against).
    ``latency`` is service-clock time from admission to the terminal state.
    ``detail`` carries coalescing notes (``"coalesced"``, ``"cancelled"``).

    The two ``replica_*`` fields are the read-replica staleness contract
    (``docs/replication.md``): a query answered by a
    :class:`~repro.replication.FollowerEngine` carries the epoch its
    replica had applied (``replica_epoch``) and how many primary journal
    records it had not yet replayed at answer time
    (``replica_lag_records``).  Both stay ``None`` on primary answers.

    The two ``snapshot_*``/``staleness_*`` fields are the wait-free
    query plane's bounded-staleness contract (``docs/queryplane.md``):
    an answer served from the shared-memory buffers carries the epoch of
    the buffer it read (``snapshot_epoch``) and how many epochs the
    freshest published buffer was ahead at answer time
    (``staleness_epochs``, 0 for an up-to-date read).  Both stay
    ``None`` on the in-engine read path.
    """

    id: str
    op: str
    status: str
    value: Any = None
    error: Optional[Dict[str, str]] = None
    epoch: Optional[int] = None
    latency: Optional[float] = None
    detail: Optional[str] = None
    replica_epoch: Optional[int] = None
    replica_lag_records: Optional[int] = None
    snapshot_epoch: Optional[int] = None
    staleness_epochs: Optional[int] = None

    @property
    def ok(self) -> bool:
        """True while the request is pending or ended committed."""
        return self.status in (STATUS_PENDING, STATUS_COMMITTED)

    @property
    def terminal(self) -> bool:
        return self.status != STATUS_PENDING


def make_error(code: str, message: str) -> Dict[str, str]:
    """The structured error payload attached to failure responses."""
    return {"code": code, "message": message}
