"""repro.service — a streaming core-maintenance serving engine.

The library's batch algorithms answer "apply ΔE with P workers"; this
package answers "serve an interleaved stream of updates and queries":

* :class:`Engine` / :class:`EngineConfig` — the serving engine: adaptive
  micro-batching over the sequential OI/OR, snapshot-isolated reads,
  admission control, structured partial-failure reporting, metrics;
* :class:`PendingOps` / :class:`AdaptiveBatcher` — the coalescing /
  cancellation run buffer plus the size/time/pressure cut policy;
* :class:`SnapshotStore` / :class:`SnapshotView` — epoch-versioned core
  views over one dense core array plus a bounded ring of per-epoch
  undo deltas;
* :class:`Request` / :class:`Response` — the request envelope and
  structured results;
* :class:`ServiceMetrics` — counters, queue depths, per-epoch latency
  percentiles and folded batch reports;
* :class:`EdgeJournal` — the write-ahead edge journal + checkpoint
  records behind crash recovery and ``Engine.from_journal`` (see
  ``docs/faults.md``);
* :class:`ShardedEngine` — router + N engine shards with cross-shard
  two-phase commit on the journal and exact epoch-stitched views; the
  ``process`` backend hosts each shard in its own OS process (see
  ``docs/sharding.md``);
* :class:`EpochPublisher` / :class:`SnapshotReader` / :class:`ReaderPool`
  — the wait-free query plane: seqlocked shared-memory epoch snapshots
  served by parallel OS reader processes that never enter the engine
  loop (see ``docs/queryplane.md``).

See ``docs/service.md`` for the architecture tour and the metrics
glossary, and ``repro-serve`` (``python -m repro.service``) for the CLI.
"""

from repro.service.batcher import AdaptiveBatcher, PendingOps
from repro.service.engine import Engine, EngineConfig
from repro.service.journal import EdgeJournal, Replay
from repro.service.metrics import ServiceMetrics, percentile, summarize_latencies
from repro.service.queryplane import EpochPublisher, ReaderPool, SnapshotReader
from repro.service.requests import Request, Response
from repro.service.sharding import LocalShard, RouterCrashed, ShardedEngine
from repro.service.snapshots import SnapshotStore, SnapshotView

__all__ = [
    "Engine",
    "EngineConfig",
    "ShardedEngine",
    "LocalShard",
    "RouterCrashed",
    "EdgeJournal",
    "Replay",
    "PendingOps",
    "AdaptiveBatcher",
    "SnapshotStore",
    "SnapshotView",
    "EpochPublisher",
    "SnapshotReader",
    "ReaderPool",
    "Request",
    "Response",
    "ServiceMetrics",
    "percentile",
    "summarize_latencies",
]
