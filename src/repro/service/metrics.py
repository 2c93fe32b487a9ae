"""Metrics surface of the serving engine.

Everything the engine can report is collected here and exported as plain
dicts (:meth:`ServiceMetrics.as_dict`) so the bench harness and the
``repro-serve`` CLI can render or JSON-dump it without touching engine
internals.  Glossary (see also ``docs/service.md``):

counters
    ``admitted`` — requests accepted past admission control;
    ``rejected`` — refused at the door by backpressure (never admitted);
    ``committed`` — terminal successes (updates applied or netted out,
    queries answered); ``quarantined`` — malformed/duplicate requests
    ended with a structured error; ``timed_out`` — deadline passed before
    commit; ``abandoned`` — the batch crashed under fault injection and
    retries were exhausted; ``coalesced``/``cancelled`` — duplicate-op
    merges and insert/remove annihilations inside a pending run;
    ``in_flight`` — admitted but not yet terminal.  At quiescence::

        admitted == committed + quarantined + timed_out + abandoned

faults
    The crash-recovery block (``docs/faults.md``): ``crashed_batches`` —
    batch attempts lost to injected faults; ``recoveries`` — maintainer
    rebuilds from the write-ahead journal; ``retries`` — re-submissions
    after a recovery; ``retried_ops`` — operations that still committed
    after ≥1 retry; plus the folded injection counters (``crashes``,
    ``stalls_injected``) from every attempt's report.

cuts
    Why each micro-batch was cut: ``size``, ``time``, ``pressure``,
    ``conflict``, ``flush`` (see :mod:`repro.service.batcher`).

epochs
    One row per commit: batch size/kind, the batch's service-time charge
    (``makespan``), commit time and the latency percentiles of the
    updates it carried.

sim
    The folded batch-report totals across all batches: charged
    ``makespan``, ``total_work``, injected-stall ``spin_time``,
    ``lock_failures`` (0: the direct kernel takes no locks) and
    ``batches``.

latency
    Admission→terminal latency percentiles on the service clock, split
    by class (updates vs queries).

clock_unit
    The unit of ``now``, ``latency.*`` and ``epochs[].makespan``: always
    ``"cost"``, the work units the direct kernel charges.  It is not
    wall time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.service.batcher import CUT_REASONS

__all__ = ["ServiceMetrics", "percentile", "summarize_latencies"]


def percentile(sorted_data: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of pre-sorted data."""
    if not sorted_data:
        return 0.0
    if p <= 0:
        return float(sorted_data[0])
    rank = math.ceil(p / 100.0 * len(sorted_data))
    return float(sorted_data[min(len(sorted_data), max(1, rank)) - 1])


def summarize_latencies(data: Sequence[float]) -> Dict[str, float]:
    """count/mean/p50/p90/p99/max summary of a latency sample."""
    if not data:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    s = sorted(data)
    return {
        "count": len(s),
        "mean": sum(s) / len(s),
        "p50": percentile(s, 50),
        "p90": percentile(s, 90),
        "p99": percentile(s, 99),
        "max": float(s[-1]),
    }


class ServiceMetrics:
    """Mutable collector; the engine is the only writer."""

    def __init__(self, ingress_capacity: Optional[int] = None) -> None:
        self.ingress_capacity = ingress_capacity
        self.admitted = 0
        self.rejected = 0
        self.committed = 0
        self.quarantined = 0
        self.timed_out = 0
        self.abandoned = 0
        self.committed_updates = 0
        self.committed_queries = 0
        self.coalesced = 0
        self.cancelled = 0
        self.cuts: Dict[str, int] = {r: 0 for r in CUT_REASONS}
        self.max_queue_depth = 0
        self.query_latencies: List[float] = []
        self.update_latencies: List[float] = []
        self.epoch_log: List[Dict[str, object]] = []
        self.sim: Dict[str, float] = {
            "makespan": 0.0,
            "total_work": 0.0,
            "spin_time": 0.0,
            "lock_failures": 0,
            "batches": 0,
        }
        # sliding-window plane (docs/traffic.md): expiries armed at
        # commit, expiry removes submitted, and backpressure-deferred
        # expiries re-armed for a later attempt
        self.window: Dict[str, int] = {
            "scheduled": 0,
            "fired": 0,
            "rebuffered": 0,
        }
        self.faults: Dict[str, int] = {
            "crashed_batches": 0,
            "recoveries": 0,
            "retries": 0,
            "retried_ops": 0,
            "crashes": 0,
            "stalls_injected": 0,
        }

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return (self.admitted - self.committed - self.quarantined
                - self.timed_out - self.abandoned)

    def note_depth(self, depth: int) -> None:
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def note_latency(self, op: str, latency: Optional[float]) -> None:
        if latency is None:
            return
        if op == "query":
            self.query_latencies.append(latency)
        else:
            self.update_latencies.append(latency)

    def fold_report(self, report) -> None:
        """Accumulate one batch's
        :class:`~repro.core.maintainer.DirectReport` into the totals."""
        self.sim["makespan"] += report.makespan
        self.sim["total_work"] += report.total_work
        self.sim["spin_time"] += report.spin_time
        self.sim["lock_failures"] += report.lock_failures
        self.sim["batches"] += 1
        self.fold_faults(report)

    def fold_faults(self, report) -> None:
        """Accumulate a report's injection counters (also called for
        *crashed* attempts, whose reports never reach :meth:`fold_report`
        because the batch did not commit)."""
        self.faults["crashes"] += report.crashes
        self.faults["stalls_injected"] += report.stalls_injected

    def record_epoch(
        self,
        epoch: int,
        kind: Optional[str],
        batch_size: int,
        makespan: float,
        committed_at: float,
        update_latencies: Sequence[float],
    ) -> None:
        self.epoch_log.append(
            {
                "epoch": epoch,
                "kind": kind,
                "batch_size": batch_size,
                "makespan": makespan,
                "committed_at": committed_at,
                "latency": summarize_latencies(update_latencies),
            }
        )

    # ------------------------------------------------------------------
    def assert_invariant(self) -> None:
        """The quiescence accounting identity checked by CI."""
        assert self.in_flight == 0, (
            f"admitted != committed + quarantined + timed_out + abandoned: "
            f"{self.admitted} != {self.committed} + {self.quarantined} "
            f"+ {self.timed_out} + {self.abandoned}"
        )

    def as_dict(self, pending_depth: int = 0, now: float = 0.0,
                epoch: int = 0, event_now: float = 0.0,
                window_armed: int = 0) -> Dict:
        return {
            "clock_unit": "cost",
            "now": now,
            "event_now": event_now,
            "epoch": epoch,
            "counters": {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "committed": self.committed,
                "quarantined": self.quarantined,
                "timed_out": self.timed_out,
                "abandoned": self.abandoned,
                "committed_updates": self.committed_updates,
                "committed_queries": self.committed_queries,
                "coalesced": self.coalesced,
                "cancelled": self.cancelled,
                "in_flight": self.in_flight,
            },
            "cuts": dict(self.cuts),
            "queues": {
                "pending_depth": pending_depth,
                "max_pending_depth": self.max_queue_depth,
                "ingress_capacity": self.ingress_capacity,
            },
            "latency": {
                "update": summarize_latencies(self.update_latencies),
                "query": summarize_latencies(self.query_latencies),
            },
            "sim": dict(self.sim),
            "window": {**self.window, "armed": window_armed},
            "faults": dict(self.faults),
            "epochs": [dict(e) for e in self.epoch_log],
        }
