"""Deterministic fault-injection plane.

The serving engine's correctness story (k-order locking, conditional
locks, the ``V+`` search set) is exercised by the rest of the suite only
on *clean* executions.  This module makes failures first-class: a
:class:`FaultPlane` is consulted at every injection point of an
execution backend and deterministically decides whether to inject one
of three faults there.  The simulated machine
(:class:`~repro.parallel.runtime.SimMachine`) and the thread harness
(:class:`~repro.parallel.threads.ThreadMachine`) consult it at every
event a worker yields; the serving engine's direct kernel
(:class:`~repro.core.maintainer.DirectOrderMaintainer`) consults it once
per edge as worker 0's ``tick`` — so it sees crashes and stalls only:

``crash``
    The worker dies on the spot — mid-edge, possibly holding locks.  The
    backend force-releases its locks (the simulated runtime's analogue of
    robust-mutex recovery) and lets the survivors run on; shared state
    may now be arbitrarily corrupted, which is exactly what the serving
    engine's journal/replay layer (:mod:`repro.service.journal`) has to
    survive.

``stall``
    The worker is descheduled for a burst of simulated time (GC pause,
    preemption, page fault).  Stalls perturb timing but never
    correctness — differential tests assert cores are unchanged under
    stall-only schedules.

``acquire-timeout``
    A ``("try", key)`` CAS is forced to fail even if the lock is free
    (lock-service timeout).  The paper's protocol already tolerates
    failed CAS attempts, so timeouts must never change results either.

Determinism
-----------
Decisions are a pure integer hash of ``(seed, worker, n, kind)`` where
``n`` is the worker's own event counter.  Two consequences, both load-
bearing:

* the same seed reproduces the same fault schedule byte-for-byte
  (:meth:`FaultPlane.schedule_bytes` / :meth:`digest` — the determinism
  regression test), and
* the schedule does not depend on the *global* interleaving, so the
  thread backend — where interleavings are genuinely nondeterministic —
  injects the same per-worker faults as the simulator.

The only global state is the crash budget (``max_crashes``), consumed in
arrival order; under threads it is guarded by the plane's mutex.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FaultSpec",
    "FaultPlane",
    "FaultEvent",
    "WorkerCrashed",
    "BatchCrashed",
    "CRASH",
    "STALL",
    "TIMEOUT",
]

CRASH = "crash"
STALL = "stall"
TIMEOUT = "acquire-timeout"

#: event kinds a crash may be injected at (any point that costs time —
#: the worker is "between instructions")
_CRASHABLE = ("tick", "try", "release", "spin")
#: event kinds a stall may be injected at
_STALLABLE = ("tick", "spin")

_MASK = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """SplitMix64-style avalanche over a tuple of ints — a stable,
    platform-independent hash (``hash()`` is salted per process, which
    would break cross-run determinism)."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (p & _MASK)) * 0xBF58476D1CE4E5B9 & _MASK
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK
        h ^= h >> 31
    return h


def _unit(*parts: int) -> float:
    """Deterministic uniform draw in [0, 1) from the hash stream."""
    return _mix(*parts) / float(1 << 64)


class WorkerCrashed(RuntimeError):
    """Injected into a worker generator to kill it mid-operation."""


class BatchCrashed(RuntimeError):
    """A parallel batch lost at least one worker to an injected crash.

    The maintainer's shared state must be considered corrupt: the dead
    worker may have been mid-splice.  Raised by the batch facades so the
    serving engine can discard the state and re-run recovery from the
    journal.  ``report`` carries the partial
    :class:`~repro.parallel.runtime.SimReport` (or
    :class:`~repro.parallel.threads.ThreadReport`, or
    :class:`~repro.core.maintainer.DirectReport`) of the doomed run.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class FaultSpec:
    """Rates and shape of the fault schedule.

    Rates are per *candidate event* (every event for crashes, ``try``
    events for timeouts, ``tick``/``spin`` for stalls) and are evaluated
    independently.  ``max_crashes`` caps total injected crashes — the
    chaos workloads set it to ~10% of the worker pool so every batch
    keeps a quorum of survivors.  ``stall_ticks`` is the length of one
    injected stall in ``spin``-cost units.
    """

    crash_rate: float = 0.0
    stall_rate: float = 0.0
    timeout_rate: float = 0.0
    stall_ticks: int = 8
    max_crashes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("crash_rate", "stall_rate", "timeout_rate"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {r}")
        if self.stall_ticks < 1:
            raise ValueError("stall_ticks must be >= 1")
        if self.max_crashes is not None and self.max_crashes < 0:
            raise ValueError("max_crashes must be >= 0 or None")

    @property
    def active(self) -> bool:
        return bool(self.crash_rate or self.stall_rate or self.timeout_rate)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the plane's schedule."""

    worker: int
    index: int        # the worker's own event counter at injection
    event: str        # the yielded event kind ("tick", "try", ...)
    action: str       # CRASH / STALL / TIMEOUT
    run: int          # which machine run (batch) the fault landed in


class FaultPlane:
    """Seeded decision oracle shared by one engine (or one test).

    The plane is long-lived: per-worker event counters keep advancing
    across batches, so a retried batch sees *fresh* draws — a crashed
    batch does not deterministically crash again on retry.  ``begin_run``
    is called by a machine at the start of each run and bumps the run
    counter used both for schedule attribution and to give each run its
    own hash stream.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        if isinstance(spec, FaultPlane):  # pragma: no cover - defensive
            raise TypeError("FaultPlane given where FaultSpec expected")
        self.spec = spec
        self.seed = seed
        self.events: List[FaultEvent] = []
        self.crashes = 0
        self.stalls = 0
        self.timeouts = 0
        self.run = 0
        self._counters: Dict[int, int] = {}
        self._mutex = threading.Lock()

    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Mark the start of one machine run (one parallel batch)."""
        self.run += 1
        self._counters = {}

    def decide(self, wid: int, kind: str) -> Optional[Tuple[str, int]]:
        """Decision for worker ``wid``'s next event of ``kind``.

        Returns ``None`` (no fault), ``(CRASH, 0)``, ``(STALL, ticks)``
        or ``(TIMEOUT, 0)``.  Thread-safe; deterministic per
        ``(seed, run, wid, per-worker index, kind)``.
        """
        spec = self.spec
        n = self._counters.get(wid, 0)
        self._counters[wid] = n + 1
        base = (self.seed, self.run, wid, n)
        if (
            spec.crash_rate
            and kind in _CRASHABLE
            and _unit(1, *base) < spec.crash_rate
        ):
            with self._mutex:
                budget = (
                    spec.max_crashes is None or self.crashes < spec.max_crashes
                )
                if budget:
                    self.crashes += 1
                    self._record(wid, n, kind, CRASH)
                    return (CRASH, 0)
        if spec.timeout_rate and kind == "try" and _unit(2, *base) < spec.timeout_rate:
            with self._mutex:
                self.timeouts += 1
                self._record(wid, n, kind, TIMEOUT)
            return (TIMEOUT, 0)
        if spec.stall_rate and kind in _STALLABLE and _unit(3, *base) < spec.stall_rate:
            with self._mutex:
                self.stalls += 1
                self._record(wid, n, kind, STALL)
            return (STALL, spec.stall_ticks)
        return None

    def _record(self, wid: int, n: int, kind: str, action: str) -> None:
        self.events.append(
            FaultEvent(worker=wid, index=n, event=kind, action=action, run=self.run)
        )

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {
            "crashes": self.crashes,
            "stalls": self.stalls,
            "timeouts": self.timeouts,
            "events": len(self.events),
        }

    def schedule(self) -> List[Dict[str, object]]:
        """The injected-fault schedule as plain dicts (stable field order)."""
        return [
            {
                "run": e.run,
                "worker": e.worker,
                "index": e.index,
                "event": e.event,
                "action": e.action,
            }
            for e in self.events
        ]

    def schedule_bytes(self) -> bytes:
        """Canonical byte encoding of the schedule — two runs with the
        same seed over the same workload must produce *identical* bytes
        (the determinism regression test diffs these directly)."""
        return b"\n".join(
            json.dumps(row, sort_keys=True, separators=(",", ":")).encode()
            for row in self.schedule()
        )

    def digest(self) -> str:
        """SHA-256 of :meth:`schedule_bytes`."""
        return hashlib.sha256(self.schedule_bytes()).hexdigest()


def as_plane(faults, seed: int = 0) -> Optional[FaultPlane]:
    """Coerce a config value — ``None`` | :class:`FaultSpec` |
    :class:`FaultPlane` — into a plane (or ``None``)."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlane):
        return faults
    if isinstance(faults, FaultSpec):
        return FaultPlane(faults, seed=seed) if faults.active else None
    raise TypeError(f"faults must be FaultSpec or FaultPlane, got {faults!r}")


#: salt separating each shard's derived hash stream (docs/sharding.md)
SHARD_SALT = 0x5AA5D1CE
#: salt for the router's own 2PC crash-window plane
ROUTER_SALT = 0x2FA5E7E1


def derive_plane(faults, member: int, seed: int = 0,
                 salt: int = SHARD_SALT) -> Optional[FaultPlane]:
    """An independently-seeded plane for one member of a sharded engine.

    Each shard worker (and the router itself, with ``ROUTER_SALT``)
    must draw from its *own* deterministic stream: sharing one plane
    would make shard A's injections depend on how many events shard B
    happened to process first — interleaving-dependent, so no longer
    reproducible.  Mixing ``(salt, member)`` into the seed keeps every
    member's schedule a pure function of ``(spec, seed, member)``.

    Accepts the same values as :func:`as_plane`; a ``FaultPlane`` input
    contributes its spec and seed (the per-member plane is always a
    fresh object — planes hold per-run counters that must not be
    shared across processes).
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlane):
        spec, base = faults.spec, faults.seed
    elif isinstance(faults, FaultSpec):
        spec, base = faults, seed
    else:
        raise TypeError(
            f"faults must be FaultSpec or FaultPlane, got {faults!r}"
        )
    if not spec.active:
        return None
    return FaultPlane(spec, seed=base ^ _mix(salt, member))
