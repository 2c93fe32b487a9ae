"""Deterministic fault injection + crash-recovery support.

``repro.faults`` is the failure plane of the reproduction: a seeded
:class:`FaultPlane` injects ``crash`` / ``stall`` / ``acquire-timeout``
events into the execution backends, and :class:`BatchCrashed` is the
signal the serving engine's WAL/replay layer recovers from.  See
``docs/faults.md`` for the taxonomy and the recovery protocol.
"""

from repro.faults.plane import (
    CRASH,
    STALL,
    TIMEOUT,
    BatchCrashed,
    FaultEvent,
    FaultPlane,
    FaultSpec,
    ROUTER_SALT,
    SHARD_SALT,
    WorkerCrashed,
    as_plane,
    derive_plane,
)

__all__ = [
    "CRASH",
    "STALL",
    "TIMEOUT",
    "BatchCrashed",
    "FaultEvent",
    "FaultPlane",
    "FaultSpec",
    "ROUTER_SALT",
    "SHARD_SALT",
    "WorkerCrashed",
    "as_plane",
    "derive_plane",
]
