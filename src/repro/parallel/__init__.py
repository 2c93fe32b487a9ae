"""Parallel core maintenance: the paper's contribution (OurI / OurR).

Because CPython's GIL prevents genuine shared-memory speedups (the
reproduction gate called out in DESIGN.md), the "multicore machine" here is
a **discrete-event simulator** (:mod:`repro.parallel.runtime`): worker
coroutines yield timed events (compute ticks, lock attempts, releases) to a
conservative scheduler that advances whichever worker has the smallest
local clock.  Lock contention, blocking chains, spin-waiting and the
resulting makespan are modeled explicitly — precisely the quantities the
paper's evaluation is about — while every shared-state mutation stays
step-atomic and therefore analyzable.

The same worker generators can also be driven by real threads
(:mod:`repro.parallel.threads`) to validate the synchronization protocol
under genuine preemption, and the sharded serving engine escapes the GIL
entirely by hosting shard engines in real OS processes
(:mod:`repro.parallel.procs`) that talk to the router over pipes.
:mod:`repro.parallel.hindex` is a from-scratch H-index core oracle that
shares no code with the order-based maintainers.

Modules
-------
* :mod:`repro.parallel.costs`    — the work-unit cost model
* :mod:`repro.parallel.runtime`  — the simulated machine and lock primitives
* :mod:`repro.core.pqueue`       — version-stamped priority queue (Appendix E)
* :mod:`repro.parallel.scheduling` — conflict-aware batch scheduling policies
* :mod:`repro.parallel.parallel_insert` — OurI (Algorithm 5)
* :mod:`repro.parallel.parallel_remove` — OurR (Algorithm 6)
* :mod:`repro.parallel.batch`    — Parallel-InsertEdges / -RemoveEdges (Algorithm 3)
* :mod:`repro.parallel.hindex`   — synchronous H-index refinement (test oracle)
* :mod:`repro.parallel.procs`    — process-backend shard workers
"""

import importlib

#: public name -> defining module.  Resolved on first attribute access
#: (PEP 562), so importing one submodule — ``repro.parallel.costs`` for
#: the cost model, ``repro.parallel.hindex`` for the core oracle —
#: does not load the simulated machine behind the others.
_EXPORTS = {
    "CostModel": "repro.parallel.costs",
    "SimMachine": "repro.parallel.runtime",
    "SimReport": "repro.parallel.runtime",
    "SimDeadlockError": "repro.parallel.runtime",
    "ParallelOrderMaintainer": "repro.parallel.batch",
    "h_index": "repro.parallel.hindex",
    "refine_cores": "repro.parallel.hindex",
    "POLICIES": "repro.parallel.scheduling",
    "ConflictAwarePolicy": "repro.parallel.scheduling",
    "FifoPolicy": "repro.parallel.scheduling",
    "LptPolicy": "repro.parallel.scheduling",
    "Schedule": "repro.parallel.scheduling",
    "SchedulingPolicy": "repro.parallel.scheduling",
    "get_policy": "repro.parallel.scheduling",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
