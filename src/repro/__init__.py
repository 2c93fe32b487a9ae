"""repro — Parallel Order-Based Core Maintenance in Dynamic Graphs.

A from-scratch Python reproduction of Guo & Sekerinski, *Parallel
Order-Based Core Maintenance in Dynamic Graphs*, ICPP 2023:

* static core decomposition (BZ) with k-order output;
* the sequential Simplified-Order maintenance (OI/OR) on a two-level
  Order-Maintenance list;
* the paper's contribution, Parallel-Order (OurI/OurR), run on a
  discrete-event simulated multicore (or real threads for protocol
  validation) — the paper-reproduction backend;
* the prior-art baselines: sequential Traversal (TI/TR), Join-Edge-Set
  (JEI/JER) and Matching (MI/MR) parallel batch algorithms;
* graph generators, dataset stand-ins, and a benchmark harness
  regenerating every table and figure of the paper's evaluation;
* a streaming serving engine (:mod:`repro.service`): adaptive
  micro-batching over the sequential OI/OR by default (the simulated
  parallel algorithms on request), snapshot-isolated reads
  against committed epochs, admission control, and a metrics surface
  (``repro-serve`` CLI).

Quick start::

    from repro import DynamicGraph, OrderMaintainer, erdos_renyi

    g = DynamicGraph(erdos_renyi(1000, 4000, seed=7))
    m = OrderMaintainer(g)
    m.insert_edge(0, 999)
    print(m.core(0))

See ``examples/`` and DESIGN.md for the full tour.
"""

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi,
    lattice,
    powerlaw_cluster,
    rmat,
    temporal_stream,
)
from repro.graph.datasets import DATASETS, dataset_names, load_dataset
from repro.core.decomposition import (
    CoreDecomposition,
    core_decomposition,
    core_histogram,
    park_decomposition,
)
from repro.core.history import CoreHistory
from repro.core.maintainer import OrderMaintainer, TraversalMaintainer
from repro.core.queries import (
    in_k_core,
    innermost_core,
    k_core_subgraph,
    k_core_vertices,
    k_shell,
    shell_histogram,
    subcore,
)
from repro.core.maintainer import BatchResult, DirectOrderMaintainer
from repro.service import (
    Engine,
    EngineConfig,
    Request,
    Response,
    SnapshotView,
)

__version__ = "1.0.0"

#: names served from the simulated machine and the modules built on it,
#: imported on first access (PEP 562): a serving process on the default
#: direct kernel never loads the simulator.
_LAZY = {
    "ParallelOrderMaintainer": "repro.parallel.batch",
    "CostModel": "repro.parallel.costs",
    "SimMachine": "repro.parallel.runtime",
    "SimReport": "repro.parallel.runtime",
    "SimDeadlockError": "repro.parallel.runtime",
    "JoinEdgeSetMaintainer": "repro.baselines.join_edge_set",
    "MatchingMaintainer": "repro.baselines.matching",
    "ThreadedOrderMaintainer": "repro.parallel.threads",
    "WeightedDynamicGraph": "repro.weighted",
    "WeightedCoreMaintainer": "repro.weighted",
    "weighted_core_decomposition": "repro.weighted",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "DynamicGraph",
    "erdos_renyi",
    "barabasi_albert",
    "rmat",
    "lattice",
    "powerlaw_cluster",
    "temporal_stream",
    "DATASETS",
    "dataset_names",
    "load_dataset",
    "CoreDecomposition",
    "core_decomposition",
    "core_histogram",
    "park_decomposition",
    "OrderMaintainer",
    "DirectOrderMaintainer",
    "CoreHistory",
    "TraversalMaintainer",
    "k_core_vertices",
    "k_core_subgraph",
    "k_shell",
    "in_k_core",
    "shell_histogram",
    "innermost_core",
    "subcore",
    "ParallelOrderMaintainer",
    "BatchResult",
    "CostModel",
    "SimMachine",
    "SimReport",
    "SimDeadlockError",
    "JoinEdgeSetMaintainer",
    "MatchingMaintainer",
    "ThreadedOrderMaintainer",
    "Engine",
    "EngineConfig",
    "Request",
    "Response",
    "SnapshotView",
    "WeightedDynamicGraph",
    "WeightedCoreMaintainer",
    "weighted_core_decomposition",
    "__version__",
]
