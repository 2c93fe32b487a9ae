"""Core decomposition and sequential core maintenance.

* :mod:`repro.core.decomposition` — the BZ peeling algorithm (paper
  Algorithm 1) producing core numbers, a k-order, and the initial remaining
  out-degrees; plus a ParK-style level-synchronous variant.
* :mod:`repro.core.korder` — the k-order bookkeeping shared by all
  order-based algorithms: per-``k`` OM sublists and cross-``k`` comparison.
* :mod:`repro.core.order_insert` / :mod:`repro.core.order_remove` — the
  sequential Simplified-Order algorithms OI (Algorithms 7-9) and OR
  (Algorithm 10).
* :mod:`repro.core.traversal` — the sequential Traversal baselines TI/TR.
* :mod:`repro.core.maintainer` — user-facing facades tying it together,
  including the batch facade the serving engine runs by default.
"""

from repro.core.decomposition import (
    CoreDecomposition,
    core_decomposition,
    core_histogram,
    park_decomposition,
)
from repro.core.history import CoreHistory
from repro.core.korder import KOrder
from repro.core.maintainer import (
    DirectOrderMaintainer,
    OrderMaintainer,
    TraversalMaintainer,
)
from repro.core.queries import (
    all_subcores,
    core_components,
    degeneracy,
    degeneracy_ordering,
    innermost_core,
    k_core_subgraph,
    k_core_vertices,
    k_shell,
    subcore,
)

__all__ = [
    "CoreDecomposition",
    "core_decomposition",
    "core_histogram",
    "park_decomposition",
    "KOrder",
    "CoreHistory",
    "OrderMaintainer",
    "DirectOrderMaintainer",
    "TraversalMaintainer",
    "k_core_vertices",
    "k_core_subgraph",
    "k_shell",
    "innermost_core",
    "subcore",
    "all_subcores",
    "degeneracy",
    "degeneracy_ordering",
    "core_components",
]
