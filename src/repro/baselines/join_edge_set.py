"""Join-Edge-Set parallel core maintenance — JEI/JER (Hua et al., TPDS'19).

The strongest prior method in the paper's comparison.  Structure:

1. **Preprocess** the batch ΔE into a *join edge set*: edges grouped by
   ``K = min(core(u), core(v))``.  Modeled cost: one serial pass over ΔE.
2. **Level parallelism**: each core-value group is an indivisible task —
   "vertices with the same core number can only be processed by a single
   worker at the same time" (paper Section 5.1) — assigned to workers
   greedily.  A graph whose affected vertices share one core value (BA)
   therefore runs sequentially no matter how many workers exist.
3. **Within a group**, all edges are applied jointly and repaired with
   multi-source Traversal passes (:mod:`repro.baselines.joint_traversal`)
   — *one* subcore flood per affected region per level instead of one per
   edge.  This is the "avoid repeated computations" gain that makes JEI
   far faster than plain TI even at one worker (without it, a
   reproduction exaggerates OurI's advantage by orders of magnitude on
   flood-prone graphs like road networks).

State mutation is performed sequentially (per-edge atomicity matches the
simulated machine); timing comes from the equivalent deterministic
schedule (:func:`repro.baselines.scheduling.lpt_makespan`).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.core.decomposition import core_decomposition
from repro.baselines.joint_traversal import insert_group, remove_group
from repro.graph.dynamic_graph import DynamicGraph
from repro.core.maintainer import BatchResult, validate_batch
from repro.parallel.costs import CostModel
from repro.parallel.runtime import SimReport
from repro.baselines.scheduling import lpt_makespan

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["JoinEdgeSetMaintainer"]

#: serial preprocessing cost per batch edge (grouping pass)
_PREPROCESS_PER_EDGE = 0.5
#: per-edge dispatch overhead inside a level task
_DISPATCH_PER_EDGE = 1.0


class JoinEdgeSetMaintainer:
    """JEI + JER with ``num_workers`` simulated workers."""

    def __init__(
        self,
        graph: DynamicGraph,
        num_workers: int = 4,
        costs: CostModel | None = None,
    ) -> None:
        self.graph = graph
        self._core: Dict[Vertex, int] = dict(core_decomposition(graph).core)
        self.num_workers = num_workers
        self.costs = costs or CostModel.from_env()

    # ------------------------------------------------------------------
    def core(self, u: Vertex) -> int:
        return self._core[u]

    def cores(self) -> Dict[Vertex, int]:
        return dict(self._core)

    def check(self) -> None:
        fresh = core_decomposition(self.graph).core
        for u in self.graph.vertices():
            assert self._core[u] == fresh[u], (
                f"core[{u!r}]={self._core[u]} != BZ {fresh[u]}"
            )

    # ------------------------------------------------------------------
    def _group_by_level(self, edges: Sequence[Edge]) -> Dict[int, List[Edge]]:
        groups: Dict[int, List[Edge]] = {}
        for u, v in edges:
            ku = self._core.get(u, 0)
            kv = self._core.get(v, 0)
            groups.setdefault(min(ku, kv), []).append((u, v))
        return groups

    def _run(self, edges: Sequence[Edge], inserting: bool) -> BatchResult:
        validate_batch(self.graph, edges, inserting)
        if inserting:
            for u, v in edges:
                for x in (u, v):
                    if x not in self._core:
                        self.graph.add_vertex(x)
                        self._core[x] = 0
        groups = self._group_by_level(edges)
        level_costs: List[float] = []
        all_stats: list = []
        for _k, group in sorted(groups.items()):
            if inserting:
                stats = insert_group(self.graph, self._core, group)
            else:
                stats = remove_group(self.graph, self._core, group)
            # joint-traversal work counts adjacency touches; scale by the
            # cost model's per-touch price so cross-algorithm comparisons
            # respond to cost perturbations consistently
            cost = stats.work * self.costs.adj_scan + _DISPATCH_PER_EDGE * len(group)
            all_stats.append(stats)
            level_costs.append(cost)
        preprocess = _PREPROCESS_PER_EDGE * len(edges)
        makespan = preprocess + lpt_makespan(level_costs, self.num_workers)
        report = SimReport(
            makespan=makespan,
            worker_clocks=[],
            total_work=preprocess + sum(level_costs),
        )
        return BatchResult(report=report, stats=all_stats)

    # ------------------------------------------------------------------
    def insert_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """JEI: insert a batch; parallel only across core levels."""
        return self._run(edges, inserting=True)

    def remove_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """JER: remove a batch; parallel only across core levels."""
        return self._run(edges, inserting=False)
