"""Matching-Edge-Set parallel core maintenance — MI/MR (Jin et al., TPDS'18).

The weaker prior method in the paper's comparison (consistently the
slowest parallel contender in Figure 4).  Structure:

1. **Preprocess** ΔE into a sequence of *matchings*: maximal sets of
   vertex-disjoint edges, built greedily round by round.  Each round's
   construction is a serial scan over the remaining edges.
2. **Round parallelism with barriers**: edges of one matching are dealt to
   workers and processed concurrently; the next round starts only when
   the slowest worker finishes.  Superstep synchronization plus the
   matching constraint (an edge set over few distinct vertices collapses
   to many tiny rounds) is why MI/MR trail JEI/JER.
3. **Within a round**, same-level edges are applied jointly (one
   multi-source Traversal per region per level, see
   :mod:`repro.baselines.joint_traversal`) — but unlike JEI's whole-batch
   level groups, the sharing is confined to one matching round, so the
   floods repeat across rounds.  That, plus the barriers, is why MI/MR
   trail JEI/JER.

As with JEI/JER, state mutation is sequential under per-edge atomicity
and timing comes from the equivalent deterministic barrier schedule.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Set, Tuple

from repro.core.decomposition import core_decomposition
from repro.baselines.joint_traversal import insert_group, remove_group
from repro.graph.dynamic_graph import DynamicGraph
from repro.core.maintainer import BatchResult, validate_batch
from repro.parallel.costs import CostModel
from repro.parallel.runtime import SimReport
from repro.baselines.scheduling import chunk_round_makespan

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["MatchingMaintainer", "greedy_matchings"]

#: serial matching-construction cost per scanned edge per round
_MATCHING_SCAN = 0.5
#: per-edge dispatch overhead inside a round
_DISPATCH_PER_EDGE = 1.5


def greedy_matchings(edges: Sequence[Edge]) -> List[List[Edge]]:
    """Partition edges into maximal vertex-disjoint rounds (greedy)."""
    remaining = list(edges)
    rounds: List[List[Edge]] = []
    while remaining:
        used: Set[Vertex] = set()
        this_round: List[Edge] = []
        leftover: List[Edge] = []
        for u, v in remaining:
            if u in used or v in used:
                leftover.append((u, v))
            else:
                used.add(u)
                used.add(v)
                this_round.append((u, v))
        rounds.append(this_round)
        remaining = leftover
    return rounds


class MatchingMaintainer:
    """MI + MR with ``num_workers`` simulated workers."""

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
    def _run(self, edges: Sequence[Edge], inserting: bool) -> BatchResult:
        validate_batch(self.graph, edges, inserting)
        if inserting:
            for u, v in edges:
                for x in (u, v):
                    if x not in self._core:
                        self.graph.add_vertex(x)
                        self._core[x] = 0
        rounds = greedy_matchings(edges)
        # Further split by core level within a round: MI/MR still cannot
        # process same-core vertices concurrently (both prior methods
        # share the level restriction — paper Section 5.1), so a round's
        # parallel width is bounded by its distinct affected core values.
        round_costs: List[List[float]] = []
        all_stats: list = []
        preprocess = 0.0
        remaining = len(edges)
        for rnd in rounds:
            preprocess += _MATCHING_SCAN * remaining
            remaining -= len(rnd)
            by_level_edges: Dict[int, List[Edge]] = {}
            for u, v in rnd:
                k = min(self._core.get(u, 0), self._core.get(v, 0))
                by_level_edges.setdefault(k, []).append((u, v))
            costs: List[float] = []
            for _k, group in sorted(by_level_edges.items()):
                if inserting:
                    stats = insert_group(self.graph, self._core, group)
                else:
                    stats = remove_group(self.graph, self._core, group)
                costs.append(
                    stats.work * self.costs.adj_scan
                    + _DISPATCH_PER_EDGE * len(group)
                )
                all_stats.append(stats)
            round_costs.append(costs)
        makespan = preprocess + chunk_round_makespan(round_costs, self.num_workers)
        report = SimReport(
            makespan=makespan,
            worker_clocks=[],
            total_work=preprocess + sum(sum(c) for c in round_costs),
        )
        return BatchResult(report=report, stats=all_stats)

    # ------------------------------------------------------------------
    def insert_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """MI: insert a batch via barrier-synchronized matchings."""
        return self._run(edges, inserting=True)

    def remove_edges(self, edges: Sequence[Edge]) -> BatchResult:
        """MR: remove a batch via barrier-synchronized matchings."""
        return self._run(edges, inserting=False)
