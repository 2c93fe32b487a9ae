"""Scheduling-policy tests: plan mechanics, schedule-independence of the
final cores, per-wave contention metrics, and race-detector cleanliness
of the scheduled paths."""

from __future__ import annotations

import random

import pytest

from repro.analysis import RaceDetector
from repro.baselines.scheduling import lpt_assign, lpt_makespan
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.parallel.batch import ParallelOrderMaintainer, partition_batch
from repro.parallel.scheduling import (
    POLICIES,
    ConflictAwarePolicy,
    FifoPolicy,
    LptPolicy,
    chunk_contiguous,
    get_policy,
)
from repro.parallel.threads import ThreadedOrderMaintainer

from tests.conftest import (
    assert_cores_match_bz,
    small_graph_families,
    split_edges,
)


def canon(edges):
    return sorted(tuple(sorted(e)) for e in edges)


# ----------------------------------------------------------------------
# plan mechanics
# ----------------------------------------------------------------------
class TestPolicyRegistry:
    def test_names(self):
        assert set(POLICIES) == {"fifo", "lpt", "conflict-aware"}

    def test_get_policy_resolves_names_and_instances(self):
        assert isinstance(get_policy("fifo"), FifoPolicy)
        assert isinstance(get_policy("conflict-aware"), ConflictAwarePolicy)
        p = LptPolicy()
        assert get_policy(p) is p

    def test_get_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            get_policy("mystery")

    def test_partition_batch_is_chunk_contiguous(self):
        # long-standing import surface kept alive
        assert partition_batch is chunk_contiguous


class TestChunkContiguous:
    def test_near_equal_chunks(self):
        chunks = chunk_contiguous(list(range(10)), 4)
        assert [len(c) for c in chunks] == [3, 3, 2, 2]
        assert [x for c in chunks for x in c] == list(range(10))

    def test_empty_chunks_dropped(self):
        assert chunk_contiguous([1, 2], 5) == [[1], [2]]

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            chunk_contiguous([1], 0)


class TestPlans:
    EDGES = [(0, 1), (0, 2), (0, 3), (4, 5), (6, 7), (8, 9)]

    def test_fifo_matches_partition(self):
        plan = FifoPolicy().plan(self.EDGES, 3)
        assert plan.assignments == partition_batch(self.EDGES, 3)
        assert plan.waves is None
        assert plan.policy == "fifo"

    def test_every_policy_preserves_the_batch(self):
        for name in POLICIES:
            plan = get_policy(name).plan(self.EDGES, 3)
            assert canon(plan.all_edges()) == canon(self.EDGES), name

    def test_conflict_aware_separates_shared_endpoints(self):
        # Without state, footprints are the endpoints: the three edges at
        # vertex 0 must land in three distinct waves, and a disjoint edge
        # shares wave 0 with one of them.
        plan = ConflictAwarePolicy().plan(self.EDGES, 4)
        wave_of = {}
        for chunk, waves in zip(plan.assignments, plan.waves):
            for e, w in zip(chunk, waves):
                wave_of[tuple(sorted(e))] = w
        star = {wave_of[(0, 1)], wave_of[(0, 2)], wave_of[(0, 3)]}
        assert len(star) == 3
        assert plan.num_waves >= 3
        assert wave_of[(4, 5)] == 0
        assert plan.conflicts > 0

    def test_conflict_aware_empty_batch(self):
        plan = ConflictAwarePolicy().plan([], 4)
        assert plan.assignments == []

    def test_wave_lists_parallel_assignments(self):
        plan = ConflictAwarePolicy().plan(self.EDGES, 2)
        assert len(plan.waves) == len(plan.assignments)
        for chunk, waves in zip(plan.assignments, plan.waves):
            assert len(chunk) == len(waves)
            assert waves == sorted(waves)  # waves execute in index order

    def test_workers_validation(self):
        for name in ("lpt", "conflict-aware"):
            with pytest.raises(ValueError):
                get_policy(name).plan(self.EDGES, 0)


class TestLptAssign:
    def test_assignment_covers_all_tasks(self):
        costs = [5.0, 3.0, 3.0, 2.0, 1.0]
        groups = lpt_assign(costs, 2)
        assert sorted(i for g in groups for i in g) == list(range(5))

    def test_makespan_agrees_with_assignment(self):
        costs = [7.0, 5.0, 4.0, 3.0, 1.0]
        groups = lpt_assign(costs, 3)
        loads = [sum(costs[i] for i in g) for g in groups]
        assert lpt_makespan(costs, 3) == max(loads)

    def test_deterministic(self):
        costs = [1.0] * 6
        assert lpt_assign(costs, 3) == lpt_assign(costs, 3)


# ----------------------------------------------------------------------
# schedule independence: final cores never depend on the policy
# ----------------------------------------------------------------------
def _policy_runs(base, batch, inserting, workers=4):
    for name in POLICIES:
        m = ParallelOrderMaintainer(
            DynamicGraph(base), num_workers=workers, policy=name
        )
        if inserting:
            m.insert_edges(batch)
        else:
            m.remove_edges(batch)
        yield name, m


@pytest.mark.parametrize("name,edges", small_graph_families(seed=11))
def test_insert_schedule_independent(name, edges):
    base, tail = split_edges(edges)
    for policy, m in _policy_runs(base, tail, inserting=True):
        assert_cores_match_bz(m)
        m.check()


@pytest.mark.parametrize("name,edges", small_graph_families(seed=23))
def test_remove_schedule_independent(name, edges):
    rng = random.Random(name)
    batch = rng.sample(edges, max(1, len(edges) // 4))
    for policy, m in _policy_runs(edges, batch, inserting=False):
        assert_cores_match_bz(m)
        m.check()


def test_powerlaw_hub_batch_insert_and_remove():
    """The contended regime the scheduler exists for: hub-incident edges."""
    edges = barabasi_albert(80, 4, seed=7)
    base, tail = split_edges(edges, frac=4)
    for policy, m in _policy_runs(base, tail, inserting=True, workers=8):
        assert_cores_match_bz(m)
    rng = random.Random(99)
    batch = rng.sample(edges, len(edges) // 5)
    for policy, m in _policy_runs(edges, batch, inserting=False, workers=8):
        assert_cores_match_bz(m)


def test_random_schedule_stress_conflict_aware():
    """Conflict-aware order under the random (adversarial) machine
    schedule still converges to the ground truth."""
    edges = erdos_renyi(35, 90, seed=5)
    base, tail = split_edges(edges)
    for seed in range(3):
        m = ParallelOrderMaintainer(
            DynamicGraph(base),
            num_workers=4,
            schedule="random",
            seed=seed,
            policy="conflict-aware",
        )
        m.insert_edges(tail)
        assert_cores_match_bz(m)


# ----------------------------------------------------------------------
# wave metrics and accounting
# ----------------------------------------------------------------------
def _hub_batch():
    edges = barabasi_albert(60, 3, seed=13)
    base, tail = split_edges(edges, frac=4)
    return base, tail


class TestWaveMetrics:
    def test_fifo_reports_no_waves(self):
        base, tail = _hub_batch()
        m = ParallelOrderMaintainer(DynamicGraph(base), num_workers=4)
        res = m.insert_edges(tail)
        assert res.report.wave_contention == {}
        assert res.plan.policy == "fifo"

    def test_conflict_aware_reports_waves(self):
        base, tail = _hub_batch()
        m = ParallelOrderMaintainer(
            DynamicGraph(base), num_workers=4, policy="conflict-aware"
        )
        res = m.insert_edges(tail)
        wc = res.report.wave_contention
        assert wc, "expected per-wave counters"
        assert set(wc) <= set(range(res.plan.num_waves))
        for stats in wc.values():
            assert set(stats) == {
                "lock_acquires", "lock_failures", "contended_time", "spin_time"
            }
        # wave-attributed lock traffic never exceeds the global counters
        assert sum(s["lock_acquires"] for s in wc.values()) <= res.report.lock_acquires
        assert sum(s["lock_failures"] for s in wc.values()) <= res.report.lock_failures

    def test_accounting_invariant_with_waves(self):
        base, tail = _hub_batch()
        m = ParallelOrderMaintainer(
            DynamicGraph(base), num_workers=4, policy="conflict-aware"
        )
        rep = m.insert_edges(tail).report
        assert rep.total_work + rep.spin_time + rep.contended_time == pytest.approx(
            sum(rep.worker_clocks)
        )

    def test_batch_result_exposes_plan(self):
        base, tail = _hub_batch()
        m = ParallelOrderMaintainer(
            DynamicGraph(base), num_workers=4, policy="lpt"
        )
        res = m.insert_edges(tail)
        assert res.plan.policy == "lpt"
        assert res.plan.est_costs


# ----------------------------------------------------------------------
# plumbing: the threaded maintainer accepts the policy
# ----------------------------------------------------------------------
def test_threaded_maintainer_policy():
    edges = erdos_renyi(30, 70, seed=8)
    base, tail = split_edges(edges)
    tm = ThreadedOrderMaintainer(
        DynamicGraph(base), num_workers=4, policy="conflict-aware"
    )
    tm.insert_edges(tail)
    assert_cores_match_bz(tm)


# ----------------------------------------------------------------------
# race detector over the scheduled paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("inserting", [True, False])
def test_race_detector_clean_under_conflict_aware(inserting):
    edges = barabasi_albert(50, 3, seed=21)
    base, tail = split_edges(edges, frac=4)
    det = RaceDetector()
    if inserting:
        graph, batch = DynamicGraph(base), tail
    else:
        graph = DynamicGraph(edges)
        batch = random.Random(4).sample(edges, len(edges) // 5)
    m = ParallelOrderMaintainer(
        graph,
        num_workers=4,
        schedule="random",
        seed=3,
        policy="conflict-aware",
        detector=det,
    )
    if inserting:
        m.insert_edges(batch)
    else:
        m.remove_edges(batch)
    rep = det.report()
    assert rep.ok, rep.format()
    assert_cores_match_bz(m)
