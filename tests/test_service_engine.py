"""Tests for the serving engine (repro.service.engine): admission
control, quarantine, deadlines, adaptive cuts, metrics accounting, and
the snapshot-isolation acceptance criterion."""

import gc

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.bench.reporting import render_service_metrics
from repro.core.maintainer import DIRECT_UNIT, DirectOrderMaintainer
from repro.faults.plane import BatchCrashed, FaultPlane, FaultSpec
from repro.parallel.batch import BatchResult
from repro.service import Engine, EngineConfig, Request


def triangle():
    return DynamicGraph([(0, 1), (1, 2), (0, 2)])


def invariant(metrics):
    c = metrics["counters"]
    return c["admitted"] == c["committed"] + c["quarantined"] + c["timed_out"]


class TestQuarantine:
    def test_self_loop(self):
        eng = Engine(triangle())
        r = eng.insert(4, 4)
        assert r.status == "quarantined" and r.error["code"] == "self-loop"

    def test_insert_existing_and_remove_missing(self):
        eng = Engine(triangle())
        r = eng.insert(0, 1)
        assert r.status == "quarantined" and r.error["code"] == "edge-exists"
        r = eng.remove(5, 6)
        assert r.status == "quarantined" and r.error["code"] == "edge-missing"

    def test_duplicate_request_id(self):
        eng = Engine(triangle())
        assert eng.insert(0, 3, id="x").status == "pending"
        r = eng.insert(1, 3, id="x")
        assert r.status == "quarantined" and r.error["code"] == "duplicate-id"

    def test_unknown_query_kind_and_vertex(self):
        eng = Engine(triangle())
        r = eng.query("frobnicate")
        assert r.status == "quarantined" and r.error["code"] == "unknown-query"
        r = eng.query("core", 99)
        assert r.status == "quarantined" and r.error["code"] == "unknown-vertex"

    def test_bad_op_and_bad_args(self):
        eng = Engine(triangle())
        assert eng.submit(Request("frob")).error["code"] == "bad-request"
        r = eng.query("core")  # missing argument
        assert r.status == "quarantined" and r.error["code"] == "bad-request"
        assert invariant(eng.metrics())


class TestAdmissionControl:
    def test_backpressure_rejects_without_admitting(self):
        eng = Engine(DynamicGraph(), max_pending=2, max_batch=100)
        assert eng.insert(0, 1).status == "pending"
        assert eng.insert(1, 2).status == "pending"
        r = eng.insert(2, 3)
        assert r.status == "rejected" and r.error["code"] == "backpressure"
        m = eng.metrics()["counters"]
        assert m["rejected"] == 1 and m["admitted"] == 2
        # draining frees capacity
        eng.flush()
        assert eng.insert(2, 3).status == "pending"

    def test_queries_bypass_backpressure(self):
        eng = Engine(triangle(), max_pending=1, max_batch=100)
        eng.insert(0, 3)
        assert eng.query("degeneracy").status == "committed"


class TestDeadlines:
    def test_expired_at_admission(self):
        eng = Engine(triangle(), ingest_cost=1.0)
        eng.insert(0, 3)  # advances the clock
        r = eng.insert(1, 3, deadline=0.5)
        assert r.status == "timed_out" and r.error["code"] == "deadline-exceeded"

    def test_expired_before_cut_is_partial_failure(self):
        eng = Engine(triangle(), max_batch=100, ingest_cost=10.0)
        # deadline 15 survives its own admission (now=10) but the clock
        # is at 20 by the time the batch is cut
        eng.insert(0, 3, id="late", timeout=15.0)
        eng.insert(1, 3, id="ok")
        done = {r.id: r for r in eng.flush()}
        assert done["late"].status == "timed_out"
        assert done["ok"].status == "committed"
        # the timed-out op was never applied
        assert not eng.graph.has_edge(0, 3)
        assert eng.graph.has_edge(1, 3)
        assert invariant(eng.metrics())

    def test_query_deadline(self):
        eng = Engine(triangle(), query_cost=5.0)
        assert eng.query("degeneracy", deadline=1.0).status == "timed_out"
        assert eng.query("degeneracy", timeout=50.0).status == "committed"


class TestCoalescing:
    def test_duplicate_insert_coalesces_both_commit(self):
        eng = Engine(triangle(), max_batch=100)
        a = eng.insert(0, 3, id="a")
        b = eng.insert(3, 0, id="b")  # same canonical edge
        assert a.status == "pending" and b.status == "pending"
        assert b.detail == "coalesced"
        assert eng.pending_ops() == 1
        done = {r.id: r.status for r in eng.flush()}
        assert done == {"a": "committed", "b": "committed"}
        assert eng.metrics()["counters"]["coalesced"] == 1

    def test_opposite_op_cancels_pair(self):
        eng = Engine(triangle(), max_batch=100)
        eng.insert(0, 3, id="i")
        r = eng.remove(3, 0, id="r")
        assert r.status == "committed" and r.detail == "cancelled"
        assert eng.pending_ops() == 0
        partner = {x.id: x for x in eng.take_completed()}
        assert partner["i"].status == "committed"
        assert partner["i"].detail == "cancelled"
        assert not eng.graph.has_edge(0, 3)
        assert invariant(eng.metrics())


class TestAdaptiveCuts:
    def test_size_cut(self):
        eng = Engine(DynamicGraph(), max_batch=3)
        eng.insert(0, 1), eng.insert(1, 2), eng.insert(2, 3)
        assert eng.pending_ops() == 0
        assert eng.graph.num_edges == 3
        assert eng.metrics()["cuts"]["size"] == 1

    def test_conflict_cut(self):
        eng = Engine(triangle(), max_batch=100)
        eng.insert(0, 3)
        eng.remove(0, 1)  # opposite kind, fresh edge -> cuts the insert run
        assert eng.graph.has_edge(0, 3)
        assert eng.pending_ops() == 1
        assert eng.metrics()["cuts"]["conflict"] == 1

    def test_time_cut(self):
        eng = Engine(DynamicGraph(), max_batch=100, max_delay=15.0,
                     ingest_cost=10.0)
        eng.insert(0, 1)                  # queued at now=10
        eng.insert(1, 2)
        assert eng.pending_ops() == 2     # age 10, under the bound
        eng.insert(2, 3)                  # age 20 >= 15 -> time cut fires
        assert eng.pending_ops() == 0
        assert eng.metrics()["cuts"]["time"] == 1

    def test_pressure_cut_bounds_staleness(self):
        eng = Engine(triangle(), max_batch=100, query_pressure=3)
        eng.insert(0, 3)
        assert eng.query("degeneracy").epoch == 0
        assert eng.query("degeneracy").epoch == 0
        third = eng.query("degeneracy")    # hits the pressure bound
        assert third.epoch == 0            # answered before the cut
        assert eng.pending_ops() == 0
        assert eng.metrics()["cuts"]["pressure"] == 1
        assert eng.query("core", 3).epoch == 1


class TestSnapshotIsolation:
    def test_query_mid_epoch_returns_previous_epoch_bounded_latency(self):
        """Acceptance criterion: a query issued while a long-running batch
        is pending answers with the previous epoch's values and bounded
        (query-cost-only) latency — it never blocks on the batch."""
        base = erdos_renyi(80, 200, seed=3)
        eng = Engine(DynamicGraph(base), max_batch=10_000, query_cost=5.0)
        before = eng.cores()
        # inject a long-running batch: hundreds of pending insertions
        pending = [
            (u, v)
            for u in range(80)
            for v in range(u + 1, 80)
            if not eng.graph.has_edge(u, v)
        ][:400]
        for u, v in pending:
            eng.insert(u, v)
        assert eng.pending_ops() == 400
        t0 = eng.now
        r = eng.query("core", 0)
        # bounded latency: exactly the query cost, independent of the batch
        assert r.latency == 5.0
        assert eng.now - t0 == 5.0
        # correct pre-batch answer at the committed epoch
        assert r.epoch == 0 and r.value == before[0]
        assert eng.query("cores").value == before
        # the flush is what pays the makespan, not the queries
        eng.flush()
        makespan = eng.metrics()["sim"]["makespan"]
        assert makespan > 100 * 5.0
        assert eng.epoch == 1
        after = eng.query("core", 0)
        assert after.epoch == 1 and after.value >= before[0]

    def test_old_views_stay_answerable(self):
        eng = Engine(triangle(), max_batch=1)
        eng.insert(0, 3)
        eng.insert(1, 3)
        eng.insert(2, 3)
        assert eng.epoch == 3
        assert eng.view(0).core(3) is None
        assert eng.view(1).core(3) == 1
        assert eng.view(3).core(3) == 3


class TestEngineLifecycle:
    def test_check_and_invariant_after_mixed_run(self):
        eng = Engine(triangle(), max_batch=4)
        eng.insert(0, 3)
        eng.remove(0, 1)
        eng.insert(0, 1)
        eng.query("degeneracy")
        eng.insert(4, 5)
        eng.check()  # flush + maintainer + history + accounting invariants
        assert invariant(eng.metrics())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_batch=0)
        with pytest.raises(ValueError):
            EngineConfig(max_pending=0)
        with pytest.raises(ValueError):
            EngineConfig(ingest_cost=-1.0)

    def test_metrics_epoch_log_and_latency(self):
        eng = Engine(DynamicGraph(), max_batch=2)
        eng.insert(0, 1)
        eng.insert(1, 2)
        m = eng.metrics()
        assert len(m["epochs"]) == 1
        e = m["epochs"][0]
        assert e["kind"] == "+" and e["batch_size"] == 2
        assert e["latency"]["count"] == 2
        assert m["latency"]["update"]["count"] == 2
        assert m["latency"]["update"]["max"] > 0


class TestBackends:
    def test_direct_is_the_default_and_thread_is_gone(self):
        assert EngineConfig().backend == "direct"
        assert isinstance(Engine(triangle()).maintainer,
                          DirectOrderMaintainer)
        for gone in ("thread", "sim"):
            with pytest.raises(ValueError, match="unknown backend"):
                EngineConfig(backend=gone)
        with pytest.raises(ValueError, match="ShardedEngine"):
            Engine(triangle(), backend="process")

    def test_direct_keeps_the_policy_name_and_a_serial_plan(self):
        m = Engine(triangle()).maintainer
        assert m.policy.name == "fifo"
        plan = m.policy.plan([(0, 3), (1, 3)], 4)
        assert plan.assignments == [[(0, 3), (1, 3)]]

    def test_metrics_name_the_clock_unit(self):
        eng = Engine(triangle(), max_batch=2)
        eng.insert(0, 3)
        eng.insert(1, 3)
        m = eng.metrics()
        assert m["clock_unit"] == "cost"
        text = render_service_metrics(m)
        assert "(cost units)" in text.splitlines()[0]
        assert "update latency (cost units)" in text

    def test_direct_charge_follows_vplus_and_vstar(self):
        eng = Engine(triangle(), max_batch=3)
        for u in (0, 1, 2):
            eng.insert(u, 3)
        e = eng.metrics()["epochs"][0]
        m = DirectOrderMaintainer(triangle())
        result = m.insert_edges([(0, 3), (1, 3), (2, 3)])
        want = sum(DIRECT_UNIT * (1 + len(s.v_plus) + len(s.v_star))
                   for s in result.stats)
        assert result.makespan == want == e["makespan"]
        assert result.report.lock_failures == 0

    def test_direct_crash_lands_mid_batch(self):
        # seed 1 draws no fault for the first edge and a crash for the
        # second: the batch dies half applied
        plane = FaultPlane(FaultSpec(crash_rate=0.5, max_crashes=1), seed=1)
        m = DirectOrderMaintainer(triangle(), faults=plane)
        with pytest.raises(BatchCrashed) as info:
            m.insert_edges([(0, 3), (1, 3)])
        assert info.value.report.crashes == 1
        assert info.value.report.makespan > 0
        assert m.graph.has_edge(0, 3) and not m.graph.has_edge(1, 3)
        stall = FaultPlane(FaultSpec(stall_rate=1.0, stall_ticks=2))
        m = DirectOrderMaintainer(triangle(), faults=stall)
        result = m.remove_edges([(0, 1)])
        assert result.report.stalls_injected == 1
        assert result.makespan == result.report.total_work + 2 * DIRECT_UNIT


class TestBoundedRetention:
    def test_batch_results_do_not_accumulate(self):
        """A committed batch leaves no per-batch report behind: the live
        BatchResult count after 300 single-edge flushes is the count
        after the first one."""
        def live_results():
            gc.collect()
            return sum(isinstance(o, BatchResult) for o in gc.get_objects())

        eng = Engine(DynamicGraph())
        eng.insert(0, 1)
        eng.flush()
        after_one = live_results()
        for i in range(1, 300):
            eng.insert(i, i + 1)
            eng.flush()
        assert eng.epoch == 300
        assert live_results() <= after_one
