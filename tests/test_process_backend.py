"""The process backend's worker protocol, driven directly: one
:class:`ProcessShard` per test, no router.  Pins the pipe framing, the
error channel, the stitch's edge-delta frame, and the
quiesce-join-checkpoint shutdown sequence."""

import pytest

from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.parallel.procs import ProcessShard
from repro.service.engine import EngineConfig
from repro.service.journal import REC_CHECKPOINT, EdgeJournal
from repro.service.requests import STATUS_COMMITTED, Request
from repro.service.sharding import ShardEngine
from repro.service.snapshots import DELTA_EPOCHS


def spec(journal_path=None):
    return {
        "config": EngineConfig(backend="direct", journal_path=journal_path),
        "fault_spec": None,
        "fault_seed": 0,
    }


def start_shard(init=(), foreign=(), journal_path=None, shard_id=0):
    return ProcessShard.start(shard_id, spec(journal_path), list(init),
                              foreign=foreign)


class TestWorkerProtocol:
    def test_submit_flush_epoch(self):
        sh = start_shard(init=[(0, 1)])
        assert sh.epoch() == 0
        r = sh.submit(Request("insert", u=1, v=2, id="a"))
        done = sh.flush()
        assert any(x.id == "a" and x.status == STATUS_COMMITTED
                   for x in done + sh.take_completed())
        assert sh.epoch() == 1
        assert r is not None
        sh.close()

    def test_submit_many_batches_one_frame(self):
        sh = start_shard()
        out = sh.submit_many([Request("insert", u=i, v=i + 1, id=f"r{i}")
                              for i in range(4)])
        assert len(out) == 4
        sh.flush()
        assert canonical_edge(2, 3) in {canonical_edge(u, v)
                                        for u, v in sh.edges()}
        sh.close()

    def test_edges_and_present_include_foreign(self):
        sh = start_shard(init=[(0, 1)], foreign=[(8, 9)])
        assert canonical_edge(8, 9) in {canonical_edge(u, v)
                                        for u, v in sh.edges()}
        assert {8, 9} <= set(sh.present_vertices())
        sh.close()

    def test_error_frame_raises_and_worker_survives(self):
        sh = start_shard()
        with pytest.raises(RuntimeError, match="unknown frame"):
            sh.rpc("no-such-frame")
        # the worker answered the error and kept serving
        assert sh.epoch() == 0
        sh.close()

    def test_engine_error_is_forwarded_not_fatal(self):
        sh = start_shard()
        with pytest.raises(RuntimeError, match="shard 0"):
            sh.commit_group(["tx-that-never-prepared"])
        assert sh.check() is None or True  # still responsive
        sh.close()

    def test_cross_prepare_commit_roundtrip(self):
        sh = start_shard()
        votes = sh.prepare_group([("t0", "+", (0, 1), "r0", 1, "apply")])
        assert votes == [None]   # None = yes-vote; error code = refusal
        sh.commit_group(["t0"])
        assert canonical_edge(0, 1) in {canonical_edge(u, v)
                                        for u, v in sh.edges()}
        sh.close()

    def test_track_role_group_prepares_into_foreign(self):
        sh = start_shard(shard_id=1)
        votes = sh.prepare_group(
            [("t0", "+", (0, 1), "r0", 0, "track")])
        assert votes == [None]   # yes-vote
        sh.commit_group(["t0"])
        assert canonical_edge(0, 1) in {canonical_edge(u, v)
                                        for u, v in sh.edges()}
        assert sh.epoch() == 0   # track side never runs the maintainer
        sh.close()


class TestShutdown:
    def test_quiesce_joins_worker_before_checkpoint(self, tmp_path):
        path = str(tmp_path / "j")
        sh = start_shard(journal_path=path)
        sh.submit(Request("insert", u=0, v=1))
        sh.flush()
        payload = sh.quiesce()
        # quiesce returns only after join: no writer left on the file
        assert not sh.process.is_alive()
        assert set(payload) >= {"epoch", "edges", "cores", "order",
                                "foreign"}
        sh.final_checkpoint(payload)
        j = EdgeJournal.load(path)
        assert j.records[-1]["t"] == REC_CHECKPOINT
        sh.close()

    def test_final_checkpoint_noop_without_journal(self):
        sh = start_shard()
        payload = sh.quiesce()
        sh.final_checkpoint(payload)   # must not raise
        sh.close()

    def test_abandon_stops_worker_without_checkpoint(self, tmp_path):
        path = str(tmp_path / "j")
        sh = start_shard(journal_path=path)
        sh.submit(Request("insert", u=0, v=1))
        sh.flush()
        sh.abandon()
        assert not sh.process.is_alive()
        j = EdgeJournal.load(path)
        assert all(r["t"] != REC_CHECKPOINT for r in j.records)

    def test_close_terminates_live_worker(self):
        sh = start_shard()
        assert sh.process.is_alive()
        sh.close()
        sh.process.join(timeout=10)
        assert not sh.process.is_alive()

    def test_recover_from_journal(self, tmp_path):
        path = str(tmp_path / "j")
        sh = start_shard(init=[(0, 1), (1, 2)], journal_path=path)
        sh.submit(Request("insert", u=2, v=0))
        sh.flush()
        payload = sh.quiesce()
        sh.final_checkpoint(payload)
        sh.close()
        rec = ProcessShard.start(0, spec(path), None, recover_from=path)
        assert {canonical_edge(u, v) for u, v in rec.edges()} == {
            canonical_edge(0, 1), canonical_edge(1, 2),
            canonical_edge(0, 2)}
        rec.close()


class TestEdgeDeltas:
    def test_deltas_frame_returns_epoch_and_batches(self):
        """One committed batch comes back with the epoch it committed
        as, in the same frame; past the ring the reply is None."""
        sh = start_shard(init=[(0, 1)])
        try:
            assert sh.edge_deltas(0) == (0, [])
            sh.submit(Request("insert", u=1, v=2, id="a"))
            sh.submit(Request("insert", u=2, v=3, id="b"))
            sh.flush()
            epoch, batches = sh.edge_deltas(0)
            assert epoch == sh.epoch() == 1
            assert [(e, k, sorted(canonical_edge(u, v) for u, v in es))
                    for e, k, es in batches] == [(1, "+", [(1, 2), (2, 3)])]
            assert sh.edge_deltas(1) == (1, [])
            for i in range(DELTA_EPOCHS):
                sh.submit(Request("insert", u=10 + i, v=11 + i,
                                  id=f"r{i}"))
                sh.flush()
            epoch, batches = sh.edge_deltas(0)
            assert epoch == 1 + DELTA_EPOCHS and batches is None
            assert len(sh.edge_deltas(1)[1]) == DELTA_EPOCHS
        finally:
            sh.close()


class TestWorkerHelpers:
    def test_shard_edges_appends_foreign(self):
        eng = ShardEngine(DynamicGraph([(0, 1)]), foreign=[(5, 6)])
        assert eng.edges() == list(eng.graph.edges()) + [
            canonical_edge(5, 6)]
        eng.close()

    def test_shard_vertices_dedups_foreign_endpoints(self):
        eng = ShardEngine(DynamicGraph([(0, 1)]), foreign=[(1, 2)])
        vs = eng.present_vertices()
        assert sorted(vs) == [0, 1, 2]
        assert len(vs) == 3
        eng.close()
