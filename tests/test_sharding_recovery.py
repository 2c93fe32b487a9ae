"""Cross-shard crash recovery: every 2PC crash window must resolve a
dangling prepare identically on both owner shards, and the recovered
stitch must be bit-identical to a single engine over the recovered edge
set.  Also pins the shutdown ordering (quiesce workers before the final
checkpoint) via journal record order."""

import os
import random

import pytest

from repro.core.maintainer import OrderMaintainer
from repro.faults.plane import FaultSpec
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.service.engine import Engine, EngineConfig
from repro.service.journal import (
    REC_CHECKPOINT,
    REC_PREPARE,
    EdgeJournal,
)
from repro.service.sharding import (
    CRASH_POINTS,
    RouterCrashed,
    ShardedEngine,
    shard_paths,
)

from tests.test_sharding import mono_cores, oracle_cores, update_stream


def drive(eng, ops):
    for op, u, v in ops:
        getattr(eng, op)(u, v)


def union_edges(eng):
    return {canonical_edge(u, v) for sh in eng.shards for u, v in sh.edges()}


def fresh_cores(edges):
    oracle = Engine(DynamicGraph(sorted(edges, key=repr)))
    cores = dict(oracle.maintainer.cores())
    oracle.close()
    return cores


def recovered_matches_fresh_decomposition(base, shards, backend="direct"):
    """Recover, then check the stitch against a from-scratch single
    engine on the recovered union edge set: the first stitch (the router
    maintainer's rebuild), then an incremental one after a few more
    updates — including removing a recovered edge — checked against the
    same oracle and :meth:`ShardedEngine.check`.  Returns the recovered
    router (caller closes)."""
    rec = ShardedEngine.from_journals(
        base, EngineConfig(backend=backend, shards=shards))
    union = union_edges(rec)
    assert rec.cores() == fresh_cores(union)
    assert rec.metrics()["router"]["stitch_rebuilds"] == 1
    if union:
        rec.remove(*min(union))
    for i in range(4):
        rec.insert(1000 + i, i)
    rec.insert(1000, 1001)
    rec.flush()
    # the removed edge's endpoints stay present (core 0 if isolated)
    assert rec.cores() == oracle_cores(rec, union_edges(rec))
    counts = rec.metrics()["router"]
    assert counts["stitch_rebuilds"] == 1
    assert counts["stitch_incremental"] == 1
    rec.check()
    return rec


class TestCleanRestart:
    @pytest.mark.parametrize("backend", ["direct", "process"])
    def test_close_then_from_journals_is_bit_identical(self, backend,
                                                       tmp_path):
        base = str(tmp_path / "j")
        init = [(i, i + 1) for i in range(0, 20, 2)]
        ops = update_stream(3, 40, 150)
        oracle = mono_cores(ops, init)
        eng = ShardedEngine(
            DynamicGraph(list(init)),
            EngineConfig(backend=backend, shards=3, journal_path=base))
        drive(eng, ops)
        eng.flush()
        assert eng.cores() == oracle
        eng.close()
        rec = ShardedEngine.from_journals(
            base, EngineConfig(backend=backend, shards=3))
        assert rec.cores() == oracle
        rec.close()

    def test_foreign_set_survives_restart(self, tmp_path):
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None, EngineConfig(shards=2, journal_path=base))
        eng.insert(0, 1)
        eng.flush()
        coord = eng.interner.shard_of(canonical_edge(0, 1)[0])
        peer = 1 - coord
        foreign_live = set(eng.shards[peer].engine._foreign)
        assert foreign_live
        eng.close()
        rec = ShardedEngine.from_journals(
            base, EngineConfig(shards=2))
        assert set(rec.shards[peer].engine._foreign) == foreign_live
        assert rec.shards[coord].engine.graph.has_edge(0, 1)
        rec.close()

    def test_checkpoint_fast_path_restores_foreign(self, tmp_path):
        """A checkpointed peer restores its foreign set from the
        checkpoint record, not by replaying commit2s before it."""
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None, EngineConfig(shards=2, journal_path=base,
                               checkpoint_every=1))
        eng.insert(0, 1)
        eng.insert(2, 3)
        eng.flush()
        eng.close()
        rec = ShardedEngine.from_journals(
            base, EngineConfig(shards=2))
        assert rec.cores() == mono_cores(
            [("insert", 0, 1), ("insert", 2, 3)])
        rec.close()

    def test_duplicate_ids_remembered_across_restart(self, tmp_path):
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None, EngineConfig(shards=2, journal_path=base))
        eng.insert(0, 1, id="once")
        eng.flush()
        eng.close()
        rec = ShardedEngine.from_journals(
            base, EngineConfig(shards=2))
        r = rec.insert(4, 5, id="once")
        assert r.error is not None
        rec.close()


class TestCrashWindows:
    """Router death at each 2PC step; shard journals survive."""

    @pytest.mark.parametrize("point", CRASH_POINTS)
    @pytest.mark.parametrize("txseq", [0, 4])
    def test_crash_window_recovers_consistently(self, point, txseq,
                                                tmp_path):
        base = str(tmp_path / "j")
        ops = update_stream(9, 32, 160)
        eng = ShardedEngine(
            None,
            EngineConfig(shards=3, journal_path=base,
                         cross_group=4),
            crash_2pc={point: txseq},
        )
        with pytest.raises(RouterCrashed):
            drive(eng, ops)
            eng.flush()
        eng.abandon()
        rec = recovered_matches_fresh_decomposition(base, 3)
        rec.check()
        rec.close()

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_resolution_is_identical_on_both_shards(self, point, tmp_path):
        """After recovery, every transaction that appears in any shard's
        journal is either committed everywhere it prepared or aborted
        everywhere it prepared — never split."""
        base = str(tmp_path / "j")
        ops = update_stream(17, 32, 160)
        eng = ShardedEngine(
            None,
            EngineConfig(shards=3, journal_path=base,
                         cross_group=4),
            crash_2pc={point: 2},
        )
        with pytest.raises(RouterCrashed):
            drive(eng, ops)
            eng.flush()
        eng.abandon()
        rec = ShardedEngine.from_journals(
            base, EngineConfig(shards=3))
        rec.close()
        replays = [EdgeJournal.load(p).replay()
                   for p in shard_paths(base, 3)]
        outcomes = {}
        for rp in replays:
            assert not rp.prepared, "dangling prepare survived recovery"
            for tx in rp.commit2:
                outcomes.setdefault(tx, set()).add("commit")
            for tx in rp.abort2:
                outcomes.setdefault(tx, set()).add("abort")
        for tx, o in outcomes.items():
            assert len(o) == 1, f"{tx} split-brain: {o}"

    def test_prepare_peer_crash_aborts_the_group(self, tmp_path):
        """Crash after the first prepare frame: no commit2 exists
        anywhere, so recovery presumes abort and the edge vanishes."""
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None,
            EngineConfig(shards=2, journal_path=base,
                         cross_group=1),
            crash_2pc={"prepare-peer": 0},
        )
        with pytest.raises(RouterCrashed):
            eng.insert(0, 1)
            eng.flush()
        eng.abandon()
        rec = ShardedEngine.from_journals(
            base, EngineConfig(shards=2))
        assert all(not sh.engine.graph.has_edge(0, 1)
                   for sh in rec.shards)
        assert all(canonical_edge(0, 1) not in sh.engine._foreign
                   for sh in rec.shards)
        assert any(r.committed is False for r in rec.resolutions)
        rec.check()
        rec.close()

    def test_commit_peer_crash_redoes_the_track_side(self, tmp_path):
        """Crash between the two commit2 scatters: the shard that got
        its commit2 proves the decision; the other side must redo —
        including a track-role side that only updates its foreign
        set."""
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None,
            EngineConfig(shards=2, journal_path=base,
                         cross_group=1),
            crash_2pc={"commit-peer": 0},
        )
        with pytest.raises(RouterCrashed):
            eng.insert(0, 1)
            eng.flush()
        eng.abandon()
        rec = ShardedEngine.from_journals(
            base, EngineConfig(shards=2))
        e = canonical_edge(0, 1)
        coord = rec.interner.shard_of(e[0])
        peer = [s for s in range(2) if s != coord][0]
        assert rec.shards[coord].engine.graph.has_edge(0, 1)
        assert e in rec.shards[peer].engine._foreign
        assert any(r.committed for r in rec.resolutions)
        rec.check()
        rec.close()

    def test_process_backend_recovers_crash_window(self, tmp_path):
        """The torn journals a crashed in-process router leaves behind restart
        under process-backend workers too."""
        base = str(tmp_path / "j")
        ops = update_stream(21, 32, 120)
        eng = ShardedEngine(
            None,
            EngineConfig(shards=2, journal_path=base,
                         cross_group=4),
            crash_2pc={"commit-peer": 1},
        )
        with pytest.raises(RouterCrashed):
            drive(eng, ops)
            eng.flush()
        eng.abandon()
        rec = recovered_matches_fresh_decomposition(
            base, 2, backend="process")
        rec.close()


class TestShutdownOrdering:
    def test_final_checkpoint_is_the_last_record(self, tmp_path):
        """close() quiesces (joins workers) before checkpointing: the
        checkpoint must be the final record of every shard journal, with
        nothing interleaved after it."""
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None,
            EngineConfig(backend="process", shards=2, journal_path=base))
        drive(eng, update_stream(2, 24, 60))
        eng.flush()
        eng.close()
        for p in shard_paths(base, 2):
            j = EdgeJournal.load(p)
            assert j.records[-1]["t"] == REC_CHECKPOINT
            assert sum(1 for r in j.records
                       if r["t"] == REC_CHECKPOINT) >= 1

    def test_close_is_idempotent(self, tmp_path):
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None, EngineConfig(shards=2, journal_path=base))
        eng.insert(0, 1)
        eng.flush()
        eng.close()
        eng.close()
        for p in shard_paths(base, 2):
            j = EdgeJournal.load(p)
            assert sum(1 for r in j.records
                       if r["t"] == REC_CHECKPOINT) == 1

    def test_abandon_leaves_no_checkpoint(self, tmp_path):
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None, EngineConfig(shards=2, journal_path=base))
        eng.insert(0, 1)
        eng.flush()
        eng.abandon()
        for p in shard_paths(base, 2):
            j = EdgeJournal.load(p)
            assert all(r["t"] != REC_CHECKPOINT for r in j.records)

    def test_pending_ops_lost_at_crash_is_the_wal_contract(self, tmp_path):
        """An op still in the router's cross buffer at crash time was
        never journaled anywhere — recovery must not invent it."""
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None, EngineConfig(shards=2, journal_path=base))
        eng.insert(0, 2)       # intra, flushed below
        eng.flush()
        eng.insert(0, 1)       # cross, still buffered
        eng.abandon()
        rec = ShardedEngine.from_journals(
            base, EngineConfig(shards=2))
        assert not any(sh.engine.graph.has_edge(0, 1)
                       for sh in rec.shards)
        rec.close()

    def test_prepare_records_carry_roles(self, tmp_path):
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None, EngineConfig(shards=2, journal_path=base))
        eng.insert(0, 1)
        eng.flush()
        eng.close()
        roles = []
        for p in shard_paths(base, 2):
            j = EdgeJournal.load(p)
            roles.extend(r["role"] for r in j.records
                         if r["t"] == REC_PREPARE)
        assert sorted(roles) == ["apply", "track"]

    def test_missing_shard_journal_fails_loudly(self, tmp_path):
        base = str(tmp_path / "j")
        eng = ShardedEngine(
            None, EngineConfig(shards=2, journal_path=base))
        eng.insert(0, 1)
        eng.flush()
        eng.close()
        os.unlink(shard_paths(base, 2)[1])
        with pytest.raises(FileNotFoundError):
            ShardedEngine.from_journals(
                base, EngineConfig(shards=2))


class TestSeededRouterFaults:
    def test_seeded_crash_plane_is_deterministic(self, tmp_path):
        """With a fault spec, the router draws 2PC crash decisions from
        its own derived plane: same seed, same crash point."""
        from repro.faults.plane import FaultSpec

        def run(tag):
            base = str(tmp_path / f"j-{tag}")
            eng = ShardedEngine(
                None,
                EngineConfig(shards=2, journal_path=base,
                             seed=13, cross_group=2,
                             faults=FaultSpec(crash_rate=0.05,
                                              max_crashes=1)),
            )
            ops = update_stream(4, 24, 120)
            try:
                drive(eng, ops)
                eng.flush()
                eng.close()
                return None
            except RouterCrashed as exc:
                eng.abandon()
                return (exc.point, exc.tx)

        first, second = run("a"), run("b")
        assert first == second
        if first is not None:
            rec = recovered_matches_fresh_decomposition(
                str(tmp_path / "j-a"), 2)
            rec.close()


class TestSeededShardFaults:
    @pytest.mark.parametrize("backend,seed,router_crash", [
        ("direct", 1, False), ("direct", 2, True), ("process", 1, False)])
    def test_shard_crashes_recover_on_edge_set_shards(
            self, backend, seed, router_crash, tmp_path):
        """Seeded ``config.faults`` crash edge-set shard batches; each
        shard rebuilds its edge set from its journal and retries.  The
        stitch equals a single engine fed the trace — or, when the same
        seed also crashes the router, the recovered journals do."""
        base = str(tmp_path / "j")
        eng = ShardedEngine(None, EngineConfig(
            backend=backend, shards=2, seed=seed, max_batch=8,
            checkpoint_every=3, journal_path=base,
            faults=FaultSpec(crash_rate=0.03)))
        ops = update_stream(4, 24, 120)
        try:
            drive(eng, ops)
            eng.flush()
        except RouterCrashed:
            assert router_crash
        assert sum(sh.metrics()["faults"]["recoveries"]
                   for sh in eng.shards) > 0
        if router_crash:
            eng.abandon()
            recovered_matches_fresh_decomposition(base, 2).close()
            return
        assert eng.cores() == mono_cores(ops)
        eng.check()
        eng.close()


class TestEdgeSetShards:
    """Shards hold edge sets and run no OI/OR; the router's stitch is
    the one kernel an edge runs through."""

    def test_shards_run_no_kernel_and_checkpoint_no_cores(
            self, tmp_path, monkeypatch):
        base = str(tmp_path / "j")
        eng = ShardedEngine(None, EngineConfig(shards=2, journal_path=base))
        results = []
        for sh in eng.shards:
            m = sh.engine.maintainer
            for name in ("insert_edges", "remove_edges"):
                def record(edges, _apply=getattr(m, name)):
                    results.append(_apply(edges))
                    return results[-1]
                monkeypatch.setattr(m, name, record)
        ops = update_stream(6, 32, 160) + [("insert", 90, 91)]
        drive(eng, ops)
        eng.flush()
        eng.remove(90, 91)   # both endpoints stay present, edge-less
        eng.check()
        shard_of = eng.interner.shard_of
        assert any(shard_of(u) != shard_of(v) for _, u, v in ops)
        stats = [s for r in results for s in r.stats]
        assert stats and not any(s.v_plus or s.v_star for s in stats)
        vertices = [list(sh.engine.graph.vertices()) for sh in eng.shards]
        eng.close()
        for p, vs in zip(shard_paths(base, 2), vertices):
            ck = EdgeJournal.load(p).records[-1]
            assert ck["t"] == REC_CHECKPOINT
            assert ck["cores"] == [] and ck["order"] == vs
        rec = ShardedEngine.from_journals(base, EngineConfig(shards=2))
        assert rec.core(90) == rec.core(91) == 0
        assert rec.cores() == {**mono_cores(ops[:-1]), 90: 0, 91: 0}
        rec.check()
        rec.close()

    def test_journal_with_core_checkpoints_recovers(self, tmp_path):
        """Shard journals whose checkpoints carry real cores and an OM
        order (written before shards dropped their kernel) still
        recover through the checkpoint fast-path."""
        base = str(tmp_path / "j")
        eng = ShardedEngine(None, EngineConfig(shards=2, journal_path=base))
        ops = update_stream(8, 32, 120) + [("insert", 90, 91)]
        drive(eng, ops)
        eng.flush()
        eng.remove(90, 91)
        eng.flush()
        epochs = []
        for sh in eng.shards:
            shard = sh.engine
            g = DynamicGraph(shard._graph_edges())
            for x in shard.graph.vertices():
                g.add_vertex(x)
            m = OrderMaintainer(g)
            shard.journal.log_checkpoint(
                shard.epoch, shard._graph_edges(), m.cores(),
                m.order_sequence(), foreign=shard.foreign_edges())
            epochs.append(shard.epoch)
        tail = [("insert", 200, 201), ("insert", 200, 202)]
        drive(eng, tail)
        eng.flush()
        eng.abandon()
        rec = ShardedEngine.from_journals(base, EngineConfig(shards=2))
        assert [sh.engine.snapshots.min_epoch for sh in rec.shards] == epochs
        assert rec.cores() == {**mono_cores(ops[:-1] + tail), 90: 0, 91: 0}
        rec.check()
        rec.close()
