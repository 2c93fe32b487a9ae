"""Crash-recovery tests (fault-plane ISSUE satellite): WAL record
semantics, checkpoint restore, ``Engine.from_journal`` restart, the
retry/abandon terminal states, and the snapshot-store rebind guard."""

import pytest

from repro.core.decomposition import core_decomposition
from repro.faults.plane import FaultSpec
from repro.graph.dictgraph import DictGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.parallel.batch import ParallelOrderMaintainer
from repro.service import Engine, EngineConfig
from repro.service.journal import EdgeJournal
from repro.service.requests import (
    E_RETRIES_EXHAUSTED,
    STATUS_ABANDONED,
    STATUS_COMMITTED,
    STATUS_QUARANTINED,
)
from repro.service.snapshots import SnapshotStore

from tests.conftest import assert_cores_match_bz


# ----------------------------------------------------------------------
# WAL record semantics
# ----------------------------------------------------------------------
def test_journal_replay_roundtrip():
    j = EdgeJournal()
    j.log_init([(0, 1), (1, 2)])
    j.log_intent("+", [(0, 2)], ["r0"])
    j.log_commit(1)
    j.log_checkpoint(1, [(0, 1), (0, 2), (1, 2)], {0: 2, 1: 2, 2: 2},
                     [0, 1, 2])
    j.log_intent("-", [(1, 2)], ["r1", "r2"], attempt=2)
    j.log_commit(2)
    r = j.replay()
    assert r.initial_edges == ((0, 1), (1, 2))
    assert [(b.kind, b.edges, b.ids, b.epoch, b.attempt) for b in r.committed] == [
        ("+", ((0, 2),), ("r0",), 1, 0),
        ("-", ((1, 2),), ("r1", "r2"), 2, 2),
    ]
    assert r.checkpoint is not None and r.checkpoint.epoch == 1
    assert r.checkpoint.order == (0, 1, 2)
    assert r.ids == {"r0", "r1", "r2"}
    assert r.aborted_intents == 0
    assert r.last_epoch == 2
    assert r.batches_after(1) == r.committed[1:]


def test_intent_without_commit_is_an_aborted_attempt():
    j = EdgeJournal()
    j.log_init([(0, 1)])
    j.log_intent("+", [(0, 2)], ["a"], attempt=0)   # crashed mid-apply
    j.log_intent("+", [(0, 2)], ["a"], attempt=1)   # retry, also crashed
    j.log_intent("+", [(0, 2)], ["a"], attempt=2)
    j.log_commit(1)
    j.log_intent("-", [(0, 1)], ["b"])              # trailing: process died
    r = j.replay()
    assert r.aborted_intents == 3
    assert len(r.committed) == 1 and r.committed[0].attempt == 2
    # the aborted ids are still remembered for duplicate detection
    assert r.ids == {"a", "b"}
    # the trailing intent never committed, so its edge survives
    assert j.final_edges() == [(0, 1), (0, 2)]


def test_commit_without_intent_is_corrupt():
    j = EdgeJournal()
    j.log_init([])
    j.append({"t": "commit", "epoch": 1})
    with pytest.raises(ValueError, match="without an intent"):
        j.replay()
    with pytest.raises(ValueError, match="unknown journal record"):
        j.append({"t": "bogus"})  # lint: ok[RL020]


def test_journal_serialization_roundtrips(tmp_path):
    j = EdgeJournal()
    j.log_init([(0, 1)])
    j.log_intent("+", [(1, 2)], ["x"])
    j.log_commit(1)
    clone = EdgeJournal.from_bytes(j.to_bytes())
    assert clone.to_bytes() == j.to_bytes()
    assert clone.digest() == j.digest()
    assert len(clone) == 3
    # file-backed journal: per-record flush, load() reads it back
    path = str(tmp_path / "wal.jsonl")
    disk = EdgeJournal(path)
    for rec in j.records:
        disk.append(dict(rec))
    disk.close()
    loaded = EdgeJournal.load(path)
    assert loaded.digest() == j.digest()
    # load() reopens in append mode: the journal keeps growing in place
    loaded.log_intent("-", [(0, 1)], ["y"])
    loaded.log_commit(2)
    loaded.close()
    assert len(EdgeJournal.load(path)) == 5


def test_engine_journals_every_commit(er_graph):
    eng = Engine(er_graph, max_batch=4)
    eng.insert(100, 101)
    eng.insert(101, 102)
    eng.remove(100, 101)  # cancels the pending insert: net no-op
    eng.insert(0, 100)
    eng.flush()
    r = eng.journal.replay()
    assert r.last_epoch == eng.epoch >= 1
    assert sorted(eng.journal.final_edges(), key=repr) == sorted(
        eng._graph_edges(), key=repr
    )
    # every committed batch's epoch is consecutive from 1
    assert [b.epoch for b in r.committed] == list(range(1, eng.epoch + 1))


# ----------------------------------------------------------------------
# checkpoint restore
# ----------------------------------------------------------------------
def test_checkpoint_restore_is_bit_identical():
    edges = erdos_renyi(40, 100, seed=11)
    m = ParallelOrderMaintainer(DynamicGraph(edges[:80]))
    m.insert_edges(edges[80:])
    cores, order = m.cores(), m.order_sequence()
    r = ParallelOrderMaintainer.from_checkpoint(
        DynamicGraph([e for e in m.graph.edges()]), dict(cores), list(order)
    )
    assert r.cores() == cores
    # not just the cores: the *order structure* is reproduced exactly
    assert r.order_sequence() == order
    r.check()
    # both evolve identically from the restore point
    extra = [(0, 200), (200, 201), (201, 0)]
    m.insert_edges(extra)
    r.insert_edges(extra)
    assert r.cores() == m.cores()
    assert r.order_sequence() == m.order_sequence()
    assert_cores_match_bz(r)


def test_checkpoint_restore_keeps_isolated_vertices():
    # removing a leaf's only edge leaves it in the order with core 0 but
    # absent from any edge list — the restore path must re-register it
    m = ParallelOrderMaintainer(DynamicGraph([(0, 1), (1, 2), (0, 2), (3, 0)]))
    m.remove_edges([(3, 0)])
    assert m.cores()[3] == 0
    r = ParallelOrderMaintainer.from_checkpoint(
        DynamicGraph([e for e in m.graph.edges()]),
        dict(m.cores()), list(m.order_sequence()),
    )
    assert r.cores() == m.cores()
    assert r.order_sequence() == m.order_sequence()
    assert 3 in r.cores() and r.cores()[3] == 0


# ----------------------------------------------------------------------
# engine restart from the journal
# ----------------------------------------------------------------------
def _drive(eng, edges, n=30):
    """Apply a deterministic insert/remove mix derived from ``edges``."""
    for i in range(n):
        u, v = edges[i % len(edges)]
        if i % 3 == 2:
            eng.remove(u, v)
        else:
            eng.insert(u + 1000, v + 2000 + i)
    eng.flush()


def test_torn_final_record_is_dropped_and_cut_off(tmp_path):
    """A process killed inside an append leaves a last line without its
    newline.  ``from_journal`` recovers the acknowledged prefix, the
    file is cut back to it, and the next record starts on a fresh line.
    A malformed line anywhere else still raises."""
    path = str(tmp_path / "wal.jsonl")
    edges = erdos_renyi(20, 40, seed=3)
    with Engine(DynamicGraph(edges[:22]), max_batch=2,
                journal_path=path) as eng:
        _drive(eng, edges, n=18)
    with open(path, "rb") as fh:
        data = fh.read()
    assert len(eng.journal) >= 9
    cut = len(data) - 7  # inside the last record
    prefix = data[:data.rfind(b"\n", 0, cut) + 1]
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    back = Engine.from_journal(path, EngineConfig(max_batch=2))
    oracle = core_decomposition(
        DictGraph(EdgeJournal.from_bytes(prefix).final_edges())).core
    got = back.cores()
    assert all(got[u] == k for u, k in oracle.items())
    assert all(k == 0 for u, k in got.items() if u not in oracle)
    with open(path, "rb") as fh:
        assert fh.read() == prefix
    back.insert(100, 101)
    back.flush()
    back.close()
    with open(path, "rb") as fh:
        grown = fh.read()
    assert grown.startswith(prefix) and grown.endswith(b"\n")
    assert len(EdgeJournal.load(path)) == prefix.count(b"\n") + 2
    # the in-memory form drops a torn tail the same way
    assert (EdgeJournal.from_bytes(data[:cut]).to_bytes()
            == EdgeJournal.from_bytes(prefix).to_bytes())
    with pytest.raises(ValueError):
        EdgeJournal.from_bytes(data[:cut] + b"\n" + prefix)


def test_from_journal_restart_matches_original(tmp_path):
    edges = erdos_renyi(30, 70, seed=5)
    cfg = EngineConfig(max_batch=4, checkpoint_every=2,
                       journal_path=str(tmp_path / "wal.jsonl"))
    with Engine(DynamicGraph(edges), cfg) as eng:
        _drive(eng, edges)

    for source in (cfg.journal_path, eng.journal.to_bytes(), eng.journal):
        back = Engine.from_journal(source, EngineConfig(max_batch=4))
        assert back.epoch == eng.epoch
        assert back.cores() == eng.cores()
        assert back.maintainer.order_sequence() == \
            eng.maintainer.order_sequence()


def test_restarted_engine_continues_identically(tmp_path):
    edges = erdos_renyi(30, 70, seed=6)
    cfg = EngineConfig(max_batch=4, checkpoint_every=3)
    eng = Engine(DynamicGraph(edges), cfg)
    _drive(eng, edges)
    back = Engine.from_journal(eng.journal.to_bytes(), cfg)
    # epoch numbering continues, not restarts
    assert back.epoch == eng.epoch
    for e in ((500, 501), (501, 502), (500, 502)):
        eng.insert(*e)
        back.insert(*e)
    eng.flush()
    back.flush()
    assert back.epoch == eng.epoch
    assert back.cores() == eng.cores()
    back.check()


def test_restart_restores_duplicate_id_detection():
    eng = Engine(DynamicGraph([(0, 1)]), max_batch=1)
    eng.insert(1, 2, id="mine")
    eng.flush()
    auto_ids = eng._seq
    back = Engine.from_journal(eng.journal.to_bytes(), EngineConfig(max_batch=1))
    resp = back.insert(2, 3, id="mine")
    assert resp.status == STATUS_QUARANTINED
    assert resp.error["code"] == "duplicate-id"
    # auto-assigned ids resume past the journaled ones
    assert back._seq >= auto_ids
    done = [r for r in [back.insert(2, 3), *back.flush()]
            if r.status == STATUS_COMMITTED]
    assert done and back.graph.has_edge(2, 3)


def test_restart_refuses_views_before_the_checkpoint():
    edges = erdos_renyi(25, 60, seed=7)
    eng = Engine(DynamicGraph(edges), max_batch=2, checkpoint_every=2)
    _drive(eng, edges, n=16)
    replay = eng.journal.replay()
    assert replay.checkpoint is not None and replay.checkpoint.epoch >= 2
    back = Engine.from_journal(eng.journal.to_bytes(),
                               EngineConfig(max_batch=2, checkpoint_every=2))
    assert back.snapshots.min_epoch == replay.checkpoint.epoch
    # epochs from the checkpoint on are answerable...
    assert back.view(replay.checkpoint.epoch).cores() is not None
    # ...pre-checkpoint history was compacted away
    with pytest.raises(ValueError):
        back.view(replay.checkpoint.epoch - 1)


def test_pending_uncut_operations_are_lost_by_design():
    eng = Engine(DynamicGraph([(0, 1), (1, 2), (0, 2)]), max_batch=100)
    eng.insert(5, 6)  # pending: never journaled
    assert eng.pending_ops() == 1
    back = Engine.from_journal(eng.journal.to_bytes(), EngineConfig())
    assert back.pending_ops() == 0
    assert not back.graph.has_edge(5, 6)


# ----------------------------------------------------------------------
# crash-mid-batch recovery and abandonment
# ----------------------------------------------------------------------
def test_crashed_batches_recover_and_commit():
    edges = erdos_renyi(40, 100, seed=1)
    spec = FaultSpec(crash_rate=0.02, max_crashes=6)
    faulty = Engine(DynamicGraph(edges[:80]),
                    EngineConfig(max_batch=4, faults=spec, seed=3,
                                 max_retries=10, checkpoint_every=3))
    clean = Engine(DynamicGraph(edges[:80]), EngineConfig(max_batch=4, seed=3))
    for u, v in edges[80:]:
        faulty.insert(u, v)
        clean.insert(u, v)
    for u, v in edges[:10]:
        faulty.remove(u, v)
        clean.remove(u, v)
    faulty.flush()
    clean.flush()
    f = faulty.metrics()["faults"]
    assert f["crashed_batches"] > 0, "schedule injected no crash; tune seed"
    assert f["recoveries"] == f["crashed_batches"]
    assert f["retries"] == f["crashed_batches"]  # nothing abandoned
    assert faulty.cores() == clean.cores()
    assert faulty.epoch == clean.epoch
    faulty.check()
    assert_cores_match_bz(faulty.maintainer)


def test_retries_exhausted_abandons_the_batch():
    # crash_rate=1 kills a worker at its first event, every attempt
    spec = FaultSpec(crash_rate=1.0, max_crashes=None)
    eng = Engine(DynamicGraph([(0, 1), (1, 2), (0, 2)]),
                 EngineConfig(max_batch=2, faults=spec, max_retries=2))
    eng.insert(0, 3)
    eng.insert(1, 3)  # size cut -> 3 attempts, all crash -> abandoned
    done = eng.take_completed()
    assert done and all(r.status == STATUS_ABANDONED for r in done)
    assert all(r.error["code"] == E_RETRIES_EXHAUSTED for r in done)
    # the committed state never saw the batch
    assert eng.epoch == 0
    assert not eng.graph.has_edge(0, 3)
    m = eng.metrics()
    assert m["counters"]["abandoned"] == 2
    assert m["faults"]["crashed_batches"] == 3   # initial try + 2 retries
    eng.metrics_collector.assert_invariant()
    # the engine is still serving: queries answer, clean ops commit
    assert eng.query("core", 0).value == 2
    eng2_resp = eng.query("degeneracy")
    assert eng2_resp.status == STATUS_COMMITTED and eng2_resp.value == 2


def test_abandoned_ops_keep_the_accounting_invariant():
    spec = FaultSpec(crash_rate=1.0, max_crashes=None)
    eng = Engine(DynamicGraph([(0, 1)]),
                 EngineConfig(max_batch=1, faults=spec, max_retries=0))
    eng.insert(0, 2)
    eng.remove(9, 10)           # quarantined (edge missing)
    eng.insert(3, 3)            # quarantined (self-loop)
    eng.query("core", 0)
    c = eng.metrics()["counters"]
    assert c["abandoned"] == 1 and c["quarantined"] == 2
    assert c["admitted"] == (c["committed"] + c["quarantined"]
                             + c["timed_out"] + c["abandoned"])
    assert c["in_flight"] == 0


def test_recovery_replays_through_the_latest_checkpoint():
    edges = erdos_renyi(40, 100, seed=2)
    spec = FaultSpec(crash_rate=0.015, max_crashes=4)
    eng = Engine(DynamicGraph(edges[:70]),
                 EngineConfig(max_batch=3, faults=spec, seed=9,
                              max_retries=8, checkpoint_every=2))
    for u, v in edges[70:]:
        eng.insert(u, v)
    eng.flush()
    assert eng.metrics()["faults"]["recoveries"] > 0
    # recovered state equals a from-scratch decomposition of the
    # journal's final edge set (the durability ground truth)
    oracle = core_decomposition(DictGraph(eng.journal.final_edges())).core
    got = eng.cores()
    assert all(got[u] == k for u, k in oracle.items())
    assert all(k == 0 for u, k in got.items() if u not in oracle)


def test_rebind_rejects_a_mismatched_maintainer(triangle_graph):
    eng = Engine(triangle_graph, max_batch=1)
    eng.insert(0, 3)
    wrong = ParallelOrderMaintainer(DynamicGraph([(7, 8)]))
    with pytest.raises(ValueError, match="disagrees with"):
        eng.snapshots.rebind(wrong)


def test_snapshot_store_epoch0_floor():
    m = ParallelOrderMaintainer(DynamicGraph([(0, 1), (1, 2), (0, 2)]))
    store = SnapshotStore(m, epoch0=5)
    assert store.epoch == 5 and store.min_epoch == 5
    assert store.view(5).core(0) == 2
    with pytest.raises(ValueError):
        store.view(4)
    assert store.commit({0}) == 6
