"""Edge-less vertices of an engine's initial graph survive every rebuild.

The ``init`` journal record carries them in ``isolated`` (written only
when non-empty, so journals without them keep their bytes), and the
three readers rebuild them: ``EdgeJournal.replay``, the engine's base
maintainer (restart and crash recovery) and the follower.  A sharded
engine hands each one to its owner shard.
"""

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.replication import FollowerEngine
from repro.service import Engine, EngineConfig
from repro.service.journal import EdgeJournal
from repro.service.sharding import ShardedEngine

EXPECTED = {0: 1, 1: 1, 7: 0, "lone": 0}


def birth_graph():
    g = DynamicGraph([(0, 1)])
    g.add_vertex(7)
    g.add_vertex("lone")
    return g


def test_init_record_lists_them_and_only_when_present():
    rec = Engine(birth_graph()).journal.records[0]
    assert rec["isolated"] == ["lone", 7]  # sorted by repr, as edges are
    plain = Engine(DynamicGraph([(0, 1)])).journal.records[0]
    assert "isolated" not in plain
    assert EdgeJournal.from_bytes(
        Engine(birth_graph()).journal.to_bytes()
    ).replay().initial_isolated == ("lone", 7)


@pytest.mark.parametrize("source", ["journal", "bytes", "file"])
def test_from_journal_keeps_them(source, tmp_path):
    path = str(tmp_path / "wal") if source == "file" else None
    e = Engine(birth_graph(), EngineConfig(journal_path=path))
    assert e.cores() == EXPECTED
    e.insert(1, 2)
    e.flush()
    e.close()
    src = {"journal": e.journal, "bytes": e.journal.to_bytes(),
           "file": path}[source]
    r = Engine.from_journal(src)
    assert r.cores() == {**EXPECTED, 2: 1}
    r.check()


def test_recovery_before_the_first_checkpoint_keeps_them():
    e = Engine(birth_graph())
    e.insert(1, 2)
    e.flush()
    e._recover()
    assert e.cores() == {**EXPECTED, 2: 1}
    assert e.maintainer.cores() == {**EXPECTED, 2: 1}


def test_follower_keeps_them():
    e = Engine(birth_graph())
    e.insert(1, 2)
    e.flush()
    f = FollowerEngine(0, e.config)
    f.receive(e.journal.records)
    f.replay()
    assert f.maintainer.cores() == {**EXPECTED, 2: 1}
    f.verify_matches(Engine.from_journal(e.journal.to_bytes(), e.config))


@pytest.mark.parametrize("backend", ["direct", "process"])
def test_sharded_engine_keeps_them(backend, tmp_path):
    base = str(tmp_path / "j")
    cfg = EngineConfig(shards=2, backend=backend)
    s = ShardedEngine(birth_graph(), EngineConfig(
        shards=2, backend=backend, journal_path=base))
    assert s.cores() == EXPECTED
    s.check()
    for x in (7, "lone"):
        assert x in s.shards[s.interner.shard_of(x)].present_vertices()
    s.close()
    r = ShardedEngine.from_journals(base, cfg)
    assert r.cores() == EXPECTED
    r.close()
