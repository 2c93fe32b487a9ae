"""Every serving surface classifies a bad query the same way.

The monolithic engine, the sharded router, a read replica and a
query-plane reader all answer through
:func:`repro.service.snapshots.answer_query`; this pins that the error
codes they return for the same inputs agree, including the reused-id
code on the surfaces that deduplicate request ids.
"""

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.replication import FollowerEngine
from repro.service import Engine, EngineConfig, ShardedEngine, SnapshotReader
from repro.service.requests import (
    E_BAD_REQUEST,
    E_DUPLICATE_ID,
    E_UNKNOWN_QUERY,
    E_UNKNOWN_VERTEX,
)

EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]

#: (kind, args) -> the code every surface must return
CASES = [
    (("frobnicate", ()), E_UNKNOWN_QUERY),
    (("k_shell", ()), E_BAD_REQUEST),
    (("core", (99,)), E_UNKNOWN_VERTEX),
]


def code(resp):
    assert resp.status == "quarantined", resp
    return resp.error["code"]


@pytest.fixture
def surfaces():
    eng = Engine(DynamicGraph(EDGES))
    eng.insert(4, 5)
    eng.flush()
    sharded = ShardedEngine(DynamicGraph(EDGES),
                            EngineConfig(shards=2))
    follower = FollowerEngine(0, eng.config)
    follower.receive(eng.journal.records)
    follower.replay()
    pub = eng.enable_queryplane()
    reader = SnapshotReader(pub.ctrl_name)
    try:
        yield {
            "engine": lambda k, a: code(eng.query(k, *a)),
            "sharded": lambda k, a: code(sharded.query(k, *a)),
            "follower": lambda k, a: code(follower.query(k, *a)),
            "reader": lambda k, a: reader.answer(k, a)[3][0],
        }, (eng, sharded)
    finally:
        reader.close()
        pub.close()
        sharded.close()
        eng.close()


@pytest.mark.parametrize("query,want", CASES, ids=[c[0][0] for c in CASES])
def test_every_surface_returns_the_same_code(surfaces, query, want):
    by_surface, _ = surfaces
    got = {name: ask(*query) for name, ask in by_surface.items()}
    assert got == dict.fromkeys(by_surface, want)


def test_reused_id_is_duplicate_id_on_engine_and_router(surfaces):
    _, engines = surfaces
    for eng in engines:
        assert eng.query("degeneracy", id="q").status == "committed"
        assert code(eng.query("degeneracy", id="q")) == E_DUPLICATE_ID
        assert code(eng.insert(7, 8, id="q")) == E_DUPLICATE_ID
