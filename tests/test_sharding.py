"""Sharded serving: routing, the cross-shard run buffer, the foreign
(track-role) replica invariants, and the differential guarantee — a
sharded engine's stitched cores are bit-identical to one engine fed the
same trace, on both shard backends and every shard count."""

import random

import pytest

from repro.core.decomposition import core_decomposition
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.graph.interning import ShardedInterner
from repro.parallel.batch import ParallelOrderMaintainer
from repro.service.engine import Engine, EngineConfig
from repro.service.journal import EdgeJournal
from repro.service.requests import (
    STATUS_COMMITTED,
    STATUS_PENDING,
    STATUS_QUARANTINED,
)
from repro.service.sharding import (
    LocalShard,
    ShardedEngine,
    ShardEngine,
    shard_paths,
)
from repro.service.snapshots import DELTA_EPOCHS


def update_stream(seed, nv, nops):
    """Sequentially-valid insert/remove trace over integer vertices."""
    rng = random.Random(seed)
    ops = []
    edges = set()
    while len(ops) < nops:
        u, v = rng.randrange(nv), rng.randrange(nv)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in edges:
            if rng.random() < 0.35:
                ops.append(("remove", u, v))
                edges.discard(e)
        else:
            ops.append(("insert", u, v))
            edges.add(e)
    return ops


def mono_cores(ops, init=()):
    eng = Engine(DynamicGraph(list(init)))
    for op, u, v in ops:
        getattr(eng, op)(u, v)
    eng.flush()
    cores = dict(eng.maintainer.cores())
    eng.close()
    return cores


def sim_mono_cores(ops, init=(), num_workers=4):
    """Cores of one simulated-parallel kernel fed the trace as maximal
    runs of same-kind ops, each run one batch.  Ops invalid against the
    graph so far are dropped, as the engine quarantines them."""
    present = {canonical_edge(u, v) for u, v in init}
    valid = []
    for op, u, v in ops:
        e = canonical_edge(u, v)
        if (op == "insert") == (e in present):
            continue
        if op == "insert":
            present.add(e)
        else:
            present.discard(e)
        valid.append((op, u, v))
    ops = valid
    m = ParallelOrderMaintainer(DynamicGraph(list(init)),
                                num_workers=num_workers)
    i = 0
    while i < len(ops):
        kind = ops[i][0]
        j = i
        while j < len(ops) and ops[j][0] == kind:
            j += 1
        batch = [(u, v) for _, u, v in ops[i:j]]
        if kind == "insert":
            m.insert_edges(batch)
        else:
            m.remove_edges(batch)
        i = j
    return dict(m.cores())


class TestRouting:
    def test_intra_shard_ops_go_to_the_owner(self):
        eng = ShardedEngine(None, EngineConfig(shards=4))
        # 0-4 and 4-8 are intra (0,4,8 all hash to shard 0 for ints)
        eng.insert(0, 4)
        eng.insert(4, 8)
        eng.flush()
        assert eng.shards[0].engine.graph.has_edge(0, 4)
        assert not any(
            sh.engine.graph.has_edge(0, 4) for sh in eng.shards[1:]
        )
        eng.close()

    def test_cross_shard_edge_has_one_maintainer(self):
        """Single-maintainer rule: the coordinator (owner of the
        canonical first endpoint) applies the edge; the peer only
        tracks it in its foreign set."""
        eng = ShardedEngine(None, EngineConfig(shards=4))
        eng.insert(0, 1)   # shard 0 coordinates, shard 1 tracks
        eng.flush()
        e = canonical_edge(0, 1)
        coord = eng.interner.shard_of(e[0])
        peer = eng.interner.shard_of(e[1])
        assert eng.shards[coord].engine.graph.has_edge(0, 1)
        assert not eng.shards[peer].engine.graph.has_edge(0, 1)
        assert e in eng.shards[peer].engine._foreign
        # both owners surface the edge through the shard interface
        assert e in {canonical_edge(u, v)
                     for u, v in eng.shards[peer].edges()}
        eng.close()

    def test_initial_graph_partition_matches_live_inserts(self):
        """Seeding the constructor with a graph must land edges exactly
        where live inserts would."""
        edges = [(0, 1), (0, 4), (2, 6), (3, 5)]
        seeded = ShardedEngine(DynamicGraph(edges),
                               EngineConfig(shards=4))
        live = ShardedEngine(None, EngineConfig(shards=4))
        for u, v in edges:
            live.insert(u, v)
        live.flush()
        for s in range(4):
            assert sorted(seeded.shards[s].engine._graph_edges(), key=repr) \
                == sorted(live.shards[s].engine._graph_edges(), key=repr)
            assert seeded.shards[s].engine._foreign \
                == live.shards[s].engine._foreign
        seeded.close()
        live.close()

    def test_duplicate_id_quarantined_globally(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        r1 = eng.insert(0, 1, id="x")
        r2 = eng.insert(2, 3, id="x")
        assert r1.status in (STATUS_PENDING, STATUS_COMMITTED)
        assert r2.status == STATUS_QUARANTINED
        eng.close()

    def test_self_loop_quarantined(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        assert eng.insert(5, 5).status == STATUS_QUARANTINED
        eng.close()

    def test_query_carries_stitched_epoch(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        eng.insert(0, 2)
        eng.insert(1, 3)
        eng.flush()
        r = eng.query("degeneracy")
        assert r.status == STATUS_COMMITTED
        assert r.epoch == eng.epoch == sum(
            sh.epoch() for sh in eng.shards)
        eng.close()


class TestCrossBuffer:
    """The router's cross-shard run buffer mirrors the micro-batcher."""

    def test_same_kind_duplicate_coalesces(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        eng.insert(0, 1)
        r = eng.insert(0, 1)
        assert r.status == STATUS_PENDING and r.detail == "coalesced"
        done = eng.flush()
        assert all(x.status == STATUS_COMMITTED for x in done)
        eng.close()

    def test_opposite_kind_annihilates(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        eng.insert(0, 1)
        r = eng.remove(0, 1)
        assert r.status == STATUS_COMMITTED and r.detail == "cancelled"
        eng.flush()
        assert not eng.shards[0].engine.graph.has_edge(0, 1)
        assert canonical_edge(0, 1) not in eng.shards[1].engine._foreign
        eng.close()

    def test_kind_conflict_cuts_the_pending_group(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        eng.insert(0, 1)
        eng.insert(2, 3)
        eng.remove(0, 1)       # annihilates, group still pending
        eng.insert(0, 1)       # re-queues
        eng.flush()
        view = eng.cores()
        assert view == mono_cores(
            [("insert", 0, 1), ("insert", 2, 3)])
        eng.close()

    def test_validation_failure_quarantines_riders_on_both_shards(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        eng.remove(0, 1)       # edge was never inserted
        done = eng.flush()
        assert any(r.status == STATUS_QUARANTINED for r in done)
        # neither shard holds a dangling prepared tx
        assert all(not sh.engine._prepared for sh in eng.shards)
        eng.close()

    def test_group_cap_cuts_by_size(self):
        eng = ShardedEngine(
            None, EngineConfig(shards=2, cross_group=2))
        eng.insert(0, 1)
        eng.insert(2, 3)       # second cross op hits the cap
        assert sum(len(r) for r in eng._xriders.values()) == 0
        eng.close()


class TestForeignInvariants:
    def test_both_owners_vote_identically(self):
        """validate_cross must agree on both sides of a cross edge:
        the coordinator sees it in its graph, the peer in its foreign
        set."""
        eng = ShardedEngine(None, EngineConfig(shards=2))
        eng.insert(0, 1)
        eng.flush()
        coord = eng.interner.shard_of(canonical_edge(0, 1)[0])
        peer = 1 - coord
        for kind in ("+", "-"):
            assert (eng.shards[coord].engine.validate_cross(kind, (0, 1))
                    == eng.shards[peer].engine.validate_cross(kind, (0, 1)))
        eng.close()

    def test_track_commit_does_not_bump_peer_epoch(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        eng.insert(0, 1)
        eng.flush()
        coord = eng.interner.shard_of(canonical_edge(0, 1)[0])
        peer = 1 - coord
        assert eng.shards[coord].epoch() == 1
        assert eng.shards[peer].epoch() == 0
        eng.close()

    def test_remove_clears_the_foreign_entry(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        eng.insert(0, 1)
        eng.flush()
        eng.remove(0, 1)
        eng.flush()
        assert all(canonical_edge(0, 1) not in sh.engine._foreign
                   for sh in eng.shards)
        assert all(not sh.engine.graph.has_edge(0, 1) for sh in eng.shards)
        eng.close()


class TestDifferential:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_sim_matches_monolith(self, shards):
        """The sharded direct engine's stitched cores equal those of one
        simulated-parallel kernel fed the same trace in batches."""
        init = [(i, i + 1) for i in range(0, 30, 2)]
        ops = update_stream(7, 48, 220)
        oracle = sim_mono_cores(ops, init)
        eng = ShardedEngine(DynamicGraph(list(init)),
                            EngineConfig(backend="direct", shards=shards))
        for op, u, v in ops:
            getattr(eng, op)(u, v)
        eng.flush()
        assert eng.cores() == oracle
        eng.check()
        eng.close()

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_direct_matches_monolith(self, shards):
        init = [(i, i + 1) for i in range(0, 30, 2)]
        ops = update_stream(7, 48, 220)
        oracle = mono_cores(ops, init)
        eng = ShardedEngine(DynamicGraph(list(init)),
                            EngineConfig(backend="direct", shards=shards))
        for op, u, v in ops:
            getattr(eng, op)(u, v)
        eng.flush()
        assert eng.cores() == oracle
        eng.check()
        eng.close()

    def test_small_group_cap_matches_monolith(self):
        ops = update_stream(13, 32, 150)
        oracle = mono_cores(ops)
        eng = ShardedEngine(
            None, EngineConfig(shards=3, cross_group=2))
        for op, u, v in ops:
            getattr(eng, op)(u, v)
        eng.flush()
        assert eng.cores() == oracle
        eng.close()

    def test_process_backend_matches_monolith(self):
        ops = update_stream(11, 40, 160)
        oracle = mono_cores(ops)
        eng = ShardedEngine(None,
                            EngineConfig(backend="process", shards=2))
        for op, u, v in ops:
            getattr(eng, op)(u, v)
        eng.flush()
        assert eng.cores() == oracle
        eng.close()

    def test_process_backend_runs_are_deterministic(self, tmp_path):
        """Process workers host direct engines, whose service clock is
        in deterministic cost units: two runs of one input give the same
        latency summaries on the router and every shard, and the same
        bytes in every shard journal."""
        ops = update_stream(11, 40, 160)

        def run(tag):
            base = str(tmp_path / f"{tag}.wal")
            eng = ShardedEngine(None, EngineConfig(
                backend="process", shards=2, max_batch=8, journal_path=base))
            for op, u, v in ops:
                getattr(eng, op)(u, v)
            eng.flush()
            m = eng.metrics()
            eng.close()
            latency = [m["router"]["latency"]] + [
                sm["latency"] for sm in m["shards"]]
            digests = [EdgeJournal.load(p).digest()
                       for p in shard_paths(base, 2)]
            return latency, digests

        a, b = run("a"), run("b")
        assert a[0][1]["update"]["count"] > 0
        assert a == b

    def test_string_vertices_route_stably(self):
        names = [f"v{i}" for i in range(20)]
        ops = []
        edges = set()
        rng = random.Random(5)
        for _ in range(80):
            u, v = rng.choice(names), rng.choice(names)
            if u == v:
                continue
            e = canonical_edge(u, v)
            if e not in edges:
                ops.append(("insert", u, v))
                edges.add(e)
        oracle = mono_cores(ops)
        eng = ShardedEngine(None, EngineConfig(shards=3))
        for op, u, v in ops:
            getattr(eng, op)(u, v)
        eng.flush()
        assert eng.cores() == oracle
        eng.close()


class TestSurface:
    def test_shard_paths(self):
        assert shard_paths(None, 3) == [None, None, None]
        assert shard_paths("/tmp/j", 2) == ["/tmp/j.shard0", "/tmp/j.shard1"]

    def test_interner_stability(self):
        a = ShardedInterner(4)
        b = ShardedInterner(4)
        xs = [0, 1, "alpha", "beta", (1, 2)]
        for x in xs:
            a.intern(x)
        for x in reversed(xs):
            b.intern(x)
        # shard placement is content-hashed: arrival order irrelevant
        assert [a.shard_of(x) for x in xs] == [b.shard_of(x) for x in xs]

    def test_metrics_shape(self):
        eng = ShardedEngine(None, EngineConfig(shards=2))
        eng.insert(0, 1)
        eng.flush()
        m = eng.metrics()
        assert "router" in m and len(m["shards"]) == 2
        eng.close()

    def test_local_shard_present_vertices_include_foreign_endpoints(self):
        sh = LocalShard(1, ShardEngine(DynamicGraph(), foreign=[(0, 1)]))
        assert set(sh.present_vertices()) == {0, 1}
        sh.close()

    def test_shard_edge_and_vertex_lists_are_pinned(self):
        """``edges``/``present_vertices``/``foreign_edges`` return exactly
        the lists of their original expressions: local edges then the
        foreign set sorted by ``repr``, and local vertices then foreign
        endpoints in that order, first occurrence kept."""
        from itertools import chain

        names = [f"v{i}" for i in range(12)] + list(range(12))
        rng = random.Random(17)
        eng = ShardedEngine(None, EngineConfig(shards=3))
        seen = []
        for _ in range(3):  # the sorted list must follow every change
            for _ in range(60):
                u, v = rng.sample(names, 2)
                if rng.random() < 0.35:
                    eng.remove(u, v)
                else:
                    eng.insert(u, v)
            eng.flush()
            for sh in eng.shards:
                e = sh.engine
                ordered = sorted(e._foreign, key=repr)
                seen.append(ordered)
                assert e.foreign_edges() == ordered
                assert sh.edges() == list(e.graph.edges()) + ordered
                ends = (x for f in ordered for x in f)
                assert sh.present_vertices() == list(
                    dict.fromkeys(chain(e.graph.vertices(), ends)))
                e.foreign_edges().clear()  # a private copy each call
                assert e.foreign_edges() == ordered
        assert sum(map(len, seen)) > 20
        assert seen[:3] != seen[3:6] != seen[6:]
        eng.close()

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardedEngine(None, EngineConfig(shards=0))


def oracle_cores(eng, edges):
    """From-scratch decomposition of ``edges`` over every vertex the
    shards hold (a vertex whose last edge went stays present, core 0)."""
    g = DynamicGraph(sorted(edges))
    for sh in eng.shards:
        for x in sh.present_vertices():
            g.add_vertex(x)
    return core_decomposition(g).core


def stitch_script(seed):
    """A valid update trace plus two hand-made episodes: a vertex pair
    that loses its only edge, and edges inserted and removed (each
    committed on its own) between two stitches.  ``"flush"`` steps
    commit without stitching."""
    script = [("insert", 90, 91), ("flush",)]
    script += update_stream(seed, 48, 90)
    script += [("remove", 90, 91)]
    pairs = [(92, 93), (92, 94), (92, 95), (92, 96)]
    script += [("insert", u, v) for u, v in pairs] + [("flush",)]
    script += [("remove", u, v) for u, v in pairs] + [("flush",)]
    script += update_stream(seed + 1, 48, 40)
    return script


class TestIncrementalStitch:
    """The router keeps global cores with OI/OR over shard edge deltas;
    every stitched map must equal a from-scratch decomposition."""

    CASES = ([("direct", n, every) for n in (2, 3, 4) for every in (1, 7)]
             + [("process", 2, 1), ("process", 2, 7)])

    @pytest.mark.parametrize("backend,shards,every", CASES)
    def test_stitch_after_every_kth_op_matches_decomposition(
            self, backend, shards, every):
        eng = ShardedEngine(None, EngineConfig(backend=backend,
                                               shards=shards))
        edges = set()
        stitches = 0
        try:
            for i, step in enumerate(stitch_script(5), 1):
                if step[0] == "flush":
                    eng.flush()
                    continue
                op, u, v = step
                getattr(eng, op)(u, v)
                e = canonical_edge(u, v)
                if op == "insert":
                    edges.add(e)
                else:
                    edges.discard(e)
                if i % every == 0:
                    eng.flush()
                    assert dict(eng.cores()) == oracle_cores(eng, edges)
                    stitches += 1
            eng.flush()
            assert dict(eng.cores()) == oracle_cores(eng, edges)
            assert eng.core(90) == eng.core(91) == 0
            assert eng.core(92) == 0
            counts = eng.metrics()["router"]
            assert counts["stitch_rebuilds"] == 1
            # views at an unchanged epoch vector are cache hits
            assert 0 < counts["stitch_incremental"] <= stitches
            assert counts["stitch_edges_applied"] > 0
            eng.check()
        finally:
            eng.close()

    def test_ring_overrun_takes_the_rebuild_path(self):
        eng = ShardedEngine(None, EngineConfig(backend="direct", shards=2))
        edges = set()
        try:
            eng.insert(0, 2)
            eng.flush()
            edges.add((0, 2))
            assert dict(eng.cores()) == oracle_cores(eng, edges)
            # more epochs on shard 0 than its delta ring holds
            for i in range(DELTA_EPOCHS + 3):
                eng.insert(2 * i + 2, 2 * i + 4)
                eng.flush()
                edges.add((2 * i + 2, 2 * i + 4))
            assert dict(eng.cores()) == oracle_cores(eng, edges)
            assert eng.metrics()["router"]["stitch_rebuilds"] == 2
            eng.remove(0, 2)
            eng.insert(0, 1)
            eng.flush()
            edges ^= {(0, 2), (0, 1)}
            assert dict(eng.cores()) == oracle_cores(eng, edges)
            counts = eng.metrics()["router"]
            assert counts["stitch_rebuilds"] == 2
            assert counts["stitch_incremental"] == 1
        finally:
            eng.close()

    def test_check_catches_a_wrong_stitch(self, monkeypatch):
        eng = ShardedEngine(None, EngineConfig(backend="direct", shards=2))
        try:
            for u, v in [(0, 1), (1, 2), (0, 2)]:
                eng.insert(u, v)
            monkeypatch.setattr(
                eng, "_stitch", lambda vec: {0: 2, 1: 2, 2: 1})
            with pytest.raises(AssertionError, match="from-scratch"):
                eng.check()
        finally:
            eng.close()

    def test_router_queryplane_follows_the_stitch(self):
        """The router publishes each stitch with its touched set; a
        reader attached to its plane must see exactly ``cores()``."""
        from repro.service.queryplane import SnapshotReader

        eng = ShardedEngine(DynamicGraph([(0, 1), (1, 2)]),
                            EngineConfig(backend="direct", shards=2))
        pub = eng.enable_queryplane()
        try:
            with SnapshotReader(pub.ctrl_name) as reader:
                steps = [[("insert", 0, 2)],
                         [("insert", 2, 3), ("insert", 0, 3),
                          ("insert", 1, 3)],
                         [("remove", 0, 1)],
                         [("insert", 7, 8)]]   # vertices new to the plane
                for batch in steps:
                    for op, u, v in batch:
                        getattr(eng, op)(u, v)
                    eng.flush()
                    value, epoch, _, err = reader.answer("cores")
                    assert err is None and epoch == eng.epoch
                    assert dict(value) == dict(eng.cores())
                assert reader.answer("core", (8,))[0] == 1
            assert eng.metrics()["router"]["stitch_incremental"] == 4
        finally:
            eng.close()
            pub.close()
