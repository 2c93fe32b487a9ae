"""Wait-free query plane: seqlock publisher/reader differential tests,
torn-read handling, the bounded-staleness pin contract (checkpoint
truncation and replica promotion), reader pools, and the query-pressure
feedback loop — every answer must be bit-identical to the engine's own
``SnapshotStore`` at the stamped epoch."""

import random

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.graph.storage import INT64, int64_buffer
from repro.replication import FollowerEngine, ReplicaSet
from repro.service.engine import Engine, EngineConfig
from repro.service.queryplane import (
    CORE_UNKNOWN,
    HEADER_SLOTS,
    NO_EPOCH,
    QP_EPOCH,
    QP_N,
    QP_SEQ,
    QP_SEQ_ECHO,
    EpochPublisher,
    ReaderPool,
    SnapshotReader,
    raw_to_response,
)
from repro.service.requests import (
    E_BAD_REQUEST,
    E_EPOCH_TRUNCATED,
    E_EPOCH_UNAVAILABLE,
    E_UNKNOWN_QUERY,
    E_UNKNOWN_VERTEX,
    STATUS_COMMITTED,
    STATUS_QUARANTINED,
)
from repro.service.sharding import ShardedEngine
from repro.service.snapshots import QUERY_KINDS

ALL_KINDS = sorted(QUERY_KINDS)


def publish_map(pub, epoch, min_epoch, cores):
    """Publish a ``vertex -> core`` map at a chosen epoch stamp: intern
    its vertices into the publisher's interner and hand over the dense
    array, as a :class:`SnapshotStore` commit would."""
    slots = pub.interner.intern_many(cores)
    dense = int64_buffer(len(pub.interner), CORE_UNKNOWN)
    for i, k in zip(slots, cores.values()):
        dense[i] = k
    pub.publish(epoch, min_epoch, dense)


def update_stream(seed, nv, nops):
    rng = random.Random(seed)
    ops, edges = [], set()
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


def query_args(kind, nv, rng):
    if kind == "core":
        return (rng.randrange(nv),)
    if kind == "in_k_core":
        return (rng.randrange(nv), rng.randrange(1, 4))
    if kind in ("k_core", "k_shell"):
        return (rng.randrange(1, 4),)
    return ()


def expected(view, kind, args):
    return QUERY_KINDS[kind](view, args)


class TestPublisherReaderDifferential:
    def test_every_kind_matches_engine_snapshot(self):
        eng = Engine(DynamicGraph(erdos_renyi(40, 120, seed=3)),
                     EngineConfig(max_batch=4))
        pub = eng.enable_queryplane()
        rng = random.Random(7)
        try:
            with SnapshotReader(pub.ctrl_name) as r:
                for op, u, v in update_stream(5, 40, 60):
                    getattr(eng, op)(u, v)
                    for kind in ALL_KINDS:
                        args = query_args(kind, 40, rng)
                        value, epoch, stale, err = r.answer(kind, args)
                        assert epoch >= eng.snapshots.min_epoch
                        view = eng.snapshots.view(epoch)
                        want = expected(view, kind, args)
                        if err is not None:
                            # the only legitimate refusal on this trace
                            assert kind == "core" and want is None
                            assert err[0] == E_UNKNOWN_VERTEX
                        else:
                            assert value == want
                        assert stale == 0  # nothing commits mid-answer
                eng.flush()
        finally:
            eng.close()
            pub.close()

    def test_fast_and_general_point_paths_agree(self):
        eng = Engine(DynamicGraph(erdos_renyi(25, 70, seed=1)), EngineConfig())
        pub = eng.enable_queryplane()
        try:
            with SnapshotReader(pub.ctrl_name) as r:
                eng.insert(0, 99)
                eng.flush()
                latest = r.latest_epoch()
                for kind, args in [("core", (0,)), ("core", (99,)),
                                   ("core", ("nope",)),
                                   ("in_k_core", (0, 1)),
                                   ("in_k_core", (0, 99)),
                                   ("in_k_core", ("nope", 2))]:
                    fast = r.answer(kind, args)            # unpinned path
                    slow = r.answer(kind, args, pin_epoch=latest)
                    assert fast == slow
        finally:
            eng.close()
            pub.close()

    def test_structured_refusals(self):
        with EpochPublisher() as pub:
            with SnapshotReader(pub.ctrl_name) as r:
                # nothing published yet
                value, epoch, _, err = r.answer("degeneracy", ())
                assert value is None and epoch == NO_EPOCH
                assert err[0] == E_EPOCH_UNAVAILABLE
                publish_map(pub, 1, 0, {"a": 2, "b": 2})
                assert r.answer("nope", ())[3][0] == E_UNKNOWN_QUERY
                value, epoch, _, err = r.answer("core", ("zz",))
                assert err[0] == E_UNKNOWN_VERTEX and epoch == 1
                assert r.answer("in_k_core", ("a", "x"))[3][0] == E_BAD_REQUEST
                assert r.answer("core", ())[3][0] == E_BAD_REQUEST
                resp = raw_to_response(r.answer("core", ("zz",)))
                assert resp.status == STATUS_QUARANTINED
                assert resp.error["code"] == E_UNKNOWN_VERTEX

    def test_raw_envelope_to_response(self):
        with EpochPublisher() as pub:
            publish_map(pub, 4, 2, {"x": 1})
            with SnapshotReader(pub.ctrl_name) as r:
                resp = raw_to_response(r.answer("core", ("x",)), id="r1")
                assert resp.status == STATUS_COMMITTED
                assert resp.value == 1 and resp.snapshot_epoch == 4
                assert resp.staleness_epochs == 0 and resp.id == "r1"


class TestSeqlock:
    def test_torn_read_retries_then_bounds(self):
        with EpochPublisher() as pub:
            publish_map(pub, 1, 0, {"a": 1})
            active = pub._active
            hdr = pub._bufs[active].i64
            with SnapshotReader(pub.ctrl_name, max_spins=200) as r:
                assert r.answer("degeneracy", ())[0] == 1
                seq = hdr[QP_SEQ]
                hdr[QP_SEQ] = seq + 1  # odd: publisher "mid-write"
                with pytest.raises(RuntimeError, match="did not stabilize"):
                    r.answer("degeneracy", ())
                assert r.retries >= 199
                # a fast-path point read refuses to answer torn too: it
                # falls back to the general path, which spins and bounds
                with pytest.raises(RuntimeError, match="did not stabilize"):
                    r.answer("core", ("a",))
                hdr[QP_SEQ_ECHO] = seq + 2
                hdr[QP_SEQ] = seq + 2  # stable again (stamps in lockstep)
                assert r.answer("degeneracy", ())[0] == 1
                assert r.answer("core", ("a",))[0] == 1
                assert r.stats()["retries"] >= 398

    def test_echo_mismatch_detected_as_torn(self):
        """The post-payload ``QP_SEQ_ECHO`` bracket: a buffer whose main
        stamp looks stable but whose echo disagrees is refused as torn —
        on both the general and the fused point path."""
        with EpochPublisher() as pub:
            publish_map(pub, 1, 0, {"a": 1})
            hdr = pub._bufs[pub._active].i64
            with SnapshotReader(pub.ctrl_name, max_spins=200) as r:
                assert r.answer("core", ("a",))[0] == 1
                echo = hdr[QP_SEQ_ECHO]
                hdr[QP_SEQ_ECHO] = echo + 2  # even, but out of step
                with pytest.raises(RuntimeError, match="did not stabilize"):
                    r.answer("degeneracy", ())
                with pytest.raises(RuntimeError, match="did not stabilize"):
                    r.answer("core", ("a",))
                hdr[QP_SEQ_ECHO] = echo  # back in lockstep
                assert r.answer("degeneracy", ())[0] == 1
                assert r.answer("core", ("a",))[0] == 1

    def test_regrow_keeps_readers_attached(self):
        with EpochPublisher(capacity=2, vocab_capacity=64) as pub:
            publish_map(pub, 1, 0, {0: 1, 1: 1})
            with SnapshotReader(pub.ctrl_name) as r:
                assert r.answer("core", (0,))[0] == 1
                gen0 = r.stats()["generation"]
                cores = {i: 1 for i in range(40)}  # forces a regrow
                publish_map(pub, 2, 0, cores)
                value, epoch, _, err = r.answer("shell_histogram", ())
                assert err is None and epoch == 2
                assert value == {1: 40}
                assert r.stats()["generation"] > gen0


def verify_buffers(pub, store):
    """Both buffers' payloads byte-equal the store's array rolled back to
    the epoch each is stamped with (slots past a buffer's ``QP_N`` are
    unknown at that epoch).  Only a buffer that predates the store's
    retained range is skipped, and never the front one."""
    checked = 0
    for b, seg in enumerate(pub._bufs):
        hdr = seg.i64
        epoch, n = hdr[QP_EPOCH], hdr[QP_N]
        if epoch == NO_EPOCH or not store.min_epoch <= epoch <= store.epoch:
            assert b != pub._active, epoch
            continue
        off = HEADER_SLOTS * INT64
        # copied in its own statement: a slice kept alive by assertion
        # introspection would pin the segment open
        got = bytes(seg.shm.buf[off:off + n * INT64])
        want = store.rolled_back(epoch)
        assert got == want[:n].tobytes(), (b, epoch)
        assert set(want[n:]) <= {CORE_UNKNOWN}, (b, epoch)
        checked += 1
    return checked


class DeltaWatch:
    """Wraps a publisher's ``publish`` to verify both buffers after every
    call, and counts slot-only against whole-array buffer writes.
    ``drop_previous`` is a seeded mutant: it forgets the previous
    publish's slots, so the back buffer keeps stale values."""

    def __init__(self, pub, store_of, drop_previous=False):
        self.slot_writes = self.full_writes = self.buffers_checked = 0
        publish, write = pub.publish, pub._write_buffer

        def checked_publish(*args):
            publish(*args)
            if drop_previous and pub._changed is not None:
                pub._changed = set()
            self.buffers_checked += verify_buffers(pub, store_of())

        def counted_write(b, epoch, min_epoch, payload, slots=None):
            if slots is None:
                self.full_writes += 1
            else:
                self.slot_writes += 1
            write(b, epoch, min_epoch, payload, slots)

        pub.publish = checked_publish
        pub._write_buffer = counted_write


def delta_stream(tmp_path, drop_previous=False):
    """A seeded mixed stream through an engine whose publisher starts
    small (so it regrows), then a crash restart from the journal onto the
    same publisher (the new store adopts its interner), then more
    updates; ``check()`` runs throughout."""
    path = str(tmp_path / "delta.journal")
    cfg = EngineConfig(max_batch=3, journal_path=path, checkpoint_every=5)
    eng = Engine(DynamicGraph(erdos_renyi(12, 24, seed=4)), cfg)
    pub = eng.enable_queryplane(capacity=4, vocab_capacity=64)
    current = [eng]
    watch = DeltaWatch(pub, lambda: current[0].snapshots, drop_previous)
    try:
        ops = update_stream(21, 40, 160)
        for n, (op, u, v) in enumerate(ops[:90]):
            getattr(eng, op)(u, v)
            if n % 30 == 29:
                eng.check()
        eng.flush()
        eng.close()
        eng = current[0] = Engine.from_journal(path, cfg)
        eng.enable_queryplane(publisher=pub)
        for n, (op, u, v) in enumerate(ops[90:]):
            if op == "insert" and eng.maintainer.graph.has_edge(u, v):
                continue
            if op == "remove" and not eng.maintainer.graph.has_edge(u, v):
                continue
            getattr(eng, op)(u, v)
            if n % 30 == 29:
                eng.check()
        eng.check()
        return watch, pub
    finally:
        eng.close()
        pub.close()


class TestDeltaPublish:
    def test_buffers_equal_rolled_back_after_every_publish(self, tmp_path):
        watch, pub = delta_stream(tmp_path)
        assert pub._generation >= 2  # regrown at least twice
        # the regrows, the first publish and the restart copy the whole
        # array; every other publish writes only changed slots
        assert watch.full_writes >= 6
        assert watch.slot_writes > 3 * watch.full_writes
        assert watch.buffers_checked > 2 * watch.slot_writes

    def test_mutant_dropping_previous_slots_is_caught(self, tmp_path):
        with pytest.raises(AssertionError):
            delta_stream(tmp_path, drop_previous=True)

    def test_router_epoch_jumps(self):
        """The sharded router stamps global epochs that jump by several
        shard commits per stitch; the delta publish stays exact."""
        eng = ShardedEngine(DynamicGraph(erdos_renyi(16, 30, seed=6)),
                            EngineConfig(shards=2, max_batch=3))
        pub = eng.enable_queryplane()
        watch = DeltaWatch(pub, lambda: eng._snapshots)
        try:
            for n, (op, u, v) in enumerate(update_stream(8, 30, 80)):
                getattr(eng, op)(u, v)
                if n % 7 == 6:
                    eng.flush()
            eng.check()
            assert watch.slot_writes > 5
        finally:
            eng.close()
            pub.close()

    def test_check_catches_a_drifted_front_buffer(self):
        eng = Engine(DynamicGraph(erdos_renyi(10, 20, seed=1)),
                     EngineConfig(max_batch=2))
        pub = eng.enable_queryplane()
        try:
            eng.insert(0, 11)
            eng.insert(1, 11)
            eng.check()
            front = pub._bufs[pub._active].i64
            front[HEADER_SLOTS + eng.snapshots.interner.lookup(11)] += 1
            with pytest.raises(AssertionError, match="front buffer"):
                eng.check()
        finally:
            eng.close()
            pub.close()


class TestPinContract:
    def test_pin_previous_epoch_reports_staleness(self):
        with EpochPublisher() as pub:
            publish_map(pub, 1, 0, {"a": 1})
            publish_map(pub, 2, 0, {"a": 2})
            with SnapshotReader(pub.ctrl_name) as r:
                value, epoch, stale, err = r.answer("core", ("a",),
                                                    pin_epoch=1)
                assert (value, epoch, stale, err) == (1, 1, 1, None)
                value, epoch, stale, err = r.answer("core", ("a",),
                                                    pin_epoch=2)
                assert (value, epoch, stale, err) == (2, 2, 0, None)

    def test_pin_previous_epoch_survives_regrow(self):
        """A regrow re-stamps the fresh buffers with the previous
        epoch, so their payload must still *be* the previous epoch's:
        a reader pinned there keeps getting pre-grow answers — never
        the regrowing commit's values under the old stamp."""
        with EpochPublisher(capacity=2, vocab_capacity=64) as pub:
            publish_map(pub, 1, 0, {"a": 1, "b": 1})
            with SnapshotReader(pub.ctrl_name) as r:
                assert r.answer("core", ("a",), pin_epoch=1)[:2] == (1, 1)
                cores = {"a": 5, "b": 1}
                cores.update({i: 2 for i in range(30)})  # forces a regrow
                publish_map(pub, 2, 0, cores)
                assert r.answer("core", ("a",))[:2] == (5, 2)
                # epoch 1 still answers with its own values, not 5
                assert r.answer("core", ("a",), pin_epoch=1) == (1, 1, 1,
                                                                 None)
                # vertices first seen by the regrowing commit are
                # unknown at the pinned epoch, not leaked backwards
                value, epoch, _, err = r.answer("core", (0,), pin_epoch=1)
                assert value is None and epoch == 1
                assert err[0] == E_UNKNOWN_VERTEX
                # aggregates at the pin see only the pre-grow universe
                assert r.answer("shell_histogram", (),
                                pin_epoch=1)[0] == {1: 2}
                assert r.answer("shell_histogram", ())[0] == {1: 1, 2: 30,
                                                              5: 1}

    def test_pin_unbuffered_and_truncated(self):
        with EpochPublisher() as pub:
            for e in range(1, 6):
                publish_map(pub, e, 2, {"a": e})
            with SnapshotReader(pub.ctrl_name) as r:
                # within [min_epoch, latest) but no longer double-buffered
                assert r.answer("core", ("a",), pin_epoch=3)[3][0] \
                    == E_EPOCH_UNAVAILABLE
                # below the min_epoch floor: structured truncation refusal
                assert r.answer("core", ("a",), pin_epoch=1)[3][0] \
                    == E_EPOCH_TRUNCATED

    def test_pin_below_min_after_checkpoint_recovery(self, tmp_path):
        """A restarted engine rebinds the same buffers; pins below the
        checkpoint-truncated ``min_epoch`` draw the structured refusal."""
        path = str(tmp_path / "qp.journal")
        cfg = EngineConfig(max_batch=2, journal_path=path,
                           checkpoint_every=2)
        eng = Engine(DynamicGraph([(0, 1)]), cfg)
        pub = eng.enable_queryplane()
        try:
            for op, u, v in update_stream(11, 12, 20):
                getattr(eng, op)(u, v)
            eng.flush()
            eng.close()  # primary dies; journal + shared buffers survive

            eng = Engine.from_journal(path, cfg)
            eng.enable_queryplane(publisher=pub)
            assert eng.snapshots.min_epoch > 0
            with SnapshotReader(pub.ctrl_name) as r:
                raw = r.answer("degeneracy", (),
                               pin_epoch=eng.snapshots.min_epoch - 1)
                assert raw[3][0] == E_EPOCH_TRUNCATED
                # the live epoch still answers bit-identically
                value, epoch, _, err = r.answer("shell_histogram", ())
                assert err is None
                assert value == eng.snapshots.view(epoch).shell_histogram()
        finally:
            eng.close()
            pub.close()

    def test_pin_below_min_after_promotion(self):
        """A promoted replica's plane starts at the follower's adopted
        floor: epochs before it are truncated, not silently wrong."""
        edges = erdos_renyi(16, 40, seed=2)
        with ReplicaSet(DynamicGraph(edges), replicas=2, ship_lag=2,
                        max_batch=2, checkpoint_every=2) as rs:
            for op, u, v in update_stream(9, 16, 24):
                getattr(rs, op)(u, v)
            rs.flush()
            rs.sync()
            rs.kill_primary()  # promote_on_crash installs a new primary
            assert rs.primary is not None
            pub = rs.primary.enable_queryplane()
            try:
                floor = rs.primary.snapshots.min_epoch
                assert floor > 0
                with SnapshotReader(pub.ctrl_name) as r:
                    raw = r.answer("degeneracy", (), pin_epoch=floor - 1)
                    assert raw[3][0] == E_EPOCH_TRUNCATED
                    value, epoch, _, err = r.answer("shell_histogram", ())
                    assert err is None and epoch >= floor
                    assert value == rs.primary.snapshots.view(
                        epoch).shell_histogram()
            finally:
                pub.close()

    def test_follower_midstream_attach_moves_floor(self):
        eng = Engine(DynamicGraph([(0, 1)]),
                     EngineConfig(max_batch=2, checkpoint_every=2))
        try:
            for op, u, v in update_stream(13, 10, 16):
                getattr(eng, op)(u, v)
            eng.flush()
            recs = eng.journal.records
            cut = max(i for i, r in enumerate(recs)
                      if r["t"] == "checkpoint")
            assert cut > 0
            late = FollowerEngine(0, eng.config)
            late.receive(recs[cut:])  # attaches from the checkpoint
            late.replay()
            assert late.snapshots.min_epoch > 0
            pub = late.enable_queryplane()
            try:
                with SnapshotReader(pub.ctrl_name) as r:
                    raw = r.answer("degeneracy", (), pin_epoch=0)
                    assert raw[3][0] == E_EPOCH_TRUNCATED
                    value, epoch, _, err = r.answer("degeneracy", ())
                    assert err is None
                    assert value == late.view(epoch).degeneracy()
            finally:
                pub.close()
        finally:
            eng.close()


class TestEvictedEpochRebuild:
    def test_sampled_answers_verify_after_eviction(self):
        """Answers stamped with epochs the head has since moved past
        still verify bit-identical — the store rolls the view back
        through its ring, so the bench's equality check is exact
        anywhere inside the retention horizon."""
        eng = Engine(DynamicGraph(erdos_renyi(20, 50, seed=4)),
                     EngineConfig(max_batch=1))
        pub = eng.enable_queryplane()
        rng = random.Random(3)
        sampled = []
        try:
            with SnapshotReader(pub.ctrl_name) as r:
                for op, u, v in update_stream(21, 20, 30):
                    getattr(eng, op)(u, v)
                    eng.flush()
                    kind = rng.choice(ALL_KINDS)
                    args = query_args(kind, 20, rng)
                    sampled.append((kind, args, r.answer(kind, args)))
            # far behind the head, inside the retention horizon
            assert eng.snapshots.epoch > 16
            assert eng.snapshots.min_epoch == 0
            for kind, args, (value, epoch, _, err) in sampled:
                view = eng.snapshots.view(epoch)  # rolled back
                want = expected(view, kind, args)
                if err is not None:
                    assert kind == "core" and want is None
                else:
                    assert value == want
        finally:
            eng.close()
            pub.close()


class TestReaderPool:
    def test_pool_answers_match_engine(self):
        eng = Engine(DynamicGraph(erdos_renyi(30, 90, seed=6)),
                     EngineConfig())
        pub = eng.enable_queryplane()
        rng = random.Random(17)
        try:
            with ReaderPool(pub.ctrl_name, readers=2) as pool:
                for op, u, v in update_stream(8, 30, 12):
                    getattr(eng, op)(u, v)
                eng.flush()
                items = [
                    (k, query_args(k, 30, rng))
                    for k in ALL_KINDS for _ in range(6)
                ]
                raws = pool.query_many(items)  # raw envelopes, in order
                for (kind, args), (value, epoch, _, err) in zip(items, raws):
                    view = eng.snapshots.view(epoch)
                    want = expected(view, kind, args)
                    if err is not None:
                        assert kind == "core" and want is None
                    else:
                        assert value == want
                assert pool.reads_total() == len(items)
                assert sum(pool.counters()) == len(items)
                assert len(pool.stats()) == 2
        finally:
            eng.close()
            pub.close()

    def test_preload_run_partitions(self):
        with EpochPublisher() as pub:
            publish_map(pub, 1, 0, {i: 1 + i % 3 for i in range(12)})
            with ReaderPool(pub.ctrl_name, readers=2) as pool:
                chunk = [("core", (i % 12,)) for i in range(40)]
                slices = [chunk[r::2] for r in range(2)]
                acks = pool.preload(slices)
                assert acks == [len(slices[0]), len(slices[1])]
                per_reader = pool.run(sample_every=4)
                assert len(per_reader) == 2
                for r, got in enumerate(per_reader):
                    assert [i for i, _ in got] == list(
                        range(0, len(slices[r]), 4))
                    for i, raw in got:
                        kind, args = slices[r][i]
                        assert raw[0] == 1 + args[0] % 3
                # rerunning the staged slice keeps counting reads
                pool.run(sample_every=4)
                assert pool.reads_total() == 2 * len(chunk)

    def test_close_survives_reader_error_reply(self):
        """A reader that replied ``('err', ...)`` must not wedge
        ``close()``: every process is still stopped and joined, and the
        shared counter segment is released."""
        with EpochPublisher() as pub:
            publish_map(pub, 1, 0, {"a": 1})
            pool = ReaderPool(pub.ctrl_name, readers=2)
            # malformed frame: the worker's unpack raises, it replies err
            pool.dispatch([("core",)])
            pool.close()
            assert pool._counter is None
            assert all(not p.is_alive() for p in pool._procs)
            pool.close()  # idempotent after the error path too

    def test_pool_refusal_is_a_response(self):
        with EpochPublisher() as pub:
            publish_map(pub, 3, 2, {"a": 1})
            with ReaderPool(pub.ctrl_name, readers=1) as pool:
                resp = pool.query("degeneracy", pin_epoch=1)
                assert resp.status == STATUS_QUARANTINED
                assert resp.error["code"] == E_EPOCH_TRUNCATED


class TestQueryPressureFeedback:
    def test_wait_free_reads_trigger_pressure_cut(self):
        """Satellite: the pool's shared counter feeds the batcher, so
        ``query_pressure`` cuts keep firing although the reads never
        enter the engine loop."""
        eng = Engine(DynamicGraph([(0, 1), (1, 2)]),
                     EngineConfig(max_batch=50, max_delay=10_000.0,
                                  query_pressure=5))
        pub = eng.enable_queryplane()
        try:
            with ReaderPool(pub.ctrl_name, readers=1) as pool:
                eng.bind_read_counter(pool.reads_total)
                eng.insert(2, 3)
                assert eng.snapshots.epoch == 0  # batched, not committed
                pool.query_many([("degeneracy", ())] * 6)
                eng.insert(3, 4)  # submit polls the counter -> cut
                assert eng.snapshots.epoch >= 1
                assert eng.metrics()["cuts"]["pressure"] >= 1
                eng.flush()
            eng.bind_read_counter(None)
        finally:
            eng.close()
            pub.close()

    def test_unbind_survives_counter_release(self):
        eng = Engine(DynamicGraph([(0, 1)]), EngineConfig())
        pub = eng.enable_queryplane()
        try:
            pool = ReaderPool(pub.ctrl_name, readers=1)
            eng.bind_read_counter(pool.reads_total)
            pool.close()
            eng.bind_read_counter(None)
            eng.insert(1, 2)  # must not touch the dead counter segment
            eng.flush()
            assert eng.snapshots.epoch >= 1
        finally:
            eng.close()
            pub.close()
