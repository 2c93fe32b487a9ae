"""Tests for epoch-versioned snapshots (repro.service.snapshots): the
dense core array, held-view isolation, the retention ring and the
store-vs-maintainer check."""

import pickle
import random
from collections.abc import MutableSet, Set as AbstractSet

import pytest

from repro.core import queries
from repro.core.decomposition import core_decomposition
from repro.core.maintainer import DirectOrderMaintainer
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.parallel.batch import ParallelOrderMaintainer
from repro.service.engine import Engine, EngineConfig
from repro.service.queryplane import SnapshotReader
from repro.service.requests import E_EPOCH_TRUNCATED
from repro.service.snapshots import (
    DELTA_EPOCHS,
    QUERY_KINDS,
    FrozenCoreMap,
    SnapshotStore,
)


def triangle_plus_tail():
    return DynamicGraph([(0, 1), (1, 2), (0, 2), (2, 3)])


def oracle_answers(cores, probes):
    """Every ``QUERY_KINDS`` answer computed from a plain dict with
    :mod:`repro.core.queries`, keyed like :func:`view_answers`."""
    out = {
        ("cores", ()): cores,
        ("degeneracy", ()): queries.degeneracy(cores),
        ("innermost", ()): queries.innermost_core(cores),
        ("shell_histogram", ()): queries.shell_histogram(cores),
    }
    for k in range(0, queries.degeneracy(cores) + 2):
        out[("k_core", (k,))] = queries.k_core_vertices(cores, k)
        out[("k_shell", (k,))] = queries.k_shell(cores, k)
        for u in probes:
            out[("in_k_core", (u, k))] = queries.in_k_core(cores, u, k)
    for u in probes:
        out[("core", (u,))] = cores.get(u)
    return out


def view_answers(view, keys):
    return {key: QUERY_KINDS[key[0]](view, key[1]) for key in keys}


class TestSnapshotStore:
    def test_views_are_isolated_per_epoch(self):
        m = ParallelOrderMaintainer(triangle_plus_tail(), num_workers=2)
        store = SnapshotStore(m)
        v0 = store.view()
        assert v0.epoch == 0 and v0.core(3) == 1
        res = m.insert_edges([(0, 3), (1, 3)])
        touched = {0, 1, 2, 3} | {w for s in res.stats for w in s.v_star}
        assert store.commit(touched) == 1
        # the old view object still answers with epoch-0 values
        assert v0.core(3) == 1
        assert store.view().core(3) == 3
        assert store.view(0).core(3) == 1

    def test_view_queries_match_queries_module(self):
        m = ParallelOrderMaintainer(triangle_plus_tail(), num_workers=2)
        store = SnapshotStore(m)
        v = store.view()
        assert v.k_core(2) == {0, 1, 2}
        assert v.k_shell(1) == {3}
        assert v.in_k_core(0, 2) and not v.in_k_core(3, 2)
        assert v.degeneracy() == 2
        kmax, inner = v.innermost()
        assert kmax == 2 and inner == {0, 1, 2}
        assert v.shell_histogram() == {1: 1, 2: 3}
        assert v.core(99) is None and 99 not in v

    def test_head_view_is_reused_until_the_next_commit(self):
        m = DirectOrderMaintainer(triangle_plus_tail())
        store = SnapshotStore(m)
        head = store.view()
        assert store.view() is head and store.view(0) is head
        store.commit_batch("+", [(0, 3)], m.insert_edges([(0, 3)]))
        assert store.view() is not head and store.view().epoch == 1

    def test_held_view_answers_its_epoch_across_commits(self):
        """A view held at epoch e keeps every answer of e while three
        later commits rewrite the slots of its vertices (and add new
        ones)."""
        g = DynamicGraph(erdos_renyi(12, 20, seed=3))
        m = DirectOrderMaintainer(g)
        store = SnapshotStore(m)
        store.commit_batch("+", [(0, 20)], m.insert_edges([(0, 20)]))
        held = store.view()
        at_e = dict(m.cores())
        probes = sorted(at_e) + [21, "nope"]
        want = oracle_answers(at_e, probes)
        for batch in ([(0, 1), (1, 20), (0, 21)], [(2, 20), (3, 20)],
                      [(20, 21), (1, 21), (2, 21)]):
            batch = [e for e in batch if not m.graph.has_edge(*e)]
            store.commit_batch("+", batch, m.insert_edges(batch))
        assert store.epoch == held.epoch + 3
        assert store.view().core(20) != at_e[20]  # the head did move
        assert view_answers(held, want) == want

    def test_mixed_stream_matches_decomposition_at_every_epoch(self):
        """String and tuple vertex ids, inserts and removes: every
        retained epoch answers every query kind exactly as a
        from-scratch decomposition of that epoch's edge set."""
        rng = random.Random(29)
        names = [f"v{i}" for i in range(8)] + [("t", i) for i in range(8)]
        edges = {("v0", ("t", 0)), ("v1", "v2")}
        m = DirectOrderMaintainer(DynamicGraph(sorted(edges, key=repr)))
        store = SnapshotStore(m)
        seen = {x for e in edges for x in e}
        truth = {0: (set(edges), set(seen))}
        for _ in range(40):
            kind = "-" if edges and rng.random() < 0.3 else "+"
            if kind == "+":
                batch = set()
                while len(batch) < rng.randint(1, 3):
                    u, v = rng.sample(names, 2)
                    if (u, v) not in edges and (v, u) not in edges \
                            and (v, u) not in batch:
                        batch.add((u, v))
                batch = sorted(batch, key=repr)
                result = m.insert_edges(batch)
                edges.update(batch)
                seen.update(x for e in batch for x in e)
            else:
                batch = rng.sample(sorted(edges, key=repr),
                                   min(len(edges), rng.randint(1, 2)))
                result = m.remove_edges(batch)
                edges.difference_update(batch)
            epoch = store.commit_batch(kind, batch, result)
            truth[epoch] = (set(edges), set(seen))
        assert store.min_epoch == 0
        for epoch, (es, vs) in truth.items():
            g = DynamicGraph(sorted(es, key=repr))
            for x in vs:
                g.add_vertex(x)
            cores = core_decomposition(g).core
            want = oracle_answers(cores, names + ["absent"])
            assert view_answers(store.view(epoch), want) == want, epoch

    def test_cached_results_are_read_only(self):
        """The cached accessors hand the *same* object to every caller
        (and the in-engine QUERY_KINDS path ships it as a response
        value) — mutating one must raise, not silently corrupt the
        per-epoch cache served to every later query."""
        v = SnapshotStore(DirectOrderMaintainer(triangle_plus_tail())).view()
        for mutate in (
            lambda: v.cores().__setitem__(9, 9),
            lambda: v.cores().pop(0),
            lambda: v.cores().update({0: 9}),
            lambda: v.cores().clear(),
            lambda: v.shell_histogram().__setitem__(2, 0),
        ):
            with pytest.raises(TypeError, match="read-only"):
                mutate()
        assert isinstance(v.k_core(2), frozenset)
        # k_shell/innermost lend a read-only Set over the store's shell:
        # no mutators, equal to and hashing like the frozenset, and it
        # pickles to a frozenset
        for got, want in ((v.k_shell(1), {3}),
                          (v.innermost()[1], {0, 1, 2})):
            assert isinstance(got, AbstractSet)
            assert not isinstance(got, MutableSet)
            for name in ("add", "discard", "remove", "pop", "clear",
                         "update", "__ior__", "__iand__"):
                assert not hasattr(got, name), name
            assert got == frozenset(want) and frozenset(want) == got
            assert hash(got) == hash(frozenset(want))
            assert got | {99} == frozenset(want) | {99}
            assert type(got | {99}) is frozenset
            clone = pickle.loads(pickle.dumps(got))
            assert type(clone) is frozenset and clone == frozenset(want)
        # frozen results still compare as the plain types
        assert v.cores() == {0: 2, 1: 2, 2: 2, 3: 1}
        assert v.k_core(2) == {0, 1, 2}
        # the documented escape hatches give private mutable copies
        mine = dict(v.cores())
        mine[0] = 99
        assert v.cores()[0] == 2

    def test_frozen_map_pickles_as_private_plain_dict(self):
        """Cross-process consumers (reader pools, shard pipes) receive
        their own plain dict — mutable, and detached from the cache."""
        import pickle

        v = SnapshotStore(DirectOrderMaintainer(DynamicGraph([(0, 1)]))).view()
        clone = pickle.loads(pickle.dumps(v.cores()))
        assert type(clone) is dict and clone == v.cores()
        clone[0] = 99  # their copy, not the shared cache
        assert v.cores()[0] == 1
        assert type(v.cores().copy()) is dict
        assert isinstance(v.cores(), FrozenCoreMap)

    def test_epoch_out_of_range(self):
        store = SnapshotStore(ParallelOrderMaintainer(triangle_plus_tail()))
        with pytest.raises(ValueError):
            store.view(7)
        with pytest.raises(ValueError):
            store.view(-1)


def mixed_batches(seed, nv, steps, graph):
    """A seeded stream of small insert/remove batches on ``nv`` vertices
    of ``graph``'s edge set, applied by the caller: yields ``(kind,
    batch)``."""
    rng = random.Random(seed)
    edges = {tuple(sorted(e)) for e in graph.edges()}
    for _ in range(steps):
        if edges and rng.random() < 0.4:
            batch = rng.sample(sorted(edges), min(len(edges), rng.randint(1, 3)))
            edges.difference_update(batch)
            yield "-", batch
        else:
            batch = set()
            while len(batch) < rng.randint(1, 4):
                u, v = sorted(rng.sample(range(nv), 2))
                if (u, v) not in edges:
                    batch.add((u, v))
            edges.update(batch)
            yield "+", sorted(batch)


def commit_next(store, m, kind, batch):
    op = m.insert_edges if kind == "+" else m.remove_edges
    return store.commit_batch(kind, batch, op(batch))


class TestShellCopyOnWrite:
    """``k_shell``/``innermost`` answers wrap the store's own shell sets;
    a commit copies a shell before writing it only while an answer that
    wraps it is alive."""

    def test_held_answers_keep_their_epoch(self):
        """Answers and pinned views taken at every epoch, held across
        more than ``DELTA_EPOCHS`` commits that move their shells, still
        equal their epoch's from-scratch oracle."""
        nv = 24
        g = DynamicGraph(erdos_renyi(nv, 40, seed=5))
        m = DirectOrderMaintainer(g)
        store = SnapshotStore(m)
        held = []

        def take():
            cores = core_decomposition(m.graph).core
            kmax = queries.degeneracy(cores)
            view = store.view()
            answers = {k: view.k_shell(k) for k in range(kmax + 2)}
            want = {k: queries.k_shell(cores, k) for k in answers}
            inner = view.innermost()
            assert inner == queries.innermost_core(cores)
            held.append((view, answers, want, inner,
                         queries.innermost_core(cores)))

        def verify(read_views):
            for view, answers, want, inner, want_inner in held:
                assert answers == want, view.epoch
                assert inner == want_inner, view.epoch
                if read_views:
                    assert {k: view.k_shell(k) for k in want} == want
                    assert view.innermost() == want_inner

        take()
        moved = 0
        for kind, batch in mixed_batches(11, nv, DELTA_EPOCHS + 24, g):
            before = dict(m.cores())
            commit_next(store, m, kind, batch)
            moved += dict(m.cores()) != before
            verify(read_views=False)
            take()
            if store.epoch % 8 == 0:
                # read every held view while the ring still reaches it,
                # so later reads come from its own rolled-back copy
                verify(read_views=True)
        assert store.epoch > DELTA_EPOCHS and moved > DELTA_EPOCHS // 2
        verify(read_views=False)
        assert store.min_epoch > held[0][0].epoch
        for view, _, want, _, want_inner in held:
            if view.epoch % 8 == 0 or view.epoch >= store.min_epoch:
                assert {k: view.k_shell(k) for k in want} == want
                assert view.innermost() == want_inner

    def test_dropped_answers_copy_nothing(self):
        """With every answer dropped before the commit, the commit writes
        the store's shell sets in place: each keeps its identity.  With
        answers held, the commit queues its writes to their shells (still
        no copy) and the answers keep their epoch; once they are dropped,
        the next commit applies the queues in place."""
        nv = 24
        g = DynamicGraph(erdos_renyi(nv, 40, seed=7))
        m = DirectOrderMaintainer(g)
        store = SnapshotStore(m)
        written = queued = 0
        for step, (kind, batch) in enumerate(mixed_batches(3, nv, 60, g)):
            hold = step % 2 == 1
            head = store.view()
            answers = {k: head.k_shell(k) for k in range(head.degeneracy() + 1)}
            inner = head.innermost()
            if not hold:
                del answers, inner
            sets = dict(store._shells)
            contents = {k: frozenset(s) for k, s in sets.items()}
            commit_next(store, m, kind, batch)
            for k, s in sets.items():
                assert store._shells.get(k) in (None, s), k  # no copy
                if hold:
                    assert answers[k] == contents[k]
                    queued += k in store._pending
            if hold:
                assert inner[1] == contents[inner[0]]
                del answers, inner
            else:
                assert not store._pending
                written += sum(store._shells.get(k) != c
                               for k, c in contents.items())
            store.check()
        assert written > 10 and queued > 10


    def test_iterating_a_dropped_answer_across_commits(self):
        """``for u in view.k_shell(k)`` keeps no name for the answer, yet
        commits made while the loop runs must not touch the set it
        walks: the loop sees exactly the shell of its epoch."""
        nv = 24
        g = DynamicGraph(erdos_renyi(nv, 40, seed=5))
        m = DirectOrderMaintainer(g)
        store = SnapshotStore(m)
        stream = mixed_batches(17, nv, 200, g)
        for k in range(1, queries.degeneracy(m.cores()) + 1):
            want = queries.k_shell(dict(m.cores()), k)
            seen = []
            for u in store.view().k_shell(k):
                seen.append(u)
                commit_next(store, m, *next(stream))
            assert sorted(seen) == sorted(want)
        store.check()

    def test_queue_behind_a_long_held_answer_is_bounded(self):
        """One answer held across many commits: its shell's queued
        writes never outgrow the shell (plus a small floor), the queue
        is settled into a copy when it would, and the answer keeps its
        epoch throughout."""
        nv = 30
        g = DynamicGraph(erdos_renyi(nv, 60, seed=9))
        m = DirectOrderMaintainer(g)
        store = SnapshotStore(m)
        k = max(store._sizes, key=store._sizes.get)
        held = store.view().k_shell(k)
        want = frozenset(held)
        copied = False
        for kind, batch in mixed_batches(13, nv, 4 * DELTA_EPOCHS, g):
            shell = store._shells.get(k)
            commit_next(store, m, kind, batch)
            copied |= store._shells.get(k) is not shell
            bound = max(len(store._shells.get(k, ())), 64)
            assert len(store._pending.get(k, ())) <= bound
            assert held == want
        assert copied
        store.check()
        assert held == want


class TestRetention:
    def test_ring_is_bounded_and_older_epochs_are_refused(self):
        """After ``DELTA_EPOCHS + 10`` commits the ring holds exactly
        ``DELTA_EPOCHS`` of them; the ten epochs before its horizon are
        refused by ``Engine.view`` and, through the query plane, by a
        pinned reader."""
        eng = Engine(DynamicGraph([(0, 1)]), EngineConfig(max_batch=1))
        pub = eng.enable_queryplane()
        try:
            for i in range(DELTA_EPOCHS + 10):
                eng.insert(i + 1, i + 2)
            eng.flush()
            store = eng.snapshots
            assert store.epoch == DELTA_EPOCHS + 10
            assert len(store._ring) == DELTA_EPOCHS
            assert store.min_epoch == 10
            for e in (0, 9):
                with pytest.raises(ValueError):
                    eng.view(e)
            assert eng.view(10).core(12) is None
            assert eng.view(10).core(11) == 1
            with SnapshotReader(pub.ctrl_name) as r:
                raw = r.answer("degeneracy", (), pin_epoch=9)
                assert raw[3][0] == E_EPOCH_TRUNCATED
        finally:
            eng.close()
            pub.close()


class TestEngineCheck:
    def test_check_catches_a_drifted_committed_slot(self):
        eng = Engine(DynamicGraph(erdos_renyi(10, 20, seed=1)),
                     EngineConfig(max_batch=2))
        try:
            eng.insert(0, 11)
            eng.insert(1, 11)
            eng.check()
            store = eng.snapshots
            store._cores[store.interner.lookup(11)] += 1
            with pytest.raises(AssertionError, match="out of sync"):
                eng.check()
        finally:
            eng.close()
