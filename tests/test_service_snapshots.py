"""Tests for epoch-versioned snapshots (repro.service.snapshots) and the
CoreHistory batch-epoch extensions."""

import pytest

from repro.core.decomposition import core_decomposition
from repro.core.history import CoreHistory
from repro.core.maintainer import OrderMaintainer
from repro.graph.dynamic_graph import DynamicGraph
from repro.parallel.batch import ParallelOrderMaintainer
from repro.service.snapshots import (
    CACHE_EPOCHS,
    FrozenCoreMap,
    SnapshotStore,
    SnapshotView,
)


def triangle_plus_tail():
    return DynamicGraph([(0, 1), (1, 2), (0, 2), (2, 3)])


class TestCoreHistoryEpochs:
    def test_record_epoch_advances_time_and_records(self):
        m = ParallelOrderMaintainer(triangle_plus_tail(), num_workers=2)
        h = CoreHistory(m)
        m.insert_edges([(0, 3), (1, 3)])
        t = h.record_epoch([0, 1, 2, 3])
        assert t == 1 == h.t
        assert h.core_at(3, 0) == 1      # before the batch
        assert h.core_at(3, 1) == 3      # after the batch
        h.check()

    def test_cores_at_materializes_full_snapshot(self):
        m = ParallelOrderMaintainer(triangle_plus_tail(), num_workers=2)
        h = CoreHistory(m)
        before = h.cores_at(0)
        assert before == core_decomposition(triangle_plus_tail()).core
        m.insert_edges([(0, 3), (1, 3)])
        h.record_epoch([0, 1, 2, 3])
        assert h.cores_at(0) == before   # old epoch unchanged
        assert h.cores_at(1) == m.cores()

    def test_vertex_absent_before_first_record(self):
        m = OrderMaintainer(DynamicGraph([(0, 1)]))
        h = CoreHistory(m)
        m.insert_edge(5, 0)
        h.record_epoch([5, 0])
        assert 5 not in h.cores_at(0)
        assert h.cores_at(1)[5] == 1


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

    def test_evicted_epochs_rebuilt_from_deltas(self):
        commits = CACHE_EPOCHS + 3  # past the LRU: early epochs evicted
        g = DynamicGraph([(i, i + 1) for i in range(commits + 5)])
        m = ParallelOrderMaintainer(g, num_workers=2)
        store = SnapshotStore(m)
        snapshots = {0: store.view(0).cores()}
        for i in range(commits):
            res = m.insert_edges([(i, i + 5)])
            e, _ = store.commit_batch("+", [(i, i + 5)], res)
            snapshots[e] = dict(m.cores())
        assert store.epoch == commits > CACHE_EPOCHS
        # every historical epoch answers correctly even after eviction
        for e, cores in snapshots.items():
            assert store.view(e).cores() == cores

    def test_cached_results_are_read_only(self):
        """The cached accessors hand the *same* object to every caller
        (and the in-engine QUERY_KINDS path ships it as a response
        value) — mutating one must raise, not silently corrupt the
        per-epoch cache served to every later query."""
        v = SnapshotView(0, {0: 2, 1: 2, 2: 2, 3: 1})
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
        assert isinstance(v.k_shell(1), frozenset)
        assert isinstance(v.innermost()[1], frozenset)
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

        v = SnapshotView(0, {0: 1, 1: 1})
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
