"""Mixed +/- edge streams through the serving engine: homogeneous runs,
kind-switch cuts, coalescing, cancellation, and agreement with a
from-scratch decomposition on random streams.  Invalid operations are
quarantined with a structured error code instead of raising."""

import random

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.service import Engine, EngineConfig


class TestBuffering:
    def test_homogeneous_run_buffers(self):
        eng = Engine(DynamicGraph([(0, 1)]))
        eng.insert(1, 2)
        eng.insert(2, 3)
        assert eng.pending_ops() == 2
        done = eng.flush()
        assert [r.status for r in done] == ["committed", "committed"]
        assert eng.epoch == 1  # one run, one batch
        assert eng.graph.has_edge(2, 3)

    def test_kind_switch_flushes(self):
        eng = Engine(DynamicGraph([(0, 1)]))
        eng.insert(1, 2)
        eng.remove(0, 1)  # different kind on a different edge -> cut
        assert eng.graph.has_edge(1, 2)
        assert eng.pending_ops() == 1
        eng.flush()
        assert not eng.graph.has_edge(0, 1)

    def test_opposite_op_cancels(self):
        eng = Engine(DynamicGraph([(0, 1)]))
        eng.insert(1, 2)
        eng.remove(2, 1)  # cancels the queued insert
        assert eng.pending_ops() == 0
        eng.flush()
        assert not eng.graph.has_edge(1, 2)
        assert eng.epoch == 0

    def test_duplicate_same_kind_coalesces(self):
        eng = Engine(DynamicGraph([(0, 1)]))
        eng.insert(1, 2)
        eng.insert(2, 1)
        assert eng.pending_ops() == 1

    def test_auto_flush_at_max_batch(self):
        eng = Engine(DynamicGraph(), max_batch=3)
        eng.insert(0, 1)
        eng.insert(1, 2)
        eng.insert(2, 3)
        assert eng.pending_ops() == 0  # hit the threshold -> executed
        assert eng.graph.num_edges == 3

    def test_validation(self):
        eng = Engine(DynamicGraph([(0, 1)]))
        codes = [eng.insert(0, 1).error["code"],
                 eng.remove(5, 6).error["code"],
                 eng.insert(3, 3).error["code"]]
        assert codes == ["edge-exists", "edge-missing", "self-loop"]
        assert eng.pending_ops() == 0
        with pytest.raises(ValueError):
            EngineConfig(max_batch=0)

    def test_flush_returns_and_clears_reports(self):
        eng = Engine(DynamicGraph())
        eng.insert(0, 1)
        done = eng.flush()
        assert len(done) == 1 and done[0].epoch == 1
        assert eng.flush() == []


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_mixed_stream_matches_bz(self, seed):
        rng = random.Random(seed)
        base = erdos_renyi(50, 120, seed=seed)
        eng = Engine(DynamicGraph(base), max_batch=17)
        present = set(base)
        universe = [(u, v) for u in range(50) for v in range(u + 1, 50)]
        for _ in range(300):
            if rng.random() < 0.5:
                absent = [e for e in universe if e not in present]
                if not absent:
                    continue
                e = absent[rng.randrange(len(absent))]
                if eng.insert(*e).status != "quarantined":
                    present.add(e)
            else:
                if not present:
                    continue
                e = rng.choice(sorted(present))
                if eng.remove(*e).status != "quarantined":
                    present.discard(e)
        eng.check()  # includes the maintainer's differential vs BZ
        assert {e for e in eng.graph.edges()} == present

    def test_core_queries_after_flush(self):
        eng = Engine(DynamicGraph([(0, 1), (1, 2)]))
        eng.insert(0, 2)
        eng.flush()
        assert eng.core(0) == 2
        assert max(eng.cores().values()) == 2
