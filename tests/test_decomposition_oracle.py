"""The array peel against the lazy tuple-heap BZ it replaced.

``heap_peel`` below is the textbook peel: one heap entry
``(degree, tie_key, index, vertex)`` per push, stale entries skipped on
pop.  ``core_decomposition`` ranks the static tie keys once and peels on
int keys instead; these tests pin that its ``core``, ``order`` and
``d_out`` are bit-identical to the heap's, including the dicts' key
order, for every graph generator, every strategy, identity and
translating interners, isolated vertices and non-array substrates.
"""

import heapq
import random

import pytest

from repro.core.decomposition import STRATEGIES, core_decomposition, successor_counts
from repro.graph.dictgraph import DictGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import (
    attach_leaves,
    barabasi_albert,
    erdos_renyi,
    kernel_leaves,
    lattice,
    powerlaw_cluster,
    rmat,
    temporal_stream,
)


def heap_peel(graph, strategy="small-degree-first", seed=0):
    """BZ with a lazy min-heap of ``(degree, tie_key, index, vertex)``
    tuples over any graph substrate: the oracle."""
    rng = random.Random(seed)
    verts = list(graph.vertices())
    index = {u: i for i, u in enumerate(verts)}
    deg = {u: graph.degree(u) for u in verts}

    def tie_key(u):
        i = index[u]
        if strategy == "small-degree-first":
            return (deg[u], i)
        if strategy == "large-degree-first":
            return (-deg[u], i)
        if strategy == "random":
            return (rng.random(), i)
        return (i,)

    d = dict(deg)
    heap = [(d[u], tie_key(u), index[u], u) for u in verts]
    heapq.heapify(heap)
    core, order, removed, k = {}, [], set(), 0
    while heap:
        du, _tk, _i, u = heapq.heappop(heap)
        if u in removed or du != d[u]:
            continue
        removed.add(u)
        k = max(k, du)
        core[u] = k
        order.append(u)
        for v in graph.neighbors(u):
            if v not in removed and d[v] > du:
                d[v] -= 1
                heapq.heappush(heap, (d[v], tie_key(v), index[v], v))
    position = {u: i for i, u in enumerate(order)}
    d_out = {u: sum(1 for v in graph.neighbors(u) if position[v] > position[u])
             for u in order}
    return core, order, d_out


def assert_matches_oracle(graph, strategy, seed=0):
    got = core_decomposition(graph, strategy=strategy, seed=seed)
    core, order, d_out = heap_peel(graph, strategy, seed)
    assert got.order == order
    assert list(got.core.items()) == list(core.items())
    assert list(got.d_out.items()) == list(d_out.items())


def _generated():
    stream = temporal_stream(120, 400, seed=8)
    return [
        ("erdos_renyi", erdos_renyi(60, 200, seed=1)),
        ("barabasi_albert", barabasi_albert(80, 3, seed=2)),
        ("rmat", rmat(7, 4, seed=3)),
        ("lattice", lattice(9, 9, 0.2, seed=4)),
        ("powerlaw_cluster", powerlaw_cluster(120, 3, 0.4, seed=5)),
        ("kernel_leaves", kernel_leaves(30, 120, 90, seed=6)),
        ("attach_leaves", attach_leaves(erdos_renyi(20, 60, seed=7), 20, 40,
                                        seed=7)),
        ("temporal_stream", sorted({(min(u, v), max(u, v))
                                    for u, v, _t in stream if u != v})),
    ]


GENERATED = _generated()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name,edges", GENERATED, ids=[n for n, _ in GENERATED])
class TestBitIdentity:
    def test_identity_interner(self, name, edges, strategy):
        g = DynamicGraph.from_int_edges(edges)
        assert g.interner.identity
        assert_matches_oracle(g, strategy, seed=11)

    def test_translating_interner(self, name, edges, strategy):
        # string ids in a shuffled first-seen order: ids and enumeration
        # index no longer coincide with the vertex labels
        shuffled = list(edges)
        random.Random(len(edges)).shuffle(shuffled)
        g = DynamicGraph([(f"v{u}", f"v{v}") for u, v in shuffled])
        assert not g.interner.identity
        assert_matches_oracle(g, strategy, seed=12)

    def test_isolated_vertices(self, name, edges, strategy):
        g = DynamicGraph.from_int_edges(edges)
        top = g.ig.n_slots
        for x in (top + 3, top, top + 7):
            g.add_vertex(x)
        g.remove_vertex(top + 3)  # a dead slot the peel must skip
        assert_matches_oracle(g, strategy, seed=13)

    def test_dict_substrate(self, name, edges, strategy):
        assert_matches_oracle(DictGraph(edges), strategy, seed=14)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_degenerate_graphs(strategy):
    assert_matches_oracle(DynamicGraph(), strategy)
    only_isolated = DynamicGraph()
    for x in (5, 1, 3):
        only_isolated.add_vertex(x)
    assert_matches_oracle(only_isolated, strategy)
    clique = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    assert_matches_oracle(DynamicGraph(clique), strategy)


def test_successor_counts_is_the_oracle_d_out():
    g = DynamicGraph.from_int_edges(powerlaw_cluster(200, 3, 0.3, seed=9))
    core, order, d_out = heap_peel(g)
    counts = successor_counts(g.ig.adjacency_lists(), order)
    assert counts == [d_out[u] for u in order]
