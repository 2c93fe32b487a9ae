"""Bulk-built OM lists and k-orders.

``OMList.extend`` lays a whole tail in one pass; ``KOrder.from_decomposition``
and every checkpoint restore build through it.  The layout must be the one
that one ``insert_tail`` per item leaves (groups, both label levels and the
relabel counters), so every later split, rebalance and relabel charge
happens exactly where it did before.
"""

import random

import pytest

from repro.core.decomposition import core_decomposition
from repro.core.korder import KOrder
from repro.core.maintainer import DirectOrderMaintainer
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import powerlaw_cluster
from repro.om.list_labels import OMItem, OMList


def layout(om):
    """Everything observable about an OM list's structure."""
    groups = []
    g = om._sentinel_group
    while g is not None:
        groups.append((g.label, g.size, [(x.payload, x.label) for x in g.items()]))
        g = g.next
    return (groups, om.n_splits, om.n_rebalances, om.version, om.size,
            om.last().payload if om.last() else None)


def seeded_list(capacity, pre, seed):
    """A list with history: tail and middle inserts, then deletes."""
    rng = random.Random(seed)
    om, items = OMList(capacity), []
    for i in range(pre):
        it = OMItem(("pre", i))
        if items and rng.random() < 0.3:
            om.insert_after(rng.choice(items), it)
        else:
            om.insert_tail(it)
        items.append(it)
    for it in list(items):
        if rng.random() < 0.2:
            om.delete(it)
    return om


@pytest.mark.parametrize("capacity", [4, 5, 8, 64, 130])
@pytest.mark.parametrize("pre", [0, 3, 70])
@pytest.mark.parametrize("n", [0, 1, 2, 33, 64, 65, 700])
def test_extend_leaves_the_insert_tail_layout(capacity, pre, n):
    seed = capacity * 1000 + pre * 10 + n
    one, bulk = seeded_list(capacity, pre, seed), seeded_list(capacity, pre, seed)
    for i in range(n):
        one.insert_tail(OMItem(i))
    bulk.extend([OMItem(i) for i in range(n)])
    bulk.check_invariants()
    assert layout(bulk) == layout(one)


def test_extend_respaces_the_top_list_like_insert_tail():
    # capacity 4 halves the top gap on every split: thousands of groups
    # exhaust it many times over
    one, bulk = OMList(4), OMList(4)
    for i in range(5000):
        one.insert_tail(OMItem(i))
    bulk.extend([OMItem(i) for i in range(5000)])
    assert one.n_rebalances > 10
    assert layout(bulk) == layout(one)


def test_extend_twice_equals_once():
    a, b = OMList(8), OMList(8)
    a.extend([OMItem(i) for i in range(300)])
    a.extend([OMItem(i) for i in range(300, 1000)])
    b.extend([OMItem(i) for i in range(1000)])
    assert layout(a) == layout(b)


def test_extend_rejects_linked_items():
    om = OMList()
    x = OMItem("x")
    om.insert_tail(x)
    with pytest.raises(ValueError, match="already in a list"):
        om.extend([OMItem("y"), x])
    assert om.to_list() == ["x"]


def _korder(n=2000, seed=3):
    g = DynamicGraph.from_int_edges(powerlaw_cluster(n, 3, 0.3, seed=seed))
    d = core_decomposition(g)
    return g, d, KOrder.from_decomposition(d.core, d.order, graph=g.ig)


def test_bulk_korder_keeps_the_peel_order():
    g, d, ko = _korder()
    ko.om.check_invariants()
    assert ko.full_sequence() == d.order
    assert sorted(ko.anchors) == list(range(d.max_core + 1))
    ko.check_valid(g.ig)


def test_bulk_korder_survives_a_split_and_rebalance_stream():
    """Seeded moves against a twin whose order was built one
    ``insert_tail`` at a time: the same labels after every step."""
    g, d, bulk = _korder()
    twin = KOrder(capacity=64)
    for u in d.order:
        twin._ensure_levels_through(d.core[u])
        twin.core[u] = d.core[u]
        twin.items[u] = OMItem(u)
        twin.om.insert_tail(twin.items[u])
    assert [bulk.labels(v) for v in d.order] == [twin.labels(v) for v in d.order]
    rng = random.Random(7)
    verts = list(d.order)
    # a few crowded spots, one near the tail where the top gaps are small
    spots = rng.sample(verts, 3) + [verts[-5]]
    splits, rebalances = bulk.om.n_splits, bulk.om.n_rebalances
    for step in range(3000):
        u = rng.choice(verts)
        anchor = rng.choice(spots)
        if u == anchor:
            continue
        for ko in (bulk, twin):
            ko.move_after_vertex(anchor, u)
        if step % 500 == 0:
            bulk.om.check_invariants()
            assert bulk.full_sequence() == twin.full_sequence()
    assert bulk.om.n_splits > splits and bulk.om.n_rebalances > rebalances
    bulk.om.check_invariants()
    assert bulk.full_sequence() == twin.full_sequence()
    assert [bulk.labels(v) for v in verts] == [twin.labels(v) for v in verts]


def test_checkpoint_round_trip_keeps_the_order():
    edges = powerlaw_cluster(1500, 3, 0.3, seed=4)
    m = DirectOrderMaintainer(DynamicGraph.from_int_edges(edges[:3000]))
    m.insert_edges(edges[3000:3300])
    m.remove_edges(edges[:200])
    cores, order = m.cores(), m.order_sequence()
    r = DirectOrderMaintainer.from_checkpoint(
        DynamicGraph(m.graph.sorted_edges(), order), cores, order)
    assert r.order_sequence() == order
    assert r.cores() == cores
    r.check()
    more = edges[3300:3500]
    m.insert_edges(more)
    r.insert_edges(more)
    assert r.order_sequence() == m.order_sequence()
