"""Unit tests for the dynamic graph substrate."""

import pytest

from repro.graph.dynamic_graph import DynamicGraph, canonical_edge


class TestConstruction:
    def test_empty(self):
        g = DynamicGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_from_edges(self):
        g = DynamicGraph([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_duplicate_edges_deduped_on_bulk_load(self):
        g = DynamicGraph([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected_on_load(self):
        with pytest.raises(ValueError):
            DynamicGraph([(1, 1)])

    def test_hashable_vertex_types(self):
        g = DynamicGraph([("a", "b"), ("b", (1, 2))])
        assert g.has_edge("b", (1, 2))

    @pytest.mark.parametrize("edges", [
        [(3, 1), (1, 2), (2, 7), (7, 3), (0, 9)],
        [("b", "a"), ("a", "c"), ("c", (1, 2)), ((1, 2), "z")],
        [(0, 1), (1, 0), (2, 3)],              # a duplicate: checked path
        [(i, i + 1 + (i * 7) % 5) for i in range(40)],
    ])
    def test_bulk_build_matches_per_edge_adds(self, edges):
        g = DynamicGraph(edges, vertices=["iso", 1])
        ref = DynamicGraph()
        for u, v in edges:
            if not ref.has_edge(u, v):
                ref.add_edge(u, v)
        ref.add_vertex("iso")
        ref.add_vertex(1)
        assert g.interner.to_list() == ref.interner.to_list()
        assert g.ig.adjacency_lists() == ref.ig.adjacency_lists()
        assert g.sorted_edges() == sorted(ref.edges(), key=repr)
        assert g.isolated_vertices() == sorted(
            (x for x in ref.vertices() if ref.degree(x) == 0), key=repr)

    def test_pairs_only(self):
        with pytest.raises(ValueError):
            DynamicGraph([(0, 1, 2), (3,)])


class TestMutation:
    def test_add_edge_symmetric(self):
        g = DynamicGraph()
        g.add_edge(5, 7)
        assert g.has_edge(5, 7) and g.has_edge(7, 5)
        assert g.degree(5) == g.degree(7) == 1

    def test_add_existing_edge_raises(self):
        g = DynamicGraph([(0, 1)])
        with pytest.raises(ValueError):
            g.add_edge(1, 0)

    def test_add_self_loop_raises(self):
        g = DynamicGraph()
        with pytest.raises(ValueError):
            g.add_edge(3, 3)

    def test_remove_edge(self):
        g = DynamicGraph([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1
        assert g.has_vertex(0)  # vertex survives edge removal

    def test_remove_missing_edge_raises(self):
        g = DynamicGraph([(0, 1)])
        with pytest.raises(KeyError):
            g.remove_edge(0, 2)

    def test_remove_vertex_removes_incident_edges(self):
        g = DynamicGraph([(0, 1), (0, 2), (1, 2)])
        g.remove_vertex(0)
        assert not g.has_vertex(0)
        assert g.num_edges == 1
        assert g.has_edge(1, 2)

    def test_add_vertex_idempotent(self):
        g = DynamicGraph()
        g.add_vertex(9)
        g.add_vertex(9)
        assert g.num_vertices == 1
        assert g.degree(9) == 0

    def test_insert_remove_roundtrip(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        g = DynamicGraph(edges)
        snapshot = {e for e in g.edges()}
        g.add_edge(1, 3)
        g.remove_edge(1, 3)
        assert {e for e in g.edges()} == snapshot


class TestQueries:
    def test_edges_iterates_each_once(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        g = DynamicGraph(edges)
        seen = list(g.edges())
        assert len(seen) == 4
        assert len(set(seen)) == 4
        assert all(u <= v for u, v in seen)

    def test_neighbors_is_live_set(self):
        g = DynamicGraph([(0, 1)])
        nbrs = g.neighbors(0)
        g.add_edge(0, 2)
        assert 2 in nbrs  # live view

    def test_average_degree(self):
        g = DynamicGraph([(0, 1), (1, 2)])
        assert g.average_degree() == pytest.approx(4 / 3)

    def test_average_degree_empty(self):
        assert DynamicGraph().average_degree() == 0.0

    def test_contains_and_len(self):
        g = DynamicGraph([(0, 1)])
        assert 0 in g and 2 not in g
        assert len(g) == 2

    def test_connected_component(self):
        g = DynamicGraph([(0, 1), (1, 2), (5, 6)])
        assert g.connected_component(0) == {0, 1, 2}
        assert g.connected_component(5) == {5, 6}

    def test_subgraph_induced(self):
        g = DynamicGraph([(0, 1), (1, 2), (2, 0), (2, 3)])
        s = g.subgraph([0, 1, 2])
        assert s.num_edges == 3
        assert not s.has_vertex(3)

    def test_subgraph_keeps_isolated_requested_vertices(self):
        g = DynamicGraph([(0, 1)])
        s = g.subgraph([0, 5])
        assert s.has_vertex(5)
        assert s.num_edges == 0


class TestCopyEquality:
    def test_copy_is_independent(self):
        g = DynamicGraph([(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_equality(self):
        g = DynamicGraph([(0, 1), (1, 2)])
        h = DynamicGraph([(1, 2), (0, 1)])
        assert g == h
        h.add_edge(0, 2)
        assert g != h

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DynamicGraph())


class TestCanonicalEdge:
    def test_orders_numeric(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_mixed_types_fall_back_to_repr(self):
        e1 = canonical_edge("x", 1)
        e2 = canonical_edge(1, "x")
        assert e1 == e2
