"""Graph construction, gcd realizations, and structural queries."""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

import graphcode
from graphcode import (Budget, Graph, all_cliques, apply_permutation, complete_graph,
                       connected_components, cycle_graph, divisor_graph, empty_graph,
                       generate_family, graph_from_cliques, graph_from_edge_list,
                       independence_number, is_bipartite, is_connected, isolated_vertices,
                       path_graph, realize_sequence, two_coloring)

from conftest import random_graph


@st.composite
def graphs(draw, max_vertices: int = 6):
    n = draw(st.integers(1, max_vertices))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return graph_from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_edges_are_normalized():
    g = graph_from_edge_list(3, [(2, 0), (1, 2)])
    assert g.sorted_edges() == [(0, 2), (1, 2)]
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)


def test_loops_and_bad_vertices_rejected():
    with pytest.raises(ValueError):
        graph_from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Graph(2, {(0, 2)})
    with pytest.raises(ValueError):
        Graph(3, [(1, 0)])
    with pytest.raises(ValueError):
        Graph(-1, frozenset())
    with pytest.raises(ValueError):
        Graph(-1, ())
    with pytest.raises(ValueError):
        graph_from_edge_list(3, [(0, 3)])


def test_graph_equality_ignores_edge_order_and_orientation():
    edges = [(0, 1), (1, 2), (0, 3), (2, 3)]
    g = Graph(4, edges)
    h = graph_from_edge_list(4, [(v, u) for u, v in reversed(edges)])
    assert g == h and hash(g) == hash(h)
    assert g.rows == h.rows == (0b1010, 0b0101, 0b1010, 0b0101)
    assert g != graph_from_edge_list(4, edges[:3])
    assert g != Graph(5, edges)


@given(graphs(max_vertices=8))
def test_edges_round_trip_and_are_symmetric(g):
    assert graph_from_edge_list(g.vertex_count, g.edges) == g
    assert sorted(g.edges) == g.sorted_edges()
    assert g.edge_count == len(g.edges)
    for u in g.vertices():
        assert g.degree(u) == sum(1 for e in g.edges if u in e)
        for v in g.vertices():
            assert g.has_edge(u, v) == g.has_edge(v, u) == ((min(u, v), max(u, v)) in g.edges)


def test_graph_stores_rows_only():
    g = complete_graph(3)
    assert not hasattr(g, "__dict__")
    with pytest.raises(AttributeError):
        g.rows = ()


def test_divisor_graph_of_12():
    labeled = divisor_graph(12)
    assert labeled.labels == (2, 3, 4, 6, 12)
    by_label = {(labeled.labels[u], labeled.labels[v]) for u, v in labeled.graph.edges}
    assert by_label == {(2, 4), (2, 6), (2, 12), (3, 6), (3, 12), (4, 6), (4, 12), (6, 12)}


def test_divisor_graph_of_prime_is_single_vertex():
    labeled = divisor_graph(7)
    assert labeled.graph.vertex_count == 1
    assert labeled.graph.edge_count == 0
    assert labeled.labels == (7,)


def test_divisor_graph_rejects_small_n():
    for n in (1, 0, -5):
        with pytest.raises(ValueError):
            divisor_graph(n)


@given(st.integers(2, 400))
def test_divisor_graph_adjacency_matches_gcd(n):
    labeled = divisor_graph(n)
    labels = labeled.labels
    for i, j in combinations(range(len(labels)), 2):
        assert labeled.graph.has_edge(i, j) == (gcd(labels[i], labels[j]) > 1)
        assert n % labels[i] == 0


def test_realize_sequence_path():
    labeled = realize_sequence((2, 3, 10, 15))
    assert labeled.graph.sorted_edges() == [(0, 2), (1, 3), (2, 3)]


def test_realize_sequence_rejects_bad_entries():
    with pytest.raises(ValueError):
        realize_sequence(())
    with pytest.raises(ValueError):
        realize_sequence((2, 0))


@given(st.lists(st.integers(1, 60), min_size=1, max_size=8))
def test_realize_sequence_matches_pairwise_gcd(entries):
    labeled = realize_sequence(entries)
    assert labeled.labels == tuple(entries)
    for i, j in combinations(range(len(entries)), 2):
        assert labeled.graph.has_edge(i, j) == (gcd(entries[i], entries[j]) > 1)


@given(st.lists(st.sampled_from([2, 4, 6, 8, 10, 12]), min_size=2, max_size=7))
def test_pairwise_sharing_entries_realize_complete_graph(entries):
    g = realize_sequence(entries).graph
    assert g.edge_count == g.vertex_count * (g.vertex_count - 1) // 2


def test_example_graph_structure(example_graph):
    assert not is_connected(example_graph)
    parts = sorted(connected_components(example_graph), key=min)
    assert [sorted(p) for p in parts] == [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
    assert independence_number(example_graph) == 5
    assert isolated_vertices(example_graph) == set()


def test_bipartite_examples():
    assert is_bipartite(cycle_graph(4))
    assert not is_bipartite(cycle_graph(5))
    assert is_bipartite(empty_graph(3))
    coloring = two_coloring(path_graph(4))
    assert coloring is not None
    for u, v in path_graph(4).edges:
        assert coloring[u] != coloring[v]


def test_independence_number_examples():
    assert independence_number(complete_graph(5)) == 1
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(empty_graph(4)) == 4


def test_independence_number_matches_the_oracle():
    # A maximum independent set is a largest clique of the complement.
    rng = random.Random(19)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9))
        complement = graph_from_edge_list(
            g.vertex_count, [e for e in combinations(g.vertices(), 2) if not g.has_edge(*e)])
        assert independence_number(g) == max(map(len, all_cliques(complement)))


@pytest.mark.parametrize("g, alpha, units", [
    (path_graph(12), 6, 97),
    (cycle_graph(11), 5, 95),
    (random_graph(random.Random(3), 14, 0.4), 6, 55),
])
def test_independence_number_keeps_its_node_order(g, alpha, units):
    # The units pin the branch order: vertices by falling degree, ties by
    # id, each taken before it is left out.
    tracker = Budget(10 ** 4)
    assert independence_number(g, tracker) == alpha
    assert tracker.used == units


def test_families():
    assert complete_graph(4).edge_count == 6
    assert path_graph(1).edge_count == 0
    assert cycle_graph(3).edge_count == 3
    assert generate_family("cycle", 5).edge_count == 5
    with pytest.raises(ValueError):
        generate_family("cycle", 2)
    with pytest.raises(ValueError):
        generate_family("star", 4)


def test_random_graph_is_seeded_and_spans_its_probabilities():
    def draw(n, p, seed=5):
        return graphcode.random_graph(n, p, random.Random(seed))

    assert draw(12, 0.4) == draw(12, 0.4) != draw(12, 0.4, seed=6)
    assert draw(12, 0.4).vertex_count == 12
    assert draw(9, 0.0) == empty_graph(9)
    assert draw(9, 1.0) == complete_graph(9)
    with pytest.raises(ValueError, match="n >= 1"):
        draw(0, 0.5)


def test_apply_permutation_examples():
    g = path_graph(3)
    h = apply_permutation(g, (2, 0, 1))
    assert h.sorted_edges() == [(0, 1), (0, 2)]
    with pytest.raises(ValueError):
        apply_permutation(g, (0, 0, 1))


@given(graphs(), st.randoms(use_true_random=False))
def test_apply_permutation_preserves_invariants(g, rnd):
    perm = list(range(g.vertex_count))
    rnd.shuffle(perm)
    h = apply_permutation(g, perm)
    assert h.edge_count == g.edge_count
    assert sorted(h.degree(v) for v in h.vertices()) == sorted(g.degree(v) for v in g.vertices())
    assert is_connected(h) == is_connected(g)
    assert is_bipartite(h) == is_bipartite(g)
    assert independence_number(h) == independence_number(g)


def test_independence_is_lower_bound_for_theta():
    from graphcode import theta_t

    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9))
        assert theta_t(g) >= independence_number(g)


def test_graph_from_cliques_matches_the_pairwise_construction():
    rng = random.Random(83)
    for _ in range(200):
        n = rng.randint(1, 12)
        cliques = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 5))]
        pairs = {pair for c in cliques for pair in combinations(sorted(c), 2)}
        assert graph_from_cliques(n, cliques) == graph_from_edge_list(n, pairs)


def test_graph_from_cliques_rejects_bad_vertices():
    for bad in ([0, 3], [-1, 0], [3]):
        with pytest.raises(ValueError):
            graph_from_cliques(3, [bad])
    with pytest.raises(ValueError):
        graph_from_cliques(-1, [])
