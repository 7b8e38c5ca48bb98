"""The brute-force reference implementations."""

from __future__ import annotations

import random

import pytest

from graphcode import (Budget, BudgetExceededError, ORACLE_COVER_MAX_VERTICES,
                       ORACLE_MAX_VERTICES, all_cliques, all_labeled_graphs, apply_permutation,
                       brute_force_code, brute_force_isomorphic,
                       brute_force_minimum_coverings, brute_force_sigma_of_covering,
                       brute_force_theta, complete_graph, cycle_graph, empty_graph,
                       graph_from_edge_list, is_total_clique_covering, path_graph)

from conftest import random_graph


def test_isomorphic_accepts_relabelings():
    g = path_graph(5)
    h = apply_permutation(g, (4, 2, 0, 1, 3))
    report = brute_force_isomorphic(g, h)
    assert report.verdict
    assert report.witness is not None
    # the witness really is an isomorphism
    mapping = report.witness
    for u, v in g.edges:
        assert h.has_edge(mapping[u], mapping[v])
    assert report.nodes_searched > 0


def test_isomorphic_rejects_same_degree_sequence():
    two_triangles = graph_from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    report = brute_force_isomorphic(cycle_graph(6), two_triangles)
    assert not report.verdict
    assert report.witness is None


def test_isomorphic_trivial_mismatches():
    assert not brute_force_isomorphic(path_graph(3), path_graph(4)).verdict
    assert not brute_force_isomorphic(path_graph(3), cycle_graph(3)).verdict
    assert brute_force_isomorphic(empty_graph(1), empty_graph(1)).verdict


def test_isomorphic_size_limit():
    big = empty_graph(ORACLE_MAX_VERTICES + 1)
    with pytest.raises(ValueError, match="oracle"):
        brute_force_isomorphic(big, big)


def test_minimum_coverings_known_values(witness_graph):
    coverings = brute_force_minimum_coverings(witness_graph)
    assert len(coverings) == 2
    assert all(is_total_clique_covering(witness_graph, c) for c in coverings)
    assert brute_force_theta(witness_graph) == 3
    assert brute_force_theta(complete_graph(5)) == 1
    assert brute_force_theta(empty_graph(3)) == 3
    assert brute_force_theta(cycle_graph(5)) == 5


def test_minimum_coverings_size_limit():
    big = empty_graph(ORACLE_COVER_MAX_VERTICES + 1)
    with pytest.raises(ValueError, match="oracle"):
        brute_force_minimum_coverings(big)


def test_sigma_factorial_example(example_graph, example_covering):
    # the 11-vertex example fits: the cover is given, only assignments vary
    sigma = brute_force_sigma_of_covering(example_graph, example_covering)
    assert sigma == (2, 2, 3, 3, 5, 7, 10, 10, 10, 11, 231)


def test_code_known_values(witness_graph):
    assert brute_force_code(complete_graph(1)) == (1,)
    assert brute_force_code(complete_graph(4)) == (2, 2, 2, 2)
    assert brute_force_code(path_graph(4)) == (2, 3, 10, 15)
    assert brute_force_code(witness_graph) == (2, 3, 6, 10, 15)


def test_all_labeled_graphs_enumeration():
    graphs_2 = list(all_labeled_graphs(2))
    assert len(graphs_2) == 2
    graphs_3 = list(all_labeled_graphs(3))
    assert len(graphs_3) == 8
    assert len({g.edges for g in graphs_3}) == 8
    assert all(g.vertex_count == 3 for g in graphs_3)
    counts = sorted(g.edge_count for g in graphs_3)
    assert counts == [0, 1, 1, 1, 2, 2, 2, 3]


def test_oracle_rejects_out_of_range_arguments():
    with pytest.raises(ValueError, match="^min_size must be >= 1, got 0$"):
        all_cliques(path_graph(3), 0)
    with pytest.raises(ValueError, match="^coverings need at least one vertex$"):
        brute_force_minimum_coverings(graph_from_edge_list(0, []))
    with pytest.raises(ValueError, match="^vertex count must be >= 0, got -1$"):
        next(all_labeled_graphs(-1))


def test_oracle_budget_exhaustion():
    with pytest.raises(BudgetExceededError):
        brute_force_minimum_coverings(cycle_graph(6), budget=Budget(10))
    with pytest.raises(BudgetExceededError):
        brute_force_isomorphic(cycle_graph(7), cycle_graph(7), budget=Budget(3))


def test_isomorphism_is_an_equivalence_on_samples():
    rng = random.Random(53)
    pool = [random_graph(rng, 5, rng.uniform(0.2, 0.8)) for _ in range(12)]
    for g in pool:
        assert brute_force_isomorphic(g, g).verdict
    for g in pool:
        for h in pool:
            assert brute_force_isomorphic(g, h).verdict == brute_force_isomorphic(h, g).verdict
