"""Clique enumeration and minimum total covering search."""

from __future__ import annotations

import random
import time
import tracemalloc
from itertools import combinations

import pytest

from graphcode import (Budget, BudgetExceededError, all_cliques, brute_force_minimum_coverings,
                       brute_force_theta, canonical_covering, complete_graph,
                       covering_from_sequence, covering_from_text, covering_to_text,
                       cycle_graph, empty_graph, graph_from_edge_list, independence_number,
                       is_total_clique_covering, maximal_cliques,
                       minimum_total_coverings, path_graph, prop1_certificate, theta_t)

from conftest import random_blow_up, random_graph


def covering_set(coverings):
    return {frozenset(c) for c in coverings}


def test_maximal_cliques_example(example_graph, example_covering):
    found = maximal_cliques(example_graph)
    assert covering_set([found]) == covering_set([example_covering])
    assert {frozenset(c) for c in found} == {frozenset(c) for c in example_covering}


def test_maximal_cliques_small_cases():
    assert maximal_cliques(empty_graph(3)) == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert maximal_cliques(complete_graph(4)) == {frozenset(range(4))}
    assert maximal_cliques(path_graph(3)) == {frozenset({0, 1}), frozenset({1, 2})}


def test_all_cliques_counts():
    # K_4: 4 vertices, 6 edges, 4 triangles, 1 four-clique
    assert len(list(all_cliques(complete_graph(4), min_size=1))) == 15
    assert len(list(all_cliques(complete_graph(4), min_size=2))) == 11
    assert len(list(all_cliques(cycle_graph(5), min_size=2))) == 5
    assert len(set(all_cliques(complete_graph(4)))) == 15  # no duplicates


def test_is_total_clique_covering_cases(example_graph, example_covering):
    assert is_total_clique_covering(example_graph, example_covering)
    # dropping a clique loses edges
    assert not is_total_clique_covering(example_graph, example_covering[:-1])
    # a non-clique member fails
    assert not is_total_clique_covering(path_graph(3), [{0, 1, 2}])
    # vertex outside the graph fails
    assert not is_total_clique_covering(path_graph(2), [{0, 1, 2}])
    # duplicate cliques are rejected
    assert not is_total_clique_covering(path_graph(2), [{0, 1}, {0, 1}])
    # edges all covered but isolated vertex missed
    g = graph_from_edge_list(3, [(0, 1)])
    assert not is_total_clique_covering(g, [{0, 1}])
    assert is_total_clique_covering(g, [{0, 1}, {2}])


def test_theta_small_families():
    assert theta_t(complete_graph(1)) == 1
    assert theta_t(complete_graph(5)) == 1
    assert theta_t(empty_graph(4)) == 4
    assert theta_t(path_graph(4)) == 3
    assert theta_t(cycle_graph(4)) == 4
    assert theta_t(cycle_graph(5)) == 5
    assert theta_t(cycle_graph(6)) == 6


def test_example_covering_is_unique_minimum(example_graph, example_covering):
    assert theta_t(example_graph) == 5
    coverings = minimum_total_coverings(example_graph)
    assert len(coverings) == 1
    assert covering_set(coverings) == covering_set([example_covering])


def test_witness_has_two_minimums_with_nonmaximal_member(witness_graph):
    coverings = minimum_total_coverings(witness_graph)
    assert theta_t(witness_graph) == 3
    assert len(coverings) == 2
    as_sets = covering_set(coverings)
    assert frozenset({frozenset({0, 1}), frozenset({0, 2, 3}), frozenset({1, 2, 4})}) in as_sets
    assert frozenset({frozenset({0, 1, 2}), frozenset({0, 2, 3}), frozenset({1, 2, 4})}) in as_sets
    maximal = {frozenset(c) for c in maximal_cliques(witness_graph)}
    assert any(any(c not in maximal for c in cov) for cov in coverings)


def test_minimum_coverings_match_oracle():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.1, 0.9))
        fast = covering_set(minimum_total_coverings(g))
        slow = covering_set(brute_force_minimum_coverings(g))
        assert fast == slow
        assert theta_t(g) == brute_force_theta(g)


def test_singletons_appear_exactly_for_isolated_vertices():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.0, 0.8))
        isolated = {v for v in g.vertices() if g.degree(v) == 0}
        for cov in minimum_total_coverings(g):
            singles = {next(iter(c)) for c in cov if len(c) == 1}
            assert singles == isolated


def test_canonical_covering_sorts_by_size_then_members():
    cov = canonical_covering([{1, 2}, {0}, {0, 1, 3}])
    assert [sorted(c) for c in cov] == [[0], [1, 2], [0, 1, 3]]


def test_covering_from_sequence_path():
    cov = covering_from_sequence((2, 3, 10, 15))
    assert covering_set([cov]) == {frozenset({frozenset({0, 2}), frozenset({1, 3}), frozenset({2, 3})})}


def test_covering_from_sequence_with_isolated():
    cov = covering_from_sequence((1, 1, 2, 2))
    assert covering_set([cov]) == {frozenset({frozenset({0}), frozenset({1}), frozenset({2, 3})})}


def test_covering_from_sequence_rejects_bad_shape():
    with pytest.raises(ValueError):
        covering_from_sequence((3, 2))  # not sorted
    with pytest.raises(ValueError):
        covering_from_sequence((2, 3))  # primes without partners
    with pytest.raises(ValueError):
        covering_from_sequence((4,))  # not square-free


def test_covering_text_round_trip(example_covering):
    text = covering_to_text(example_covering)
    assert covering_set([covering_from_text(text)]) == covering_set([example_covering])


def test_covering_text_must_hold_a_clique():
    with pytest.raises(ValueError, match="^no cliques in covering text$"):
        covering_from_text("\n  \n")


def test_prop1_certificate_example(example_graph, example_covering):
    # 0, 4 from the first component; 6, 8, 10 pairwise non-adjacent in the second
    assert prop1_certificate(example_graph, [0, 4, 6, 8, 10], example_covering)
    # wrong size
    assert not prop1_certificate(example_graph, [0, 4, 6, 8], example_covering)
    # not independent
    assert not prop1_certificate(example_graph, [0, 1, 6, 8, 10], example_covering)


def test_prop1_certificate_fails_when_sizes_differ():
    g = cycle_graph(4)
    cov = minimum_total_coverings(g)[0]
    assert independence_number(g) == 2
    assert theta_t(g) == 4
    assert not prop1_certificate(g, [0, 2], cov)


def test_prop1_certificate_holds_for_short_path():
    # P_3 is the equality case: two edge-cliques, independent set {0, 2}.
    g = path_graph(3)
    cov = minimum_total_coverings(g)[0]
    assert prop1_certificate(g, [0, 2], cov)


def test_prop1_certificate_rejects_outside_vertices_and_partial_coverings():
    g = path_graph(3)
    assert not prop1_certificate(g, [0, 3], [{0, 1}, {1, 2}])
    assert not prop1_certificate(g, [-1, 2], [{0, 1}, {1, 2}])
    # Independent, of the same size, but the edge {1, 2} is left uncovered.
    assert not prop1_certificate(g, [0, 2], [{0, 1}, {2}])


def test_budget_exhaustion_raises():
    g = cycle_graph(6)
    with pytest.raises(BudgetExceededError):
        minimum_total_coverings(g, budget=Budget(10))


def test_budget_error_carries_limit():
    try:
        minimum_total_coverings(cycle_graph(6), budget=5)
    except BudgetExceededError as err:
        assert err.limit == 5
    else:
        pytest.fail("expected BudgetExceededError")


def test_covering_listing_memory_stays_small_under_budget():
    # Listing every minimum covering of K_10 minus four edges takes millions
    # of units; under 10^5 the listing must keep only what it has paid for.
    missing = {(0, 6), (3, 8), (4, 5), (5, 6)}
    g = graph_from_edge_list(10, [e for e in combinations(range(10), 2) if e not in missing])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            minimum_total_coverings(g, budget=10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10 ** 6


def test_covering_listing_builds_each_clique_once():
    # 15,193 minimum coverings share a few dozen distinct cliques.  Building
    # a frozenset per clique of every covering, then ordering each covering
    # a second time, peaked at about 51 MB.
    g = random_blow_up(random.Random(110), 9)
    tracemalloc.start()
    try:
        coverings = minimum_total_coverings(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(coverings) == 15_193
    assert peak < 16 * 10 ** 6


def test_covering_index_memory_stays_small_on_one_big_clique():
    # K_200 has one maximal clique and 19,900 edges.  An index keyed by
    # edge tuples peaked at about 2 MB; per-vertex clique masks need a
    # small int per edge.
    tracemalloc.start()
    try:
        assert theta_t(complete_graph(200)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_covering_index_transpose_is_linear_on_one_big_clique():
    # All 1,279,200 edges of K_1600 lie in its one maximal clique.  Setting
    # them in the clique's edge mask one int operation at a time rebuilds
    # a growing int per edge, about 11 s of CPU; a byte row takes 2-3 s.
    tracker = Budget()
    start = time.process_time()
    assert theta_t(complete_graph(1600), tracker) == 1
    assert time.process_time() - start < 6.0
    assert tracker.used == 2_560_002


def test_covering_members_are_essential():
    # No minimum covering carries a clique whose removal still covers everything.
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.9))
        for cov in minimum_total_coverings(g):
            for i in range(len(cov)):
                reduced = cov[:i] + cov[i + 1:]
                assert not is_total_clique_covering(g, reduced)
