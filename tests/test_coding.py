"""Coding sequences, canonical codes, and gcd-preserving labelings."""

from __future__ import annotations

import random
import time
import tracemalloc
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

import graphcode.cliques
import graphcode.coding
from graphcode import (Budget, BudgetExceededError, apply_permutation, brute_force_code,
                       brute_force_isomorphic, brute_force_sigma_of_covering,
                       check_sequence_shape, code, coding_sequence_from_covering,
                       complete_graph, cycle_graph, empty_graph, first_primes,
                       graph_from_edge_list, is_isomorphic_by_code, lambda_of,
                       minimum_total_coverings, parse_graph6, parse_sequence, path_graph,
                       realize_sequence, render_sequence, sigma_of_covering,
                       theorem1_labels, theta_t, validate_coding_sequence)

from conftest import random_assignment, random_blow_up, random_graph, random_total_covering

EXAMPLE_CODE = (2, 2, 3, 3, 5, 7, 10, 10, 10, 11, 231)


def test_shape_accepts_valid_sequences():
    for entries in [(1,), (1, 1, 1), (2, 2), (2, 2, 3, 3), (6, 10, 15), (1, 2, 2), EXAMPLE_CODE]:
        check_sequence_shape(entries)


def test_shape_rejects_invalid_sequences():
    cases = {
        (): "non-empty",
        (0,): ">= 1",
        (3, 2): "non-decreasing",
        (2, 4): "square-free",
        (2, 3): "isolated",
        (1, 2): "isolated",
        (2, 2, 5): "isolated",
    }
    for entries, fragment in cases.items():
        with pytest.raises(ValueError, match=fragment):
            check_sequence_shape(entries)


def test_shape_check_of_hard_entry_stays_in_budget():
    # Trial division of 2 * (10^9 + 7) * (10^9 + 9) would try divisors up to
    # 10^9; every caller-facing check bounds it by the budget instead.
    from graphcode import covering_from_sequence, poly_from_sequence

    x = 2 * (10 ** 9 + 7) * (10 ** 9 + 9)
    checks = [lambda b: check_sequence_shape((x, x), budget=b),
              lambda b: covering_from_sequence((x, x), budget=b),
              lambda b: poly_from_sequence((x, x), budget=b),
              lambda b: validate_coding_sequence((x, x), path_graph(2), budget=b)]
    for check in checks:
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            check(10 ** 5)
        assert time.perf_counter() - start < 1.0


def test_lambda_of_values():
    assert lambda_of((1,)) == 1
    assert lambda_of((1, 1)) == 1
    assert lambda_of((2, 2)) == 2
    assert lambda_of((2, 3, 3, 10, 10)) == 30
    assert lambda_of(EXAMPLE_CODE) == 2310


def test_render_and_parse():
    assert render_sequence((2, 3, 10, 15)) == "(2,3,10,15)"
    assert parse_sequence("(2,3,10,15)") == (2, 3, 10, 15)
    assert parse_sequence("2, 3, 10, 15") == (2, 3, 10, 15)
    with pytest.raises(ValueError):
        parse_sequence("()")
    with pytest.raises(ValueError):
        parse_sequence("(2,x)")


@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=12))
def test_render_parse_round_trip(entries):
    assert parse_sequence(render_sequence(entries)) == tuple(entries)


def test_example_sequences_per_assignment(example_graph, example_covering):
    identity = coding_sequence_from_covering(example_graph, example_covering, (2, 3, 5, 7, 11))
    assert identity == (2, 3, 3, 5, 5, 6, 6, 6, 7, 11, 385)
    swapped = coding_sequence_from_covering(example_graph, example_covering, (2, 5, 3, 7, 11))
    assert swapped == (2, 3, 3, 5, 5, 7, 10, 10, 10, 11, 231)


def test_coding_sequence_rejects_bad_assignment(example_graph, example_covering):
    with pytest.raises(ValueError, match="permutation"):
        coding_sequence_from_covering(example_graph, example_covering, (2, 3, 5, 7, 13))
    with pytest.raises(ValueError, match="covering"):
        coding_sequence_from_covering(example_graph, example_covering[:-1], (2, 3, 5, 7))


def test_sigma_of_example_covering(example_graph, example_covering):
    assert sigma_of_covering(example_graph, example_covering) == EXAMPLE_CODE


def test_code_of_example(example_graph):
    assert code(example_graph) == EXAMPLE_CODE


def test_code_of_witness(witness_graph):
    assert code(witness_graph) == (2, 3, 6, 10, 15)
    assert brute_force_code(witness_graph) == (2, 3, 6, 10, 15)


def test_code_small_families():
    assert code(complete_graph(1)) == (1,)
    assert code(complete_graph(3)) == (2, 2, 2)
    assert code(empty_graph(3)) == (1, 1, 1)
    assert code(path_graph(4)) == (2, 3, 10, 15)
    assert code(cycle_graph(4)) == (6, 10, 21, 35)


def test_sigma_of_covering_counts_a_repeated_vertex_once():
    # is_total_clique_covering reads each clique as a set, so the label
    # search must too: one clique listing 0 twice once labelled 0 with 2*2.
    assert sigma_of_covering(complete_graph(2), [[0, 0, 1]]) == (2, 2)
    assert sigma_of_covering(path_graph(3), [(0, 1), (1, 2, 1)]) == (2, 3, 6)


def test_sigma_of_covering_rejects_a_non_covering():
    with pytest.raises(ValueError, match="^not a total clique covering of the graph$"):
        sigma_of_covering(path_graph(3), [(0, 1)])


def test_graphs_of_different_orders_are_told_apart_before_any_code():
    tracker = Budget(1)
    assert not is_isomorphic_by_code(path_graph(3), path_graph(4), tracker)
    assert not is_isomorphic_by_code(empty_graph(3), empty_graph(2), tracker)
    assert tracker.used == 0


def test_sigma_is_min_over_assignments(example_graph, example_covering):
    assert brute_force_sigma_of_covering(example_graph, example_covering) == EXAMPLE_CODE


def test_sigma_matches_oracle_on_random_coverings():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9))
        covering = random_total_covering(rng, g)
        assert sigma_of_covering(g, covering) == brute_force_sigma_of_covering(g, covering)
    # Twin-heavy graphs, whose coverings have symmetries the search skips;
    # the factorial sweep stays affordable up to seven cliques.
    checked = 0
    while checked < 40:
        g = random_blow_up(rng)
        covering = random_total_covering(rng, g)
        if sum(1 for c in covering if len(c) > 1) <= 7:
            checked += 1
            assert sigma_of_covering(g, covering) == brute_force_sigma_of_covering(g, covering)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.floats(0.1, 0.9), st.integers(0, 2 ** 30))
def test_label_search_matches_factorial_search_on_random_coverings(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    covering = random_total_covering(rng, g)
    assume(sum(1 for c in covering if len(c) > 1) <= 8)
    assert sigma_of_covering(g, covering) == brute_force_sigma_of_covering(g, covering)


def test_sparse_graph_label_search_stays_in_budget():
    # A sparse 12-vertex graph whose labelling took over 5 * 10^5 units when
    # the search branched every prime over every unassigned clique; branching
    # on the least-floor vertex's cliques decides it in about 6,000.
    g = random_graph(random.Random(8), 12, 0.3)
    assert code(g, budget=Budget(10 ** 5)) == (6, 35, 110, 286, 646, 2001, 19499, 54653,
                                               125255, 496133, 941227, 1527923)


def test_label_search_finds_sigma_before_proving_it():
    # Visiting children in floor order reaches a good labelling early: in
    # clique-index order these took 811,804, 307,548 and 17,878 units, most
    # of them spent before the first good labelling.
    sparse = {(16, 0): (2, 15, 77, 221, 1311, 33263, 51127, 72239, 557845, 1365259, 4054201,
                        7985347, 64821589, 412424309, 727771018, 31135901149),
              (18, 2): (6, 35, 286, 3553, 10005, 19499, 82861, 128207, 215086, 267665,
                        2264971, 2726029, 3101461, 4240583, 10999249, 19269341, 25484519,
                        101031999)}
    for (n, s), expected in sparse.items():
        assert code(random_graph(random.Random(1000 * n + s), n, 0.3), budget=10 ** 5) == expected
    # Vertex 1 may leave any of six triangles.
    g = graph_from_edge_list(7, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
                                 (2, 4), (3, 5), (3, 6), (4, 5), (4, 6)])
    assert code(g, budget=16_549) == (6, 35, 110, 143, 323, 2210, 4389)
    # G(10, 0.8), graph 131 of the perfbench gnp pool for seed 41.  A packing
    # stays cached until a change makes it stale, so the nodes after the one
    # that computed it reuse it; dropping it with that node took 113,690 units.
    dense = k10_minus((0, 1), (0, 3), (0, 8), (1, 7), (4, 9))
    assert code(dense, budget=10 ** 5) == (6, 6, 6, 10, 10, 14, 21, 22, 105, 165)
    # Graph 162 of the pool for seed 41, G(18, 0.3), and graph 202 of the
    # pool for seed 52, G(16, 0.5).  Ordering the children of the first dive
    # alone, not of every node, they took 137,619 and 174,604 units.
    pool_41_162 = graph_from_edge_list(18, [
        (0, 7), (0, 15), (1, 2), (1, 5), (1, 11), (1, 14), (2, 4), (2, 5), (2, 7), (2, 11),
        (2, 15), (2, 17), (3, 6), (3, 9), (3, 12), (3, 14), (3, 17), (4, 7), (4, 10),
        (4, 13), (4, 16), (5, 9), (5, 10), (5, 13), (6, 7), (6, 12), (6, 13), (6, 14),
        (7, 8), (7, 13), (7, 16), (8, 13), (8, 15), (8, 17), (9, 11), (9, 14), (9, 17),
        (10, 15), (10, 16), (10, 17), (11, 13), (11, 14), (12, 15), (12, 17), (14, 16)])
    assert code(pool_41_162, budget=10 ** 5) == (
        6, 35, 2431, 2717, 7337, 19499, 33046, 82861, 134461, 253394, 409457, 819957,
        16801795, 34965493, 106892679, 117424223, 420900229, 474601133)
    pool_52_202 = graph_from_edge_list(16, [
        (0, 1), (0, 2), (0, 7), (0, 8), (0, 9), (0, 10), (0, 13), (0, 14), (0, 15), (1, 4),
        (1, 5), (1, 6), (1, 7), (1, 9), (1, 13), (1, 14), (1, 15), (2, 3), (2, 5), (2, 6),
        (2, 7), (2, 8), (2, 14), (2, 15), (3, 4), (3, 7), (3, 9), (3, 12), (3, 13), (3, 14),
        (4, 6), (4, 9), (4, 11), (4, 13), (5, 8), (5, 10), (5, 11), (5, 12), (6, 7), (6, 10),
        (6, 12), (6, 14), (7, 9), (7, 10), (7, 14), (7, 15), (8, 10), (8, 11), (8, 13),
        (8, 15), (9, 10), (9, 11), (9, 12), (9, 13), (9, 14), (10, 13), (10, 14), (11, 12),
        (11, 13), (12, 13), (12, 15), (13, 15), (14, 15)])
    assert code(pool_52_202, budget=10 ** 5) == (
        30, 42, 286, 935, 5681, 17081, 43993, 81141, 81141, 167485, 184334, 389459, 725351,
        884065, 1647929, 16343913)


def test_an_ordered_child_is_applied_once():
    # A child, evaluated when its parent makes it to order its siblings,
    # keeps its state for its visit.  Applying its drop and primes again
    # there, and recomputing the packings that marked stale, took 11,238
    # and 343 units.
    for text, units in (("Fd~vw", 9_490), ("Dl{", 333)):
        tracker = Budget()
        code(parse_graph6(text), tracker)
        assert tracker.used == units


def test_a_membership_split_takes_its_children_in_floor_order():
    # Graph 165 of the perfbench gnp pool for seed 41, G(20, 0.3) with 172
    # least coverings.  Taking a split's leave child before its join child
    # whatever their floors, it took 193,561 units; in floor order 69,470.
    g = parse_graph6("SUHUC?@XAY@_J@GydCvCC?@@oT?E?Q@_O")
    assert code(g, budget=Budget(10 ** 5)) == (
        30, 42, 715, 2261, 7337, 26381, 51127, 77221, 241133, 343498, 478661, 770918, 958263,
        1049087, 2694941, 5744327, 29903063, 41415313, 52921879, 176162857)


def complete_bipartite(a: int, b: int):
    return graph_from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def test_twin_symmetries_are_searched_once():
    # Swapping two twins permutes the cliques; without taking such
    # symmetries in one order only, these took 31,118 to 2,480,977 units.
    cone = graph_from_edge_list(7, [(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (1, 5), (1, 6),
                                    (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 6),
                                    (5, 6)])
    cases = [(complete_bipartite(2, 5), (6, 35, 143, 323, 667, 43010, 150423)),
             (complete_bipartite(3, 4), (30, 1001, 4522, 11339, 21793, 23529, 69745)),
             (complete_bipartite(3, 5), (30, 1001, 7429, 33263, 82861, 282982, 835791, 2599805)),
             (complete_bipartite(4, 4), (210, 4862, 38019, 235135, 278597, 519961, 749791,
                                         1071289)),
             (cone, (30, 154, 273, 646, 1105, 1265, 1311))]
    for g, expected in cases:
        assert code(g, budget=10 ** 4) == expected


def full_multiset_masks(patterns, k, cliques, twins, tracker):
    """The symmetry masks found by comparing all the patterns for each pair."""
    reference = sorted(patterns)
    both = 1 | 1 << k
    masks = [0] * k
    for a, b in combinations(range(k), 2):
        tracker.charge()
        pair = 1 << a | 1 << b
        if sorted(p ^ ((p >> a ^ p >> b) & both) * pair for p in patterns) == reference:
            masks[b] |= 1 << a
    clique_at = {members: c for c, members in enumerate(cliques)}
    for group in twins:
        for u, v in combinations(group, 2):
            tracker.charge()
            swap = 1 << u | 1 << v
            moved = [c for c, members in enumerate(cliques) if (members & swap).bit_count() == 1]
            image = [clique_at.get(cliques[c] ^ swap) for c in moved]
            if not moved or None in image:
                continue
            fixed = ~sum(both << c for c in moved)
            if sorted(sum((p >> c & both) << d for c, d in zip(moved, image)) | p & fixed
                      for p in patterns) == reference:
                masks[image[0]] |= 1 << moved[0]
    return masks


def test_symmetries_compare_only_the_patterns_they_move(monkeypatch):
    # A symmetry changes only the patterns of its moved cliques' members;
    # comparing just those must find the masks, at the charges, that
    # comparing every pattern does.
    masks_of = graphcode.coding._interchangeable_lower_masks
    found = []

    def checked(patterns, cliques, twins, tracker):
        used = tracker.used
        masks = masks_of(patterns, cliques, twins, tracker)
        reference = Budget()
        assert masks == full_multiset_masks(patterns, len(cliques), cliques, twins, reference)
        assert tracker.used - used == reference.used
        found.append(any(masks))
        return masks

    monkeypatch.setattr(graphcode.coding, "_interchangeable_lower_masks", checked)
    for i in range(200):
        rng = random.Random(i)
        g = (random_blow_up(rng, 10) if i % 2
             else random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 1.0)))
        try:
            code(g, budget=10 ** 5)
        except BudgetExceededError:
            pass
    assert len(found) >= 200 and sum(found) >= 50


def test_branch_and_bound_matches_factorial_search():
    # C_7 and C_8 force seven and eight non-singleton cliques, whose 7! and
    # 8! assignments the oracle sweeps in full; the pruned search must agree.
    for n in (7, 8):
        g = cycle_graph(n)
        covering = minimum_total_coverings(g)[0]
        assert len(covering) == n
        fast = sigma_of_covering(g, covering)
        slow = brute_force_sigma_of_covering(g, covering)
        assert fast == slow


def test_code_of_large_complete_graph_stays_in_budget():
    # One maximal clique: the covering search must not list the 2^40
    # cliques of K_40 before it first charges the budget.
    assert code(complete_graph(40), budget=10_000) == (2,) * 40


def test_label_search_set_up_stays_small_on_long_paths():
    # A floor takes at most one vertex's membership count of the next
    # primes, so the prime table keeps no longer rows; k + 1 products per
    # row took 485 MB on this path.  The budget trips at its first symmetry test.
    n = 1201
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            sigma_of_covering(path_graph(n), [(v, v + 1) for v in range(n - 1)], budget=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_symmetry_set_up_costs_little_per_unit_on_long_paths():
    # The path's 999 edges are its cliques, and the set-up charges one unit
    # for each of their 498,501 pairs.  Testing every pair took 2-5 s of
    # CPU, most of this call; cliques that share no member are matched by
    # signature instead, at the same charges.
    tracker = Budget()
    start = time.process_time()
    code(path_graph(1000), tracker)
    assert time.process_time() - start < 1.5
    assert tracker.used == 4_502_496


def test_code_matches_oracle_on_random_graphs():
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 5), rng.uniform(0.0, 1.0))
        assert code(g) == brute_force_code(g)


def test_code_is_permutation_invariant():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9))
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        assert code(g) == code(apply_permutation(g, perm))


def assert_relabelling_invariant(n: int, p: float, seed: int) -> None:
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    perm = list(range(n))
    rng.shuffle(perm)
    assert code(g) == code(apply_permutation(g, perm))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.floats(0.0, 1.0), st.integers(0, 2 ** 30))
def test_code_is_relabelling_invariant_up_to_10_vertices(n, p, seed):
    assert_relabelling_invariant(n, p, seed)


@settings(max_examples=20, deadline=None)
@given(st.integers(11, 12), st.floats(0.0, 0.5), st.integers(0, 2 ** 30))
def test_code_is_relabelling_invariant_on_sparse_12_vertices(n, p, seed):
    # Dense 12-vertex graphs can take seconds each, so they stay out.
    assert_relabelling_invariant(n, p, seed)


def test_code_realizes_back_to_isomorphic_graph():
    rng = random.Random(19)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.0, 1.0))
        realized = realize_sequence(code(g)).graph
        assert brute_force_isomorphic(realized, g).verdict


def test_is_isomorphic_by_code():
    assert is_isomorphic_by_code(path_graph(4), apply_permutation(path_graph(4), (3, 1, 0, 2)))
    assert not is_isomorphic_by_code(path_graph(4), cycle_graph(4))
    # same degree sequence, different structure: C_6 vs two triangles
    two_triangles = graph_from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic_by_code(cycle_graph(6), two_triangles)


def test_code_length_and_theta_relation():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.0, 0.9))
        entries = code(g)
        assert len(entries) == g.vertex_count
        ones = sum(1 for x in entries if x == 1)
        distinct_primes = len({p for x in entries for p in prime_support_of(x)})
        assert distinct_primes + ones == theta_t(g)


def prime_support_of(x: int) -> set[int]:
    from graphcode import prime_support

    return set(prime_support(x))


def test_theorem1_labels_example(example_graph):
    labeled, n = theorem1_labels(example_graph)
    assert labeled.labels == (2, 6, 12, 18, 3, 9, 5, 25, 7, 385, 11)
    assert n == 69300


def test_theorem1_labels_properties():
    rng = random.Random(37)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.0, 1.0))
        labeled, n = theorem1_labels(g)
        labels = labeled.labels
        assert len(set(labels)) == g.vertex_count  # all distinct
        assert n == lcm(*labels)
        for u in g.vertices():
            for v in range(u + 1, g.vertex_count):
                assert (gcd(labels[u], labels[v]) > 1) == g.has_edge(u, v)


def test_theorem1_labels_complete_graph():
    labeled, n = theorem1_labels(complete_graph(3))
    assert labeled.labels == (2, 4, 8)
    assert n == 8


def test_validate_coding_sequence(example_graph):
    assert validate_coding_sequence(EXAMPLE_CODE, example_graph)
    assert not validate_coding_sequence(EXAMPLE_CODE[:-1], example_graph)
    assert not validate_coding_sequence((3, 2), example_graph)
    assert validate_coding_sequence((2, 3, 10, 15), path_graph(4))
    assert not validate_coding_sequence((2, 3, 10, 15), cycle_graph(4))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.floats(0.2, 1.0), st.integers(0, 2 ** 30), st.booleans())
def test_code_is_least_sigma_over_minimum_coverings(n, p, seed, twins):
    # code() folds the shrink choice into its label search; listing every
    # minimum covering and labelling each one must agree with it.  About
    # half the examples are twin-heavy, which G(n, p) graphs rarely are.
    # Examples whose listing alone exceeds 10^5 units are skipped: some have
    # tens of thousands of minimum coverings to label.
    rng = random.Random(seed)
    g = random_blow_up(rng) if twins else random_graph(rng, n, p)
    try:
        coverings = minimum_total_coverings(g, budget=10 ** 5)
    except BudgetExceededError:
        assume(False)
    assert code(g) == min(sigma_of_covering(g, c) for c in coverings)


def k10_minus(*missing):
    return graph_from_edge_list(10, [e for e in combinations(range(10), 2) if e not in missing])


def test_dense_graphs_with_many_shrinks_stay_in_budget():
    # K_10 minus two disjoint edges has 1,330 irreducible minimum coverings;
    # labelling them one at a time took about 5 * 10^6 units.
    assert code(k10_minus((0, 6), (3, 8)), budget=10 ** 6) == (6, 6, 6, 6, 6, 6, 10, 14, 15, 21)
    assert (code(k10_minus((0, 6), (3, 8), (4, 5), (5, 6)), budget=10 ** 6)
            == (6, 6, 6, 6, 10, 14, 15, 21, 110, 231))


def test_code_never_lists_shrinks(example_graph, witness_graph, monkeypatch):
    calls = []
    listing = graphcode.cliques._shrinks

    def counted(*args, **kwargs):
        calls.append(args)
        return listing(*args, **kwargs)

    monkeypatch.setattr(graphcode.cliques, "_shrinks", counted)
    for g in (example_graph, witness_graph, k10_minus((0, 6), (3, 8)), cycle_graph(7)):
        code(g)
    assert not calls
    minimum_total_coverings(witness_graph)
    assert calls


def test_code_budget_exhaustion():
    with pytest.raises(BudgetExceededError):
        code(cycle_graph(7), budget=Budget(20))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(2, 6), st.floats(0.1, 0.9))
def test_round_trip_covering_sequence(seed, n, p):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    covering = random_total_covering(rng, g)
    assignment = random_assignment(rng, covering)
    entries = coding_sequence_from_covering(g, covering, assignment)
    from graphcode import covering_from_sequence

    rebuilt = covering_from_sequence(entries)
    relabeled = realize_sequence(entries).graph
    assert {frozenset(c) for c in rebuilt} and len(rebuilt) == len(covering)
    assert brute_force_isomorphic(relabeled, g).verdict


def test_one_budget_runs_the_covering_search_once_per_graph(example_graph, monkeypatch):
    for g, theta in ((example_graph, 5), (empty_graph(3), 3)):
        tracker = Budget()
        code(g, tracker)
        used = tracker.used
        assert theta_t(g, tracker) == theta
        assert tracker.used == used  # theta_t read the coverings code left
    calls = []
    enumerate_cliques = graphcode.cliques.maximal_cliques

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_cliques(*args, **kwargs)

    monkeypatch.setattr(graphcode.cliques, "maximal_cliques", counted)
    assert is_isomorphic_by_code(example_graph, example_graph, Budget())
    assert len(calls) == 1


@pytest.mark.parametrize("graph6, edges, units", [
    # G(n, 0.8) graphs from graphs.random_graph(n, 0.8, Random(1000 * n + s)),
    # s = 16, 11, 35 for n = 16 and s = 39 for n = 14.  No clique is forced
    # in any of them, so the covering search indexes all their edges, at,
    # below and above a multiple of 8.
    (r"O~l~y~\~uvvV}V^^~lr~U", 96, (19_866, 7_808, 60_614)),
    ("OnK~F}z^|~^x|Tu~Q~~~~", 95, (5_686, 1_992, 177_381)),
    ("O~^uuTuvr~n~nyX|~l|~~", 96, (26_016, 18_544, 25_021)),
    ("Mrrz~Zv~~v|w^jl~_", 73, (3_127, 1_480, 2_076)),
])
def test_units_of_the_searches_are_pinned_on_dense_graphs(graph6, edges, units):
    # A unit is a step of work, so a faster kernel must charge exactly
    # what the slower one did: code, theta_t and minimum_total_coverings,
    # each under a budget of its own.
    g = parse_graph6(graph6)
    assert g.edge_count == edges
    used = []
    for search in (code, theta_t, minimum_total_coverings):
        tracker = Budget()
        search(g, tracker)
        used.append(tracker.used)
    assert tuple(used) == units


def test_theta_t_stops_at_its_first_witness():
    # Pool 41#116 of the gnp benchmark has 88 least coverings by maximal
    # cliques.  theta_t stops its deepest walk at the first one and
    # remembers no listing, so code under the same budget lists them all.
    g = parse_graph6("Mvvnz~~~Z~~v^~z|_")
    tracker = Budget()
    assert theta_t(g, tracker) == 6
    assert tracker.used == 3_297
    assert not tracker.coverings
    sigma = code(g, tracker)
    assert tracker.used == 233_910
    alone = Budget()
    assert code(g, alone) == sigma
    assert alone.used == 230_613
