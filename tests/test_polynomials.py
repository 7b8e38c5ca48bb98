"""Polynomial forms: construction, rendering, closed forms, detectors."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from graphcode import (GraphPolynomial, canonical_polynomial, closed_form_family,
                       code, coding_sequence_from_covering, complete_graph, cycle_graph,
                       divisor_graph, divisor_graph_polynomial_closed_form,
                       detect_bipartite_poly, detect_disconnected_poly, empty_graph, first_primes,
                       graph_from_edge_list, is_bipartite, is_connected,
                       isolated_vertices, maximal_cliques, minimum_total_coverings,
                       path_graph, poly_from_covering, poly_from_sequence, theta_t)

from conftest import random_assignment, random_blow_up, random_graph, random_total_covering

EXAMPLE_CODE = (2, 2, 3, 3, 5, 7, 10, 10, 10, 11, 231)
EXAMPLE_F = "2*x1 + 2*x2 + x3 + x4 + x5 + 3*x1*x3 + x2*x4*x5"
EXAMPLE_LITTLE_F = "x1 + 2*x2 + 2*x3 + x4 + x5 + 3*x1*x2 + x3*x4*x5"


def test_polynomial_merges_and_validates():
    p = GraphPolynomial([((1,), 1), ((1,), 2), ((), 1)])
    assert p.terms == {(1,): 3, (): 1}
    assert p.total_mass == 4
    assert p.constant_term == 1
    assert p.variable_count == 1
    with pytest.raises(ValueError):
        GraphPolynomial([((2, 1), 1)])  # not ascending
    with pytest.raises(ValueError):
        GraphPolynomial([((1, 1), 1)])  # repeated variable
    with pytest.raises(ValueError):
        GraphPolynomial([((1,), 0)])  # zero coefficient
    with pytest.raises(ValueError):
        GraphPolynomial([((0,), 1)])  # variables are 1-based


def test_render_known_forms():
    assert GraphPolynomial({(1,): 3}).render() == "3*x1"
    assert GraphPolynomial({(): 2}).render() == "2"
    assert GraphPolynomial({(1, 2): 1, (1,): 2, (): 1}).render() == "1 + 2*x1 + x1*x2"


def test_parse_inverse_of_render():
    for text in ["3*x1", "2", "1 + 2*x1 + x1*x2", EXAMPLE_F, EXAMPLE_LITTLE_F]:
        assert GraphPolynomial.parse(text).render() == text


def test_parse_rejects_malformed():
    for bad in ["", "x1 +", "x0", "2*", "x2*x1", "x1*x1", "y1", "x1**2"]:
        with pytest.raises(ValueError):
            GraphPolynomial.parse(bad)


@given(st.dictionaries(
    st.lists(st.integers(1, 6), min_size=0, max_size=4, unique=True).map(lambda v: tuple(sorted(v))),
    st.integers(1, 9), min_size=1, max_size=6))
def test_parse_render_round_trip(terms):
    p = GraphPolynomial(terms)
    assert GraphPolynomial.parse(p.render()) == p


def test_example_polynomials(example_graph, example_covering):
    assert poly_from_covering(example_graph, example_covering).render() == EXAMPLE_LITTLE_F
    assert poly_from_sequence(EXAMPLE_CODE).render() == EXAMPLE_F
    assert canonical_polynomial(example_graph).render() == EXAMPLE_F


def test_poly_from_sequence_variable_indexing():
    # Variables follow the rank of each prime among those present, so a
    # sequence using primes {3, 7} still maps to x1, x2.
    assert poly_from_sequence((3, 3, 7, 7)).render() == "2*x1 + 2*x2"
    assert poly_from_sequence((1, 1)).render() == "2"


def test_poly_from_sequence_rejects_bad_shape():
    with pytest.raises(ValueError):
        poly_from_sequence((3, 2))
    with pytest.raises(ValueError):
        poly_from_sequence((2, 4))


def test_family_polynomials():
    assert canonical_polynomial(complete_graph(4)).render() == "4*x1"
    assert canonical_polynomial(path_graph(4)).render() == "x1 + x2 + x1*x3 + x2*x3"
    assert canonical_polynomial(cycle_graph(4)).render() == "x1*x2 + x1*x3 + x2*x4 + x3*x4"
    assert canonical_polynomial(empty_graph(2)).render() == "2"


def test_closed_form_family_matches_pipeline():
    for family, sizes in [("complete", range(1, 7)), ("path", range(3, 8)), ("cycle", range(4, 8))]:
        for n in sizes:
            expected_code, expected_poly = closed_form_family(family, n)
            from graphcode import generate_family

            g = generate_family(family, n)
            assert code(g) == expected_code
            assert canonical_polynomial(g) == expected_poly


def test_closed_form_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        closed_form_family("path", 2)
    with pytest.raises(ValueError):
        closed_form_family("cycle", 3)
    with pytest.raises(ValueError):
        closed_form_family("complete", 0)
    with pytest.raises(ValueError):
        closed_form_family("wheel", 5)


def test_divisor_graph_closed_form_60():
    p = divisor_graph_polynomial_closed_form(60)
    assert p.render() == "2*x1 + x2 + x3 + 2*x1*x2 + 2*x1*x3 + x2*x3 + 2*x1*x2*x3"
    assert p.total_mass == 11  # 60 has eleven divisors above 1
    assert p == canonical_polynomial(divisor_graph(60).graph)


def test_divisor_graph_closed_form_prime():
    assert divisor_graph_polynomial_closed_form(7).render() == "1"
    assert divisor_graph_polynomial_closed_form(2).render() == "1"


def test_divisor_graph_closed_form_small_cases():
    assert divisor_graph_polynomial_closed_form(4).render() == "2*x1"
    assert divisor_graph_polynomial_closed_form(6).render() == "x1 + x2 + x1*x2"
    # 12 = 2^2 * 3: exponents (2, 1)
    assert divisor_graph_polynomial_closed_form(12).render() == "2*x1 + x2 + 2*x1*x2"


def test_divisor_graph_closed_form_matches_pipeline_sample():
    for n in (8, 9, 10, 18, 30, 36, 100):
        closed = divisor_graph_polynomial_closed_form(n)
        assert closed == canonical_polynomial(divisor_graph(n).graph)


def test_theta_of_divisor_graph_counts_prime_divisors():
    from graphcode import factorize

    for n in (4, 6, 12, 30, 60, 90, 210):
        g = divisor_graph(n).graph
        assert theta_t(g) == len(factorize(n))
        assert len(minimum_total_coverings(g)) == 1


def test_detectors_on_known_graphs(example_graph):
    f = canonical_polynomial(example_graph)
    assert detect_disconnected_poly(f)
    assert not detect_bipartite_poly(f)
    assert not detect_disconnected_poly(canonical_polynomial(path_graph(4)))
    assert detect_bipartite_poly(canonical_polynomial(cycle_graph(4)))
    assert not detect_bipartite_poly(canonical_polynomial(cycle_graph(5)))
    assert not detect_bipartite_poly(canonical_polynomial(complete_graph(3)))
    assert detect_bipartite_poly(canonical_polynomial(complete_graph(2)))
    assert detect_disconnected_poly(canonical_polynomial(empty_graph(2)))
    assert detect_bipartite_poly(canonical_polynomial(empty_graph(3)))


def test_detectors_mixed_isolated_and_edge():
    g = graph_from_edge_list(3, [(0, 1)])
    f = canonical_polynomial(g)
    assert detect_disconnected_poly(f)
    assert detect_bipartite_poly(f)


def test_detectors_agree_with_structure_on_canonical_form():
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.0, 1.0))
        f = canonical_polynomial(g)
        assert detect_disconnected_poly(f) == (not is_connected(g))
        assert detect_bipartite_poly(f) == is_bipartite(g)


def test_detectors_agree_on_arbitrary_coverings():
    # The detectors read any covering's polynomial, not just the canonical one.
    rng = random.Random(43)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.0, 1.0))
        f = poly_from_covering(g, random_total_covering(rng, g))
        assert detect_disconnected_poly(f) == (not is_connected(g))
        assert detect_bipartite_poly(f) == is_bipartite(g)


def test_covering_and_its_coding_sequence_share_a_polynomial():
    # x_i is the i-th non-singleton clique on one side and the i-th smallest
    # prime of the sequence on the other: the same variable once the primes
    # go to the cliques in covering order.
    rng = random.Random(53)
    for i in range(300):
        g = (random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 1.0)) if i % 2
             else random_blow_up(rng, 9))
        covering = random_total_covering(rng, g)
        cliques = [c for c in covering if len(c) > 1]
        sequence = coding_sequence_from_covering(g, covering, first_primes(len(cliques)))
        assert poly_from_covering(g, covering) == poly_from_sequence(sequence)
        assignment = random_assignment(rng, covering)
        by_prime = [c for _, c in sorted(zip(assignment, cliques))]
        singletons = [c for c in covering if len(c) == 1]
        assert (poly_from_covering(g, by_prime + singletons)
                == poly_from_sequence(coding_sequence_from_covering(g, covering, assignment)))


def test_mass_and_constant_track_vertices():
    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.0, 1.0))
        f = poly_from_covering(g, list(maximal_cliques(g)))
        assert f.total_mass == g.vertex_count
        assert f.constant_term == len(isolated_vertices(g))


def test_monomial_copies_expand_coefficients():
    p = GraphPolynomial({(1,): 2, (1, 2): 1, (): 1})
    assert p.monomial_copies() == [(), (1,), (1,), (1, 2)]


def test_detectors_scale_with_copies_not_pairs():
    p = GraphPolynomial({(1,): 3000, (2,): 3000})
    start = time.perf_counter()
    assert detect_disconnected_poly(p)
    assert not detect_bipartite_poly(p)
    assert time.perf_counter() - start < 1.0
