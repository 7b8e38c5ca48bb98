"""Cross-checking suites tying the whole pipeline together.

These checks re-derive the same facts along independent routes (covering
search vs. number theory, code vs. brute force, polynomial structure vs.
graph traversal) and are used by the command-line verify subcommand and
the test suite.  The polynomial detectors traverse the graph on a
polynomial's monomial copies through the graphs module, so the structure
they read off is checked against the graph itself.
"""

from __future__ import annotations

from typing import NamedTuple

from .budget import Budget
from .cliques import is_total_clique_covering, minimum_total_coverings, theta_t
from .coding import _vertex_labels, code, covering_from_sequence, lambda_of
from .graphs import Graph, divisor_graph, is_bipartite, is_connected, isolated_vertices, realize_sequence
from .oracle import ORACLE_MAX_VERTICES, brute_force_isomorphic
from .polynomials import (canonical_polynomial, detect_bipartite_poly,
                          detect_disconnected_poly, divisor_graph_polynomial_closed_form,
                          poly_from_covering, poly_from_sequence)
from .primes import factorize, first_primes, prime_support


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def covering_round_trip_check(g: Graph, covering, assignment,
                              budget: int | Budget | None = None) -> bool:
    """covering_from_sequence inverts coding_sequence_from_covering: it
    rebuilds the covering's image under the vertex order of sorted labels."""
    labels = _vertex_labels(g, covering, assignment)
    rebuilt = set(covering_from_sequence(tuple(sorted(labels)), budget))
    position = {v: i for i, v in enumerate(sorted(g.vertices(), key=lambda v: (labels[v], v)))}
    return rebuilt == {frozenset(position[v] for v in c) for c in covering}


def theta_lambda_consistency(g: Graph, budget: int | Budget | None = None) -> bool:
    """theta_t equals the prime count of lambda(code) plus the isolated count."""
    tracker = Budget.coerce(budget)
    sigma = code(g, tracker)  # first, so theta_t reads the coverings it left
    k = len(prime_support(lambda_of(sigma), tracker))
    return theta_t(g, tracker) == k + len(isolated_vertices(g))


def theta_divisor_graph_check(n: int, budget: int | Budget | None = None) -> bool:
    """G(n) has theta_t = (number of distinct primes of n) and a unique minimum.

    For non-prime n the unique covering consists of one clique per prime p
    of n: the divisors p divides.  A prime n gives a single isolated vertex.
    """
    tracker = Budget.coerce(budget)
    labeled = divisor_graph(n, tracker)
    coverings = minimum_total_coverings(labeled.graph, tracker)
    primes_of_n = [p for p, _ in factorize(n, tracker)]
    if len(coverings) != 1 or len(coverings[0]) != len(primes_of_n):
        return False
    expected = {frozenset(i for i, d in enumerate(labeled.labels) if d % p == 0)
                for p in primes_of_n}
    return set(coverings[0]) == expected


def run_invariant_suite(g: Graph, budget: int | Budget | None = None) -> list[CheckResult]:
    """The per-graph cross-checks behind the verify subcommand."""
    tracker = Budget.coerce(budget)
    results: list[CheckResult] = []

    coverings = minimum_total_coverings(g, tracker)
    theta = len(coverings[0])
    isolated = isolated_vertices(g)

    def covers(cliques) -> bool:
        tracker.charge(g.vertex_count + sum(len(c) for c in cliques))
        return is_total_clique_covering(g, cliques)

    ok = all(covers(c) and len(c) == theta for c in coverings)
    results.append(CheckResult("minimum coverings are valid and sized theta_t", ok,
                               f"theta_t={theta}, coverings={len(coverings)}"))

    ok = all({v for c in cov for v in c if len(c) == 1} == isolated for cov in coverings)
    results.append(CheckResult("singletons in minimum coverings are the isolated vertices", ok))

    def essential(cov) -> bool:
        return all(not covers([c for c in cov if c is not dropped])
                   for dropped in cov)
    ok = all(essential(cov) for cov in coverings)
    results.append(CheckResult("every clique in a minimum covering is essential", ok))

    sigma = code(g, tracker)
    ok = theta == len(prime_support(lambda_of(sigma), tracker)) + len(isolated)
    results.append(CheckResult("theta_t = primes(lambda(code)) + isolated count", ok,
                               f"code={sigma}"))

    ok = all(covering_round_trip_check(g, cov, first_primes(sum(1 for c in cov if len(c) > 1)),
                                       tracker)
             for cov in coverings)
    results.append(CheckResult("covering -> sequence -> covering round trip", ok))

    if g.vertex_count <= ORACLE_MAX_VERTICES:
        realized = realize_sequence(sigma).graph
        ok = brute_force_isomorphic(realized, g, tracker).verdict
        results.append(CheckResult("realizing the code reproduces the graph", ok))
    else:
        results.append(CheckResult("realizing the code reproduces the graph", True,
                                   "skipped: beyond oracle size"))

    polynomial = poly_from_sequence(sigma, tracker)
    ok = polynomial.total_mass == g.vertex_count and polynomial.constant_term == len(isolated)
    results.append(CheckResult("polynomial mass and constant term", ok,
                               f"F={polynomial.render()}"))

    f_poly = poly_from_covering(g, coverings[0])
    disconnected, bipartite = not is_connected(g), is_bipartite(g)
    ok = detect_disconnected_poly(polynomial) == detect_disconnected_poly(f_poly) == disconnected
    results.append(CheckResult("disconnection is readable off the polynomials", ok))

    ok = detect_bipartite_poly(polynomial) == detect_bipartite_poly(f_poly) == bipartite
    results.append(CheckResult("bipartiteness is readable off the polynomials", ok))

    return results


def check_divisor_graph_polynomial(n: int, budget: int | Budget | None = None) -> bool:
    """Full pipeline on G(n) agrees with the closed-form polynomial."""
    tracker = Budget.coerce(budget)
    pipeline = canonical_polynomial(divisor_graph(n, tracker).graph, tracker)
    return pipeline == divisor_graph_polynomial_closed_form(n, tracker)
