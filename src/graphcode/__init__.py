"""Canonical integer codes and polynomial forms for simple graphs.

The toolkit labels graphs through total clique coverings: primes assigned
to cliques give each vertex the product of its cliques' primes, two
vertices being adjacent exactly when their labels share a factor.  The
lexicographically least label sequence over all minimum coverings and all
prime assignments is a complete isomorphism invariant, with a companion
polynomial form whose structure exposes connectivity and bipartiteness.
"""

from .budget import Budget, BudgetExceededError, DEFAULT_BUDGET
from .cliques import (canonical_covering, covering_from_text, covering_to_text,
                      is_total_clique_covering, maximal_cliques, minimum_total_coverings,
                      prop1_certificate, theta_t)
from .coding import (check_sequence_shape, code, coding_sequence_from_covering,
                     covering_from_sequence, is_isomorphic_by_code, lambda_of, parse_sequence,
                     render_sequence, sigma_of_covering, theorem1_labels,
                     validate_coding_sequence)
from .graph_io import (GRAPH6_MAX_VERTICES, detect_format, load_graph, parse_dimacs,
                       parse_edge_list, parse_graph6, parse_graph6_file,
                       render_edge_list, render_graph6)
from .graphs import (Graph, LabeledGraph, apply_permutation, complete_graph,
                     connected_components, cycle_graph, divisor_graph, empty_graph,
                     generate_family, graph_from_cliques, graph_from_edge_list,
                     independence_number, is_bipartite, is_connected,
                     isolated_vertices, path_graph, random_graph, realize_sequence,
                     two_coloring)
from .oracle import (ORACLE_COVER_MAX_VERTICES, ORACLE_MAX_VERTICES, OracleReport,
                     all_cliques, all_labeled_graphs, brute_force_code, brute_force_isomorphic,
                     brute_force_minimum_coverings, brute_force_sigma_of_covering,
                     brute_force_theta)
from .primes import (divisors_above_one, factorize, first_primes, is_square_free,
                     nth_prime, prime_support)
from .polynomials import (GraphPolynomial, canonical_polynomial,
                          closed_form_family, detect_bipartite_poly,
                          detect_disconnected_poly,
                          divisor_graph_polynomial_closed_form,
                          poly_from_covering, poly_from_sequence)
from .verification import (CheckResult, check_divisor_graph_polynomial,
                           covering_round_trip_check, run_invariant_suite,
                           theta_divisor_graph_check, theta_lambda_consistency)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
