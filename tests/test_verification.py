"""Cross-check utilities used by the verify subcommand."""

from __future__ import annotations

import random

import pytest

import graphcode.cliques
from graphcode import (Budget, CheckResult, check_divisor_graph_polynomial, code,
                       complete_graph, covering_round_trip_check, cycle_graph, empty_graph,
                       first_primes, graph_from_edge_list, minimum_total_coverings,
                       path_graph, run_invariant_suite, theta_divisor_graph_check,
                       theta_lambda_consistency, theta_t)
from graphcode.cli import main

from conftest import random_assignment, random_blow_up, random_graph, random_total_covering


def suite_passes(g) -> bool:
    return all(r.passed for r in run_invariant_suite(g))


def test_suite_on_example(example_graph):
    results = run_invariant_suite(example_graph)
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_suite_on_witness(witness_graph):
    assert suite_passes(witness_graph)


def test_suite_on_families():
    for g in [complete_graph(1), complete_graph(5), empty_graph(4), path_graph(6), cycle_graph(6)]:
        assert suite_passes(g)


def test_suite_on_random_graphs():
    rng = random.Random(59)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.0, 1.0))
        assert suite_passes(g)


def test_round_trip_check_example(example_graph, example_covering):
    assert covering_round_trip_check(example_graph, example_covering, first_primes(5))
    assert covering_round_trip_check(example_graph, example_covering, (2, 5, 3, 7, 11))


def test_round_trip_check_random():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.9))
        covering = random_total_covering(rng, g)
        assignment = random_assignment(rng, covering)
        assert covering_round_trip_check(g, covering, assignment)


def test_theta_lambda_consistency_samples(example_graph, witness_graph):
    assert theta_lambda_consistency(example_graph)
    assert theta_lambda_consistency(witness_graph)
    assert theta_lambda_consistency(empty_graph(3))
    assert theta_lambda_consistency(complete_graph(4))


def test_theta_divisor_graph_check_values():
    for n in (2, 7, 12, 30, 60, 210, 97):
        assert theta_divisor_graph_check(n)


def test_check_divisor_graph_polynomial_values():
    for n in (2, 12, 30, 60, 97, 100):
        assert check_divisor_graph_polynomial(n)


def test_suite_charges_its_covering_tests():
    g = random_blow_up(random.Random(27), 9)
    coverings = minimum_total_coverings(g)
    assert (len(coverings), len(coverings[0])) == (307, 6)
    # Each covering is tested once whole and once per dropped clique, and
    # each test charges 1 per vertex plus 1 per clique member.
    floor = 0
    for cov in coverings:
        members = sum(len(c) for c in cov)
        floor += (len(cov) + 1) * (g.vertex_count + members) - members
    tracker = Budget()
    assert all(r.passed for r in run_invariant_suite(g, tracker))
    assert tracker.used >= floor


def test_suite_mentions_code_detail(example_graph):
    results = run_invariant_suite(example_graph)
    joined = " ".join(r.detail for r in results)
    assert "231" in joined  # the code's largest entry shows up in the detail text


def test_each_command_runs_the_covering_search_once(example_graph, monkeypatch):
    """verify, the theta/lambda check and divisor search each graph once."""
    calls = []
    enumerate_cliques = graphcode.cliques.maximal_cliques

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_cliques(*args, **kwargs)

    # On these paths only the covering search lists maximal cliques, once
    # per search.
    monkeypatch.setattr(graphcode.cliques, "maximal_cliques", counted)
    for run in (lambda: run_invariant_suite(example_graph),
                lambda: theta_lambda_consistency(example_graph),
                lambda: main(["divisor", "60"])):
        calls.clear()
        run()
        assert len(calls) == 1


def test_empty_graph_has_no_coverings():
    g = graph_from_edge_list(0, [])
    for run in (code, theta_t, minimum_total_coverings, run_invariant_suite,
                theta_lambda_consistency):
        with pytest.raises(ValueError, match="coverings need at least one vertex"):
            run(g)
