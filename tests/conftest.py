"""Shared fixtures: reference graphs and randomized generators."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import graphcode
from graphcode import (Graph, all_cliques, graph_from_cliques, graph_from_edge_list,
                       isolated_vertices)
from graphcode.primes import first_primes

# One line per acceptance criterion, echoed after the run so the verdicts
# are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# The eleven-vertex showcase graph: two components, five maximal cliques,
# a unique minimum covering, and every label phenomenon in one place.
EXAMPLE_CLIQUES = ((0, 1, 2, 3), (1, 2, 3, 4, 5), (6, 7, 9), (8, 9), (9, 10))

# Five-vertex witness whose code comes from a covering with a non-maximal
# clique: {0,1} beats the triangle {0,1,2} in one of the two minimums.
WITNESS_EDGES = ((0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (1, 4), (2, 4))


@pytest.fixture(scope="session")
def example_graph() -> Graph:
    return graph_from_cliques(11, EXAMPLE_CLIQUES)


@pytest.fixture(scope="session")
def example_covering() -> tuple[frozenset, ...]:
    return tuple(frozenset(c) for c in EXAMPLE_CLIQUES)


@pytest.fixture(scope="session")
def witness_graph() -> Graph:
    return graph_from_edge_list(5, WITNESS_EDGES)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) from graphs.random_graph, with the rng first."""
    return graphcode.random_graph(n, p, rng)


def random_blow_up(rng: random.Random, max_vertices: int = 9) -> Graph:
    """A random graph on 2-6 vertices with each vertex replaced by 1-3
    twins, adjacent (true twins) or not (false twins), relabelled at random.

    Twins make label searches symmetric, which G(n, p) graphs rarely are.
    """
    base = random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.9))
    copies = [rng.randint(1, 3) for _ in base.vertices()]
    while sum(copies) > max_vertices:
        copies[rng.choice([v for v, c in enumerate(copies) if c > 1])] -= 1
    origin = [v for v, c in enumerate(copies) for _ in range(c)]
    adjacent = [rng.random() < 0.5 for _ in copies]
    order = list(range(len(origin)))
    rng.shuffle(order)
    edges = [(order[a], order[b]) for (a, v), (b, w) in combinations(enumerate(origin), 2)
             if (adjacent[v] if v == w else base.has_edge(v, w))]
    return graph_from_edge_list(len(origin), edges)


def random_total_covering(rng: random.Random, g: Graph) -> tuple[frozenset, ...]:
    """A random total clique covering whose singletons are isolated vertices."""
    pool = sorted(all_cliques(g, min_size=2), key=sorted)
    chosen = {frozenset({v}) for v in isolated_vertices(g)}
    for u, v in g.sorted_edges():
        containing = [c for c in pool if u in c and v in c]
        chosen.add(rng.choice(containing))
    if pool and rng.random() < 0.3:
        chosen.add(rng.choice(pool))
    order = sorted(chosen, key=lambda c: (len(c), sorted(c)))
    rng.shuffle(order)
    return tuple(order)


def random_assignment(rng: random.Random, covering) -> tuple[int, ...]:
    """A random bijection from the non-singleton cliques to the first primes."""
    k = sum(1 for c in covering if len(c) > 1)
    primes = list(first_primes(k))
    rng.shuffle(primes)
    return tuple(primes)
