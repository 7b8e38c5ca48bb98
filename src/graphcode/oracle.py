"""Brute-force reference implementations for cross-checking.

Everything here is deliberately naive and independent of the search code in
the rest of the package: cliques come from subset enumeration, coverings
from unpruned combinations, codes from full factorial assignment sweeps,
and isomorphism from permutation search.  Intended for graphs of at most
about 9 vertices (7 for covering-based routines).
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import prod
from typing import Iterator, NamedTuple

from .budget import Budget
from .graphs import Graph, graph_from_edge_list
from .primes import first_primes

ORACLE_MAX_VERTICES = 9
ORACLE_COVER_MAX_VERTICES = 7


class OracleReport(NamedTuple):
    verdict: bool
    witness: tuple[int, ...] | None
    nodes_searched: int


def _check_size(g: Graph, limit: int) -> None:
    if g.vertex_count > limit:
        raise ValueError(f"oracle limited to {limit} vertices, got {g.vertex_count}")


def brute_force_isomorphic(g1: Graph, g2: Graph,
                           budget: int | Budget | None = None) -> OracleReport:
    """Decide isomorphism by permutation search with degree pruning.

    The witness, when present, maps vertices of g1 to vertices of g2.
    """
    _check_size(g1, ORACLE_MAX_VERTICES)
    _check_size(g2, ORACLE_MAX_VERTICES)
    tracker = Budget.coerce(budget)
    nodes = 0
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return OracleReport(False, None, nodes)
    degrees1 = sorted(g1.degree(v) for v in g1.vertices())
    degrees2 = sorted(g2.degree(v) for v in g2.vertices())
    if degrees1 != degrees2:
        return OracleReport(False, None, nodes)

    n = g1.vertex_count
    candidates = [[w for w in g2.vertices() if g2.degree(w) == g1.degree(v)]
                  for v in g1.vertices()]
    mapping: list[int] = []
    used: set[int] = set()

    def extend() -> tuple[int, ...] | None:
        nonlocal nodes
        tracker.charge()
        nodes += 1
        v = len(mapping)
        if v == n:
            return tuple(mapping)
        for w in candidates[v]:
            if w in used:
                continue
            ok = all(g1.has_edge(u, v) == g2.has_edge(mapping[u], w) for u in range(v))
            if not ok:
                continue
            mapping.append(w)
            used.add(w)
            witness = extend()
            if witness is not None:
                return witness
            mapping.pop()
            used.remove(w)
        return None

    witness = extend()
    return OracleReport(witness is not None, witness, nodes)


def all_cliques(g: Graph, min_size: int = 1) -> list[frozenset[int]]:
    """Every clique of at least min_size vertices, by checking all vertex
    subsets for pairwise adjacency."""
    _check_size(g, ORACLE_MAX_VERTICES)
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    cliques = []
    for size in range(min_size, g.vertex_count + 1):
        for subset in combinations(g.vertices(), size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                cliques.append(frozenset(subset))
    return cliques


def _is_covering(g: Graph, cliques: tuple[frozenset[int], ...]) -> bool:
    covered_vertices = set().union(*cliques) if cliques else set()
    if covered_vertices != set(g.vertices()):
        return False
    return all(any(u in c and v in c for c in cliques) for u, v in g.sorted_edges())


def brute_force_minimum_coverings(g: Graph, budget: int | Budget | None = None,
                                  ) -> list[frozenset[frozenset[int]]]:
    """All minimum total clique coverings, by unpruned combination sweeps."""
    _check_size(g, ORACLE_COVER_MAX_VERTICES)
    if g.vertex_count == 0:
        raise ValueError("coverings need at least one vertex")
    tracker = Budget.coerce(budget)
    cliques = all_cliques(g)
    for size in range(1, len(cliques) + 1):
        found = []
        for combo in combinations(cliques, size):
            tracker.charge()
            if _is_covering(g, combo):
                found.append(frozenset(combo))
        if found:
            return found
    raise AssertionError("unreachable: the set of all cliques is a covering")


def brute_force_theta(g: Graph, budget: int | Budget | None = None) -> int:
    """Minimum total clique covering size, by unpruned search."""
    return len(next(iter(brute_force_minimum_coverings(g, budget))))


def brute_force_sigma_of_covering(g: Graph, covering: frozenset[frozenset[int]],
                                  ) -> tuple[int, ...]:
    """Least label sequence of one covering, over every prime assignment."""
    non_singletons = sorted((c for c in covering if len(c) > 1),
                            key=lambda c: sorted(c))
    holders = [[i for i, c in enumerate(non_singletons) if v in c] for v in g.vertices()]
    best = None
    for assigned in permutations(first_primes(len(non_singletons))):
        candidate = tuple(sorted(prod(assigned[i] for i in held) for held in holders))
        if best is None or candidate < best:
            best = candidate
    if best is None:
        # k == 0: permutations(()) still yields one empty assignment.
        raise AssertionError("unreachable")
    return best


def brute_force_code(g: Graph, budget: int | Budget | None = None) -> tuple[int, ...]:
    """The canonical code, by full covering and assignment enumeration."""
    tracker = Budget.coerce(budget)
    coverings = brute_force_minimum_coverings(g, tracker)
    return min(brute_force_sigma_of_covering(g, covering) for covering in coverings)


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every graph on vertices 0..n-1, one per subset of the n*(n-1)/2 pairs."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield graph_from_edge_list(n, edges)
