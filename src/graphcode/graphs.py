"""Simple undirected graphs and gcd-based constructions.

Vertices are 0..n-1.  A graph stores one neighbour bitmask per vertex:
bit w of rows[v] is set exactly when v and w are adjacent, so there are no
loops and no multi-edges.  The gcd constructions (divisor graphs, sequence
realizations) join two vertices exactly when their integer labels share a
prime factor.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd, prod
from typing import Iterable, NamedTuple, Sequence

from .budget import Budget
from .primes import divisors_above_one, factorize


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """An immutable simple graph; equal graphs have equal neighbour rows.

    Graph(n, edges) takes (u, v) pairs with u < v.  Only vertex_count and
    rows are stored; edges and degrees are derived from rows on access.
    """

    __slots__ = ("vertex_count", "rows")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError(f"vertex count must be >= 0, got {vertex_count}")
        rows = [0] * vertex_count
        for u, v in edges:
            if not (0 <= u < v < vertex_count):
                raise ValueError(f"bad edge ({u}, {v}) for {vertex_count} vertices")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _from_rows(cls, vertex_count: int, rows: tuple[int, ...]) -> "Graph":
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", vertex_count)
        object.__setattr__(g, "rows", rows)
        return g

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.rows))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {self.sorted_edges()!r})"

    def __reduce__(self):
        return Graph, (self.vertex_count, self.sorted_edges())

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (u, v) pairs with u < v, built on each access."""
        return frozenset(self.sorted_edges())

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def vertices(self) -> range:
        return range(self.vertex_count)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self.rows) for v in _bits(row >> u << u)]

    def has_edge(self, u: int, v: int) -> bool:
        n = self.vertex_count
        return 0 <= u < n and 0 <= v < n and self.rows[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()


class _LabeledGraphFields(NamedTuple):
    graph: Graph
    labels: tuple[int, ...]


class LabeledGraph(_LabeledGraphFields):
    """A graph with one positive integer label per vertex."""

    __slots__ = ()

    def __new__(cls, graph: Graph, labels: Sequence[int]) -> "LabeledGraph":
        labels = tuple(labels)
        if len(labels) != graph.vertex_count:
            raise ValueError("label count does not match vertex count")
        for x in labels:
            if x < 1:
                raise ValueError(f"labels must be positive, got {x}")
        return super().__new__(cls, graph, labels)


def graph_from_edge_list(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph in one pass, accepting either orientation and rejecting loops."""
    def oriented():
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            yield (u, v) if u < v else (v, u)

    return Graph(vertex_count, oriented())


def graph_from_cliques(vertex_count: int, cliques: Iterable[Iterable[int]]) -> Graph:
    """The graph whose edge set is the union of the given cliques.

    Each clique's vertex mask is OR-ed into its members' rows, so the work
    grows with the total clique size, not with the number of pairs.
    """
    if vertex_count < 0:
        raise ValueError(f"vertex count must be >= 0, got {vertex_count}")
    rows = [0] * vertex_count
    for clique in cliques:
        members = set(clique)
        if not all(0 <= v < vertex_count for v in members):
            raise ValueError(f"bad clique {sorted(members)} for {vertex_count} vertices")
        mask = sum(1 << v for v in members)
        for v in members:
            rows[v] |= mask
    return Graph._from_rows(vertex_count, tuple(row & ~(1 << v) for v, row in enumerate(rows)))


def realize_sequence(entries: Sequence[int]) -> LabeledGraph:
    """Graph on the entries of a positive integer sequence, joined by gcd > 1.

    Entry order is preserved; entries equal to 1 are isolated because they
    share no prime with anything.
    """
    labels = tuple(entries)
    if not labels:
        raise ValueError("cannot realize an empty sequence")
    for x in labels:
        if x < 1:
            raise ValueError(f"entries must be positive integers, got {x}")
    n = len(labels)
    edges = [(i, j) for i, j in combinations(range(n), 2) if gcd(labels[i], labels[j]) > 1]
    return LabeledGraph(graph_from_edge_list(n, edges), labels)


def divisor_graph(n: int, budget: int | Budget | None = None) -> LabeledGraph:
    """Graph on the divisors of n greater than 1, joined by gcd > 1.

    Vertex i carries the (i+1)-th smallest such divisor as its label, so a
    prime n yields a single isolated vertex.  Listing the divisors charges
    the budget, and so does each divisor pair tested, before any is built.
    """
    if n < 2:
        raise ValueError(f"divisor graph needs n >= 2, got {n}")
    tracker = Budget.coerce(budget)
    d = prod(e + 1 for _, e in factorize(n, tracker)) - 1
    tracker.charge(d * (d - 1) // 2)
    return realize_sequence(divisors_above_one(n, tracker))


def apply_permutation(g: Graph, permutation: Sequence[int]) -> Graph:
    """Relabel g by vertex -> permutation[vertex]."""
    if sorted(permutation) != list(g.vertices()):
        raise ValueError("not a permutation of the vertex set")
    edges = [(permutation[u], permutation[v]) for u, v in g.sorted_edges()]
    return graph_from_edge_list(g.vertex_count, edges)


def isolated_vertices(g: Graph) -> set[int]:
    """Vertices with no incident edge."""
    return {v for v, row in enumerate(g.rows) if not row}


def _reach(g: Graph, mask: int) -> int:
    """The neighbours of the vertices in mask, as a bitmask."""
    out = 0
    for v in _bits(mask):
        out |= g.rows[v]
    return out


def connected_components(g: Graph) -> list[set[int]]:
    """Vertex sets of the connected components, ordered by smallest member."""
    remaining = (1 << g.vertex_count) - 1
    components = []
    while remaining:
        component = frontier = remaining & -remaining
        while frontier:
            frontier = _reach(g, frontier) & ~component
            component |= frontier
        remaining &= ~component
        components.append(set(_bits(component)))
    return components


def is_connected(g: Graph) -> bool:
    """True iff the graph has at most one connected component."""
    return len(connected_components(g)) <= 1


def two_coloring(g: Graph) -> list[int] | None:
    """A proper 2-coloring as a list of 0/1, or None if none exists.

    Breadth-first layers from each component's least vertex alternate
    colours; an edge inside a layer is an odd cycle.
    """
    sides = [0, 0]
    remaining = (1 << g.vertex_count) - 1
    while remaining:
        layer, color = remaining & -remaining, 0
        while layer:
            sides[color] |= layer
            remaining &= ~layer
            reach = _reach(g, layer)
            if reach & layer:
                return None
            layer = reach & remaining
            color ^= 1
    return [sides[1] >> v & 1 for v in g.vertices()]


def is_bipartite(g: Graph) -> bool:
    """True iff the vertex set splits into two independent parts."""
    return two_coloring(g) is not None


def independence_number(g: Graph, budget: int | Budget | None = None) -> int:
    """Exact size of a maximum independent set, by a branch and bound that
    takes each vertex, by falling degree, before it leaves it out; each node
    charges one budget unit.  Bit t of a node's candidate mask stands for the
    t-th vertex by falling degree (ties by id), so it branches on its lowest."""
    tracker = Budget.coerce(budget)
    order = sorted(g.vertices(), key=g.degree, reverse=True)
    position = {v: t for t, v in enumerate(order)}
    closed = [sum(1 << position[w] for w in _bits(g.rows[v] | 1 << v)) for v in order]
    record = 0
    stack = [((1 << g.vertex_count) - 1, 0)]
    while stack:
        candidates, current = stack.pop()
        tracker.charge()
        if current + candidates.bit_count() <= record:
            continue
        if not candidates:
            record = current
            continue
        t = (candidates & -candidates).bit_length() - 1
        stack += ((candidates ^ 1 << t, current), (candidates & ~closed[t], current + 1))
    return record


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return graph_from_edge_list(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path graph needs n >= 1, got {n}")
    return graph_from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    return graph_from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"empty graph needs n >= 1, got {n}")
    return Graph(n, ())


FAMILIES = {
    "complete": complete_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    "empty": empty_graph,
}


def generate_family(family: str, n: int) -> Graph:
    """One of the named families: complete, path, cycle, empty."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}") from None
    return builder(n)


def random_graph(n: int, edge_probability: float, rng: random.Random) -> Graph:
    """Erdos-Renyi sample; deterministic given the supplied rng."""
    if n < 1:
        raise ValueError(f"random graph needs n >= 1, got {n}")
    edges = [e for e in combinations(range(n), 2) if rng.random() < edge_probability]
    return graph_from_edge_list(n, edges)
