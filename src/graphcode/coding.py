"""Canonical integer codes for graphs via labeled clique coverings.

Assigning distinct primes to the non-singleton cliques of a total clique
covering labels each vertex with the product of its cliques' primes; the
sorted label sequence is a coding sequence of the graph.  Minimizing
lexicographically over all prime assignments and over all minimum
coverings yields the code, which is identical for two graphs exactly
when they are isomorphic.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import lcm, prod
from typing import Iterable, Sequence

from .budget import Budget
from .cliques import irreducible_minimum_coverings, is_total_clique_covering, maximal_cliques
from .graphs import Graph, LabeledGraph, realize_sequence
from .primes import first_primes, is_square_free, prime_support


def check_sequence_shape(entries: Sequence[int], budget: int | Budget | None = None) -> None:
    """Raise unless entries form a structurally valid coding sequence.

    Required: non-empty, non-decreasing, positive, square-free above 1, and
    every entry above 1 shares a prime with some other entry (entries equal
    to 1, and only those, realize isolated vertices).  Factoring the entries
    charges the budget one unit per trial divisor.
    """
    tracker = Budget.coerce(budget)
    if not entries:
        raise ValueError("coding sequence must be non-empty")
    previous = 0
    for x in entries:
        if x < 1:
            raise ValueError(f"coding sequence entries must be >= 1, got {x}")
        if x < previous:
            raise ValueError("coding sequence must be non-decreasing")
        if x > 1 and not is_square_free(x, tracker):
            raise ValueError(f"non-trivial entry {x} is not square-free")
        previous = x
    prime_users: dict[int, int] = {}
    for x in entries:
        for p in prime_support(x, tracker):
            prime_users[p] = prime_users.get(p, 0) + 1
    for x in entries:
        if x > 1 and all(prime_users[p] == 1 for p in prime_support(x, tracker)):
            raise ValueError(f"entry {x} would realize an isolated vertex; it must be 1")


def lambda_of(entries: Sequence[int]) -> int:
    """Least common multiple of the non-trivial entries (1 when there are none)."""
    if not entries:
        raise ValueError("coding sequence must be non-empty")
    if any(x < 1 for x in entries):
        raise ValueError("coding sequence entries must be >= 1")
    return lcm(*(x for x in entries if x > 1)) if any(x > 1 for x in entries) else 1


def render_sequence(entries: Sequence[int]) -> str:
    """Serialize as "(a1,a2,...)" with no spaces."""
    return "(" + ",".join(str(x) for x in entries) + ")"


def parse_sequence(text: str) -> tuple[int, ...]:
    """Inverse of render_sequence; surrounding parentheses are optional."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if not body.strip():
        raise ValueError("empty sequence")
    try:
        return tuple(int(tok.strip()) for tok in body.split(","))
    except ValueError:
        raise ValueError(f"malformed sequence {text!r}") from None


def _split_covering(covering: Sequence[Iterable[int]]) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    members = [frozenset(c) for c in covering]
    return [c for c in members if len(c) == 1], [c for c in members if len(c) > 1]


def coding_sequence_from_covering(g: Graph, covering: Sequence[Iterable[int]],
                                  assignment: Sequence[int]) -> tuple[int, ...]:
    """Sorted vertex labels under one explicit prime assignment.

    assignment[i] is the prime given to the i-th non-singleton clique of the
    covering, in covering order, and must be a permutation of the first k
    primes.  Vertices in no non-singleton clique are isolated and labeled 1.
    """
    if not is_total_clique_covering(g, covering):
        raise ValueError("not a total clique covering of the graph")
    _, non_singletons = _split_covering(covering)
    k = len(non_singletons)
    if sorted(assignment) != sorted(first_primes(k)):
        raise ValueError(f"assignment must be a permutation of the first {k} primes")
    labels = []
    for v in g.vertices():
        label = prod(assignment[i] for i, c in enumerate(non_singletons) if v in c)
        labels.append(label)
    return tuple(sorted(labels))


def _assignment_patterns(g: Graph, covering: Sequence[Iterable[int]],
                         ) -> tuple[list[int], list[list[int]], int]:
    """Vertex membership bitmasks over the non-singleton cliques.

    Returns (patterns of the non-isolated vertices, vertex lists per clique
    index, count of label-1 vertices).
    """
    _, non_singletons = _split_covering(covering)
    pattern_by_vertex = [0] * g.vertex_count
    members: list[list[int]] = []
    for i, clique in enumerate(non_singletons):
        members.append([])
        for v in clique:
            pattern_by_vertex[v] |= 1 << i
    patterns = []
    ones = 0
    index_of = {}
    for v in g.vertices():
        if pattern_by_vertex[v]:
            index_of[v] = len(patterns)
            patterns.append(pattern_by_vertex[v])
        else:
            ones += 1
    for i, clique in enumerate(non_singletons):
        members[i] = sorted(index_of[v] for v in clique)
    return patterns, members, ones


def _swap_bits(x: int, a: int, b: int) -> int:
    bit_a = x >> a & 1
    bit_b = x >> b & 1
    if bit_a != bit_b:
        x ^= (1 << a) | (1 << b)
    return x


def _interchangeable_lower_masks(patterns: list[int], k: int, tracker: Budget) -> list[int]:
    """For each clique, the mask of lower-indexed interchangeable cliques.

    Two cliques are interchangeable when swapping them maps the multiset of
    vertex membership patterns to itself; assignments then need only try
    them in index order.  Each pair tested charges one budget unit.
    """
    reference = sorted(patterns)
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in combinations(range(k), 2):
        tracker.charge()
        if sorted(_swap_bits(p, a, b) for p in patterns) == reference:
            parent[find(b)] = find(a)
    lower = [0] * k
    for c in range(k):
        for d in range(c):
            if find(d) == find(c):
                lower[c] |= 1 << d
    return lower


def _min_label_sequence(g: Graph, covering: Sequence[Iterable[int]],
                        tracker: Budget,
                        seed: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Lexicographically least sorted label sequence over all assignments.

    With a seed, returns min(seed, true minimum), which lets callers thread
    a running best across several coverings.
    """
    patterns, members, ones = _assignment_patterns(g, covering)
    k = len(members)
    primes = first_primes(k)
    if k == 0:
        sequence = (1,) * ones
        return min(seed, sequence) if seed is not None else sequence
    return _min_sequence_branch_and_bound(patterns, members, ones, primes, tracker, seed)


def _min_sequence_branch_and_bound(patterns: list[int], members: list[list[int]],
                                   ones: int, primes: tuple[int, ...],
                                   tracker: Budget,
                                   seed: tuple[int, ...] | None) -> tuple[int, ...]:
    """Assign primes in ascending order, bounding against the incumbent.

    An unfinished vertex v with open(v) unassigned cliques ends at least at
    its floor: its partial product times the next |open(v)| primes.  Labels
    only grow, so the sorted floors bound every completion below a node,
    and a node whose floor is lexicographically >= the incumbent is cut.
    Let mu be the least floor of an unfinished vertex.  Giving that
    vertex's open cliques the next primes makes its label exactly mu, while
    every other label stays >= mu, so every optimal completion gives some
    vertex exactly mu; the only way to do so is to give the open cliques of
    a vertex whose floor is mu exactly the next primes, since any other
    choice of as many primes has a larger product.  The search therefore
    branches on the distinct open-clique masks of the least-floor vertices
    and then assigns the chosen block's primes one clique at a time.
    Interchangeable cliques take primes in index order.  Every node
    charges 1 + m + k budget units for its m labels and k cliques.
    """
    k = len(members)
    m = len(patterns)
    node_cost = 1 + m + k
    lower_mask = _interchangeable_lower_masks(patterns, k, tracker)
    suffix: list[list[int]] = []
    for j in range(k + 1):
        run = [1]
        for p in primes[j:]:
            run.append(run[-1] * p)
        suffix.append(run)

    products = [1] * m
    leading_ones = (1,) * ones
    incumbent = seed

    def descend(assigned: int, j: int, block: int) -> None:
        nonlocal incumbent
        tracker.charge(node_cost)
        values = []
        least = None
        blocks = []
        for v in range(m):
            open_bits = patterns[v] & ~assigned
            if not open_bits:
                values.append(products[v])
                continue
            value = products[v] * suffix[j][open_bits.bit_count()]
            values.append(value)
            if least is None or value < least:
                least, blocks = value, [open_bits]
            elif value == least and open_bits not in blocks:
                blocks.append(open_bits)
        floor = leading_ones + tuple(sorted(values))
        if incumbent is not None and floor >= incumbent:
            return
        if j == k:
            incumbent = floor
            return
        for chosen in ([block] if block else blocks):
            for c in range(k):
                if not chosen >> c & 1 or lower_mask[c] & ~assigned:
                    continue
                for v in members[c]:
                    products[v] *= primes[j]
                descend(assigned | 1 << c, j + 1, chosen & ~(1 << c))
                for v in members[c]:
                    products[v] //= primes[j]

    descend(0, 0, 0)
    return incumbent


def sigma_of_covering(g: Graph, covering: Sequence[Iterable[int]],
                      budget: int | Budget | None = None) -> tuple[int, ...]:
    """Least coding sequence of one covering over all prime assignments.

    The covering need not be minimum; its clique order never matters.
    """
    if not is_total_clique_covering(g, covering):
        raise ValueError("not a total clique covering of the graph")
    tracker = Budget.coerce(budget)
    return _min_label_sequence(g, covering, tracker)


def code(g: Graph, budget: int | Budget | None = None) -> tuple[int, ...]:
    """The canonical code: least sigma over all minimum total clique coverings.

    Only irreducible coverings can attain it, so only those are searched.
    """
    tracker = Budget.coerce(budget)
    best = None
    for covering in irreducible_minimum_coverings(g, tracker):
        best = _min_label_sequence(g, covering, tracker, seed=best)
    assert best is not None
    return best


def is_isomorphic_by_code(g1: Graph, g2: Graph,
                          budget: int | Budget | None = None) -> bool:
    """Decide isomorphism by comparing canonical codes."""
    if g1.vertex_count != g2.vertex_count:
        return False
    tracker = Budget.coerce(budget)
    return code(g1, tracker) == code(g2, tracker)


def _multipliers(support: tuple[int, ...]):
    """1, q1, q2, ..., q1*q1, q1*q2, ...: graded products of the support."""
    degree = 0
    while True:
        for combo in combinations_with_replacement(support, degree):
            yield prod(combo)
        degree += 1


def theorem1_labels(g: Graph) -> tuple[LabeledGraph, int]:
    """Distinct prime-product labels realizing g inside a divisor graph.

    Maximal cliques, ordered by (smallest vertex, size, vertex list), get
    the first primes; each vertex starts from the product of its cliques'
    primes.  Vertices sharing a start value are then separated by graded
    multipliers drawn from that value's own primes, which never changes any
    gcd relation.  Returns the labeled graph and n, the lcm of the labels,
    whose divisor graph contains g as the induced subgraph on the labels.
    """
    if g.vertex_count == 0:
        raise ValueError("need at least one vertex")
    ordered = sorted(maximal_cliques(g), key=lambda c: (min(c), len(c), sorted(c)))
    primes = first_primes(len(ordered))
    start = []
    for v in g.vertices():
        start.append(prod(primes[i] for i, c in enumerate(ordered) if v in c))
    groups: dict[int, list[int]] = {}
    for v in g.vertices():
        groups.setdefault(start[v], []).append(v)
    labels = [0] * g.vertex_count
    for value, vertices in groups.items():
        stream = _multipliers(prime_support(value))
        for v in sorted(vertices):
            labels[v] = value * next(stream)
    return LabeledGraph(g, tuple(labels)), lcm(*labels)


def validate_coding_sequence(entries: Sequence[int], g: Graph,
                             budget: int | Budget | None = None) -> bool:
    """True iff entries form a coding sequence whose realization matches g.

    Shape checks are structural.  The isomorphism check uses the brute-force
    oracle where it fits and falls back to comparing codes beyond that.
    """
    from .oracle import ORACLE_MAX_VERTICES, brute_force_isomorphic

    tracker = Budget.coerce(budget)
    try:
        check_sequence_shape(entries, tracker)
    except ValueError:
        return False
    if len(entries) != g.vertex_count:
        return False
    realized = realize_sequence(entries).graph
    if g.vertex_count <= ORACLE_MAX_VERTICES:
        return brute_force_isomorphic(realized, g, tracker).verdict
    return code(realized, tracker) == code(g, tracker)
