"""Total clique coverings: exact minimum search and related machinery.

A total clique covering is a set of distinct cliques that covers every
vertex and every edge.  In a minimum one the singletons are exactly the
isolated vertices, and every other clique extends to a maximal clique;
the extensions are distinct, since otherwise a smaller covering would
exist.  So theta_t is the isolated count plus the least number of maximal
cliques of size >= 2 that cover every edge, found by iterative deepening
over those maximal cliques (Gramm, Guo, Hueffner and Niedermeier, "Data
reduction and exact algorithms for clique cover", ACM JEA 13, 2009).

Every minimum total covering is a shrink of a minimum maximal-clique
covering: S_i subset of M_i with |S_i| >= 2, still covering every edge.
The covering search yields each least maximal covering as it finds it:
theta_t stops at the first, minimum_total_coverings lists the shrinks of
each, and the code's label search in coding picks them itself as each
covering arrives.  Inside the searches every vertex set is an int bitmask
over Graph.rows; frozensets are built only where a public function takes
or returns them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .budget import Budget
from .graphs import Graph, _bits

Clique = frozenset  # of vertex ids
Covering = tuple    # ordered tuple of Cliques
# The set bits of each byte value, ascending.
_BYTE_BITS = tuple(tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))


def maximal_cliques(g: Graph, budget: int | Budget | None = None) -> set[Clique]:
    """All maximal cliques, found by pivoted expansion (Bron-Kerbosch).

    Isolated vertices appear as singleton cliques.  Vertex sets are
    bitmasks over the graph's neighbour rows.  Expansions wait on a stack
    as (include, candidates, excluded) and are taken depth-first, the
    children of one in ascending vertex order; each charges one budget
    unit when taken.
    """
    tracker = Budget.coerce(budget)
    neighbors = g.rows
    found: set[Clique] = set()
    stack = [(0, (1 << g.vertex_count) - 1, 0)]
    while stack:
        include, candidates, excluded = stack.pop()
        tracker.charge()
        if not candidates and not excluded:
            found.add(frozenset(_bits(include)))
            continue
        pivot = max(_bits(candidates | excluded),
                    key=lambda u: (neighbors[u] & candidates).bit_count())
        # Pushed highest first, so the lowest is taken first; the bits left
        # in branch are the earlier siblings, moved from candidates to excluded.
        branch = candidates & ~neighbors[pivot]
        while branch:
            v = branch.bit_length() - 1
            branch ^= 1 << v
            stack.append((include | 1 << v, candidates & ~branch & neighbors[v],
                          (excluded | branch) & neighbors[v]))
    return found


def is_total_clique_covering(g: Graph, cliques: Sequence[Iterable[int]]) -> bool:
    """True iff the cliques are distinct, valid, and cover all of V and E."""
    members = [frozenset(c) for c in cliques]
    if len(set(members)) != len(members):
        return False
    if not all(clique and all(0 <= v < g.vertex_count for v in clique) for clique in members):
        return False
    reach = [0] * g.vertex_count
    for clique in members:
        mask = sum(1 << v for v in clique)
        for v in clique:
            if mask & ~g.rows[v] != 1 << v:
                return False
            reach[v] |= mask
    return all(held and not row & ~held for row, held in zip(g.rows, reach))


def canonical_covering(cliques: Iterable[Iterable[int]]) -> Covering:
    """Cliques ordered by (size, vertex list); singletons therefore lead."""
    return tuple(sorted((frozenset(c) for c in cliques),
                        key=lambda c: (len(c), sorted(c))))


def _maximal_coverings(g: Graph, tracker: Budget) -> Iterator[tuple[int, ...]]:
    """Yield each least edge covering by maximal cliques of size >= 2, as
    a tuple of clique masks, as the search finds it.

    Each maximal clique becomes a mask once; holding[v] masks the candidate
    cliques that hold v, so those of edge (u, v) are holding[u] & holding[v].
    Cliques that alone hold some edge are taken first; iterative deepening
    over the rest starts at their packing bound, and walks each depth from
    the root, depth-first on a stack.  Each node branches on the uncovered
    edge with the fewest allowed candidate cliques, its children taken in
    ascending clique order; a candidate tried in one branch is forbidden in
    its later siblings, so no covering is found twice.  A node is cut when
    some uncovered edge has no allowed candidate, or when more uncovered
    edges than the remaining depth pairwise share no allowed candidate
    (each of them needs a clique of its own).
    Indexing charges one unit per (clique, edge) pair, and every node 1
    plus the uncovered edges it scans.  A search that runs to its end
    remembers the listing in the budget, and every later call on g yields
    from it; a consumer that stops early leaves none.  An edgeless graph
    has the single empty covering, remembered likewise.
    """
    if g in tracker.coverings:
        yield from tracker.coverings[g]
        return
    if g.vertex_count == 0:
        raise ValueError("coverings need at least one vertex")
    masks = [sum(1 << v for v in c) for c in maximal_cliques(g, tracker)]
    cliques = sorted((c for c in masks if c & (c - 1)), key=lambda c: (-c.bit_count(), _bits(c)))
    if not cliques:
        tracker.coverings[g] = [()]
        yield ()
        return
    tracker.charge(sum(size * (size - 1) // 2 for size in map(int.bit_count, cliques)))
    holding = [0] * g.vertex_count
    for j, mask in enumerate(cliques):
        for v in _bits(mask):
            holding[v] |= 1 << j
    # Edges run from the fewest candidate cliques to the most, ties in
    # (u, v) order, so the greedy packing meets the most constrained first.
    allowed_by_edge = sorted((holding[u] & holding[v] for u, row in enumerate(g.rows)
                              for v in _bits(row >> u << u)), key=int.bit_count)
    # A clique that alone holds some edge is in every covering; the rest
    # need at least their packing bound of further cliques.
    tracker.charge(1 + len(allowed_by_edge))
    alone = 0
    for allowed in allowed_by_edge:
        if not allowed & (allowed - 1):
            alone |= allowed
    forced = tuple(_bits(alone))
    # Bit i of a search mask is the i-th edge that no forced clique holds;
    # each is indexed as (allowed cliques, their count, i), eight to a chunk.
    edges = [allowed for allowed in allowed_by_edge if not allowed & alone]
    chunks = [[(allowed, allowed.bit_count(), i) for i, allowed in enumerate(edges[at:at + 8], at)]
              for at in range(0, len(edges), 8)]
    rows = [bytearray(len(chunks)) for _ in cliques]
    for i, allowed in enumerate(edges):
        for j in _bits(allowed):
            rows[j][i >> 3] |= 1 << (i & 7)
    covers = [int.from_bytes(row, "little") for row in rows]
    found: list[tuple[int, ...]] = []

    def scan(uncovered: int, forbidden: int) -> tuple[int, int]:
        """(packing bound, allowed candidates of the most constrained edge).

        The bound is -1 when some edge has no allowed candidate.  An edge
        with a single one ends the scan early with bound 0, since that
        clique is forced.  The uncovered edges are read a byte at a time.
        Charges 1 plus the edges scanned."""
        keep = ~forbidden
        blocked = bound = 0
        fewest, fewest_count = 0, len(cliques) + 1
        for chunk, byte in zip(chunks, uncovered.to_bytes(len(chunks), "little")):
            for b in _BYTE_BITS[byte]:
                allowed, count, i = chunk[b]
                # Only forbidding takes an unforced edge below two candidates.
                if allowed & forbidden:
                    allowed &= keep
                    if not allowed & (allowed - 1):
                        # It scanned the uncovered edges up to i.
                        tracker.charge(1 + (uncovered & ((2 << i) - 1)).bit_count())
                        return (0, allowed) if allowed else (-1, 0)
                    count = allowed.bit_count()
                if not allowed & blocked:
                    bound += 1
                    blocked |= allowed
                if count < fewest_count:
                    fewest, fewest_count = allowed, count
        tracker.charge(1 + uncovered.bit_count())
        return bound, fewest

    uncovered = (1 << len(edges)) - 1
    depth = scan(uncovered, 0)[0] if uncovered else 0
    while not found:
        stack = [(uncovered, 0, forced, depth)]
        while stack:
            left, forbidden, chosen, remaining = stack.pop()
            if not left:
                found.append(tuple(cliques[j] for j in chosen))
                yield found[-1]
                continue
            if not remaining:
                continue
            bound, options = scan(left, forbidden)
            if not 0 <= bound <= remaining:
                continue
            while options:
                # The bits left below j are j's earlier siblings.
                j = options.bit_length() - 1
                options ^= 1 << j
                stack.append((left & ~covers[j], forbidden | options, chosen + (j,),
                              remaining - 1))
        depth += 1
    tracker.coverings[g] = found


def _shrinks(covering: tuple[int, ...], tracker: Budget) -> Iterator[tuple[int, ...]]:
    """Yield every S_1..S_k with S_i subset of M_i that covers the same edges.

    covering is a least edge covering M_1..M_k by maximal cliques, as masks,
    so no S_i can fall below two vertices.  Vertices are dropped one
    (clique, vertex) item at a time while every edge stays covered: v may
    leave S_i when the other current cliques that hold v hold all of S_i.
    Cliques only shrink, so an item that fails this on the M_i never
    passes.  The walk takes the items by vertex, then clique, depth-first
    on a stack, and drops each before it keeps it.  Each shrink is yielded
    as the sorted tuple of its cliques' masks.  Each drop test
    charges |S_i|, and each shrink kept 1 per clique.
    """
    masks = list(covering)

    def droppable(i: int, v: int) -> bool:
        tracker.charge(masks[i].bit_count())
        held = 0
        for j, mask in enumerate(masks):
            if j != i and mask >> v & 1:
                held |= mask
        return not masks[i] & ~held

    items = sorted(((i, v) for i, clique in enumerate(covering) for v in _bits(clique)
                    if droppable(i, v)), key=lambda item: (item[1], item[0]))

    # Each entry is (next item, clique, bit): the bit goes back into the
    # clique before the walk goes on from the item.
    stack = [(0, 0, 0)]
    while stack:
        t, i, bit = stack.pop()
        if bit:
            masks[i] |= bit
        while t < len(items) and not droppable(*items[t]):
            t += 1
        if t == len(items):
            tracker.charge(len(masks))
            yield tuple(sorted(masks))
            continue
        i, v = items[t]
        masks[i] ^= 1 << v
        stack += ((t + 1, i, 1 << v), (t + 1, i, 0))


def theta_t(g: Graph, budget: int | Budget | None = None) -> int:
    """Minimum size of a total clique covering."""
    isolated = sum(not row for row in g.rows)
    return isolated + len(next(_maximal_coverings(g, Budget.coerce(budget))))


def minimum_total_coverings(g: Graph, budget: int | Budget | None = None) -> list[Covering]:
    """Every minimum total clique covering, canonically ordered and deduplicated.

    These are the shrinks of the least maximal-clique coverings, with the
    isolated vertices' singletons.  Each distinct clique, singletons
    included, is built once and ranked in canonical order, so sorting a
    covering's ranks orders its cliques and the coverings too."""
    tracker = Budget.coerce(budget)
    found = {shrink for covering in _maximal_coverings(g, tracker)
             for shrink in _shrinks(covering, tracker)}
    singletons = tuple(1 << v for v, row in enumerate(g.rows) if not row)
    distinct = sorted({mask for shrink in found for mask in shrink}.union(singletons),
                      key=lambda mask: (mask.bit_count(), _bits(mask)))
    rank = {mask: r for r, mask in enumerate(distinct)}
    cliques = [frozenset(_bits(mask)) for mask in distinct]
    ranked = sorted(sorted(rank[mask] for mask in singletons + shrink) for shrink in found)
    return [tuple(cliques[r] for r in shrink) for shrink in ranked]


def prop1_certificate(g: Graph, independent_set: Iterable[int],
                      covering: Sequence[Iterable[int]]) -> bool:
    """Certify theta_t(g) == |independent_set| with a matching covering.

    True iff the set is independent, the covering is a total clique covering
    of the same size, and each certified vertex lies in exactly one clique.
    Such a covering is necessarily the unique minimum one.
    """
    chosen = set(independent_set)
    if not all(0 <= v < g.vertex_count for v in chosen):
        return False
    mask = sum(1 << v for v in chosen)
    if any(g.rows[v] & mask for v in chosen):
        return False
    members = [frozenset(c) for c in covering]
    if len(members) != len(chosen):
        return False
    if not is_total_clique_covering(g, members):
        return False
    return all(sum(1 for c in members if v in c) == 1 for v in chosen)


def covering_to_text(covering: Sequence[Iterable[int]]) -> str:
    """One clique per line, space-separated vertex ids, canonical order."""
    lines = [" ".join(str(v) for v in sorted(c)) for c in canonical_covering(covering)]
    return "\n".join(lines) + "\n"


def covering_from_text(text: str) -> Covering:
    """Inverse of covering_to_text."""
    cliques = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        cliques.append(frozenset(int(tok) for tok in line.split()))
    if not cliques:
        raise ValueError("no cliques in covering text")
    return tuple(cliques)
