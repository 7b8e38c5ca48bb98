"""Canonical integer codes for graphs via labeled clique coverings.

Assigning distinct primes to the non-singleton cliques of a total clique
covering labels each vertex with the product of its cliques' primes; the
sorted label sequence is a coding sequence of the graph.  Minimizing
lexicographically over all prime assignments and over all minimum
coverings yields the code, which is identical for two graphs exactly
when they are isomorphic.  One label search per least covering by
maximal cliques picks each clique's shrink along with the primes.  The
covering's symmetries (swaps of interchangeable cliques, and the clique
permutations that swapping two twin vertices induces) keep the labels,
so the search only tries assignments no larger than their images under
them; the least assignment of every orbit is one.

Only this module knows the form of a labelled covering: per vertex, a
mask of the non-singleton cliques holding it, in covering order; per
sequence entry, a mask of its primes' ranks in the ascending support.
Labels, sequences, the covering a sequence induces and F(G) read these.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, combinations, combinations_with_replacement
from math import inf, lcm, prod
from operator import mul, or_
from typing import Iterable, Sequence

from .budget import Budget
from .cliques import Covering, _maximal_coverings, is_total_clique_covering, maximal_cliques
from .graphs import Graph, LabeledGraph, _bits, realize_sequence
from .primes import first_primes, is_square_free, prime_support


def _sequence_memberships(entries: Sequence[int], tracker: Budget) -> list[int]:
    """Raise unless entries pass check_sequence_shape; per entry, the mask
    of its primes' ranks in the sequence's ascending prime support."""
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
    supports = [prime_support(x, tracker) for x in entries]
    rank = {p: r for r, p in enumerate(sorted({p for support in supports for p in support}))}
    masks = [sum(1 << rank[p] for p in support) for support in supports]
    seen = shared = 0
    for mask in masks:
        shared |= seen & mask
        seen |= mask
    for x, mask in zip(entries, masks):
        if x > 1 and not mask & shared:
            raise ValueError(f"entry {x} would realize an isolated vertex; it must be 1")
    return masks


def check_sequence_shape(entries: Sequence[int], budget: int | Budget | None = None) -> None:
    """Raise unless entries form a structurally valid coding sequence.

    Required: non-empty, non-decreasing, positive, square-free above 1, and
    every entry above 1 shares a prime with some other entry (entries equal
    to 1, and only those, realize isolated vertices).  Factoring the entries
    charges the budget one unit per trial divisor.
    """
    _sequence_memberships(entries, Budget.coerce(budget))


def covering_from_sequence(entries: Sequence[int],
                           budget: int | Budget | None = None) -> Covering:
    """The covering a coding sequence induces on its own realization.

    One singleton per leading 1, then one clique per distinct prime factor
    of the sequence (ascending), holding the positions that prime divides.
    Factoring the entries charges the budget one unit per trial divisor.
    """
    masks = _sequence_memberships(entries, Budget.coerce(budget))
    return (tuple(frozenset({i}) for i, mask in enumerate(masks) if not mask)
            + tuple(frozenset(i for i, mask in enumerate(masks) if mask >> r & 1)
                    for r in range(reduce(or_, masks).bit_length())))


def lambda_of(entries: Sequence[int]) -> int:
    """Least common multiple of the non-trivial entries (1 when there are none)."""
    if not entries:
        raise ValueError("coding sequence must be non-empty")
    if any(x < 1 for x in entries):
        raise ValueError("coding sequence entries must be >= 1")
    return lcm(*entries)


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


def _covering_memberships(g: Graph, covering: Sequence[Iterable[int]]) -> list[int]:
    """Raise unless covering is a total clique covering of g; per vertex,
    the mask of the non-singleton cliques that hold it, bit i for the i-th
    in covering order."""
    if not is_total_clique_covering(g, covering):
        raise ValueError("not a total clique covering of the graph")
    masks = [0] * g.vertex_count
    for i, clique in enumerate(c for c in map(frozenset, covering) if len(c) > 1):
        for v in clique:
            masks[v] |= 1 << i
    return masks


def _vertex_labels(g: Graph, covering: Sequence[Iterable[int]],
                   assignment: Sequence[int]) -> list[int]:
    """Each vertex's product of the primes of its non-singleton cliques,
    assignment[i] going to the i-th in covering order."""
    masks = _covering_memberships(g, covering)
    k = reduce(or_, masks, 0).bit_length()
    if sorted(assignment) != sorted(first_primes(k)):
        raise ValueError(f"assignment must be a permutation of the first {k} primes")
    return [prod(assignment[i] for i in _bits(mask)) for mask in masks]


def coding_sequence_from_covering(g: Graph, covering: Sequence[Iterable[int]],
                                  assignment: Sequence[int]) -> tuple[int, ...]:
    """Sorted vertex labels under one explicit prime assignment.

    assignment[i] is the prime given to the i-th non-singleton clique of the
    covering, in covering order, and must be a permutation of the first k
    primes.  Vertices in no non-singleton clique are isolated and labeled 1.
    """
    return tuple(sorted(_vertex_labels(g, covering, assignment)))


def _interchangeable_lower_masks(patterns: list[int], cliques: list[int],
                                  twins: list[list[int]], tracker: Budget) -> list[int]:
    """For each clique, the mask of lower-indexed cliques that take smaller primes.

    cliques[c] is clique c's member mask, and patterns[v] holds vertex v's
    IN cliques in its low k = len(cliques) bits and its undecided ones in
    the k bits above.  A permutation pi of the cliques that maps the
    multiset of patterns to itself is a symmetry: which vertices must share
    a clique depends on the patterns alone, so pi maps completions to
    completions with the same labels.  Cliques a < b whose swap is one are
    interchangeable, and each such pair is its own constraint
    A[a] < A[b].  Swaps that are symmetries are closed under conjugation,
    (a c) being (a b)(b c)(a b), so interchangeability is already
    transitive and the pairwise masks equal those of its classes.
    Swapping a pair of twins (vertices in one of the twins lists) in every
    clique holding one of them gives a candidate pi; if it is one, the
    lowest clique p it moves takes a smaller prime than pi(p).  Each is the
    constraint A <= A o pi, in clique-index order, of one symmetry, so the
    least assignment A of each orbit under the group they generate meets
    all of them together.  Only the members of the cliques pi moves
    change pattern, so only theirs are compared; two cliques that share
    no member are compared through signatures, each from its own members
    alone.  Each pair of cliques, and each pair of twins, charges one unit.
    """
    k = len(cliques)
    both = 1 | 1 << k
    low = (1 << k) - 1
    # One unit per pair, as if charged one by one: a budget that runs out
    # stops one unit past its limit.
    pairs = k * (k - 1) // 2 + sum(len(group) * (len(group) - 1) // 2 for group in twins)
    tracker.charge(min(pairs, tracker.limit + 1 - tracker.used))
    # A swap keeps each member's IN and total counts, so only cliques whose
    # members' counts agree can be interchangeable.
    shapes: dict[tuple, list[int]] = {}
    for c in range(k):
        shape = sorted([((patterns[v] & low).bit_count(), patterns[v].bit_count(),
                         patterns[v] >> c & both) for v in _bits(cliques[c])])
        shapes.setdefault(tuple(shape), []).append(c)
    masks = [0] * k
    signatures: list[list | None] = [None] * k
    for group in shapes.values():
        for a, b in combinations(group, 2):
            if cliques[a] & cliques[b]:
                pair = 1 << a | 1 << b
                reference = sorted([patterns[v] for v in _bits(cliques[a] | cliques[b])])
                if sorted([p ^ ((p >> a ^ p >> b) & both) * pair for p in reference]) == reference:
                    masks[b] |= 1 << a
                continue
            # Cliques that share no member swap as a symmetry exactly when
            # their members' patterns, less the clique's own bits, agree
            # with the members' states in it.
            for c in (a, b):
                if signatures[c] is None:
                    signatures[c] = sorted([(patterns[v] & ~(both << c), patterns[v] >> c & both)
                                            for v in _bits(cliques[c])])
            if signatures[a] == signatures[b]:
                masks[b] |= 1 << a
    clique_at = {members: c for c, members in enumerate(cliques)}
    for group in twins:
        for u, v in combinations(group, 2):
            swap = 1 << u | 1 << v
            held = [(p | p >> k) & low for p in (patterns[u], patterns[v])]
            moved = _bits(held[0] ^ held[1])
            # The cliques are distinct, so a complete image permutes moved.
            image = [clique_at.get(cliques[c] ^ swap) for c in moved]
            if not moved or None in image:
                continue
            fixed = ~sum(both << c for c in moved)
            reference = sorted(patterns[w]
                               for w in _bits(reduce(or_, (cliques[c] for c in moved))))
            if sorted(sum((p >> c & both) << d for c, d in zip(moved, image)) | p & fixed
                      for p in reference) == reference:
                masks[image[0]] |= 1 << moved[0]
    return masks


def _least_sequence(g: Graph, cliques: Sequence[int], tracker: Budget, fold: bool,
                    seed: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Lexicographically least sorted label sequence of one covering.

    The cliques are vertex masks that cover every edge, so the neighbours
    of a vertex are its row of g.  Vertices in no clique of two or more are
    labeled 1.  With fold, the cliques are a least edge covering by maximal
    cliques M_i, and the search also picks each S_i subset of M_i, every
    edge still covered.  With a seed, returns min(seed, true minimum).

    Each vertex is IN some cliques and may still join others.  An edge that
    one clique alone may hold forces both ends in.  Primes go to cliques in
    ascending order.  A vertex's floor is its product times the next primes
    for its open IN cliques and for a packing of the edges it must still
    join a clique for, with pairwise disjoint possible holders, each
    costing their least assigned prime or an open one; a pending block
    takes exactly the next primes.  A node whose sorted floors
    are >= the incumbent is cut.  Let mu be the least floor.  A vertex with
    nothing to join reaches its floor only by dropping its undecided
    memberships and taking the next primes for its open cliques; if a
    least-floor vertex can, every optimal completion labels one such vertex
    mu, so the search branches on which one and assigns its block.
    Otherwise it branches on one membership.  Interchangeable cliques take
    primes in index order, and the lowest clique a twin swap moves takes a
    smaller prime than its image: the least assignment of every orbit
    under these root symmetries meets both (_interchangeable_lower_masks).
    A block's last two cliques take theirs in one step: the node between
    would have one child and floors no higher.

    Vertices are numbered as in g.rows, and cliques in size order.  Each
    node owns its state: the IN and possible memberships, the cached
    packings, the products and the cliques' primes.  A drop or join copies
    all but the primes; a child that assigns primes copies the last two
    and shares the rest, as primes never change a packing.  A node waits
    on one stack as (state, assigned cliques, pending block, evaluation),
    having used one prime per assigned clique; nodes are taken depth-first.
    Every node is evaluated when it is made: the root before it is pushed,
    any other node by the parent that makes it.  A node pushes its
    children (siblings share a drop) to be taken in ascending order of
    their floors, a split's leave child first on equal floors, so good
    labellings come early and cut the rest; a node whose floor reaches the
    incumbent when taken is skipped.  A packing is cached until a change
    to its vertex's or a neighbour's memberships marks it stale, and is
    computed where read; only a vertex with undecided memberships reads
    one, and a vertex never regains one.  A node charges 1 + m + k units,
    for the m vertices in its k cliques and those cliques, once, when it is
    evaluated; propagation and packing charge 1 per edge scanned, and
    grouping the vertices into twin classes 1 per vertex.
    """
    ordered = sorted((c for c in cliques if c & (c - 1)), key=lambda c: (c.bit_count(), _bits(c)))
    vertices = _bits(reduce(or_, ordered, 0))
    members = [_bits(c) for c in ordered]
    k, m, n = len(ordered), len(vertices), g.vertex_count
    leading = (1,) * (n - m)
    incumbent = seed if seed is not None else (inf,)
    if not k:
        return min(incumbent, leading)
    pattern = [0] * n
    for i, clique in enumerate(members):
        for v in clique:
            pattern[v] |= 1 << i
    neighbours = [_bits(row) for row in g.rows]

    def touch(state: tuple, v: int) -> None:
        """Mark the packings that v's memberships feed as stale."""
        tracker.charge(1 + len(neighbours[v]))
        for w in (v, *neighbours[v]):
            state[2][w] = None

    def must_join(state: tuple, v: int) -> tuple:
        """(mask, cliques) of the possible holders of each edge in a packing
        of v's edges that only an undecided clique of v can cover."""
        inside, free, need, _, _ = state
        tracker.charge(1 + len(neighbours[v]))
        mine, held = inside[v], free[v]
        packing = []
        blocked = mine
        for holders in sorted([held & free[w] for w in neighbours[v] if not mine & inside[w]],
                              key=int.bit_count):
            if not holders & blocked:
                packing.append((holders, _bits(holders)))
                blocked |= holders
        need[v] = packed = tuple(packing)
        return packed

    def join(state: tuple, v: int, bit: int, assigned: int) -> None:
        """Put v into one clique, taking its prime if it has one."""
        inside, _, _, products, prime_of = state
        inside[v] |= bit
        if assigned & bit:
            products[v] *= prime_of[bit.bit_length() - 1]
        touch(state, v)

    def drop(state: tuple, v: int, bits: int, assigned: int) -> None:
        """Take v out of the cliques in bits and force every edge left with
        one possible holder.  An edge no IN clique holds keeps two or more,
        and the search drops only memberships that leave each one at least
        one, so no edge is ever left with none."""
        inside, free, _, _, _ = state
        free[v] &= ~bits
        touch(state, v)
        tracker.charge(1 + len(neighbours[v]))
        for w in neighbours[v]:
            if not pattern[w] & bits or inside[v] & inside[w]:
                continue
            holders = free[v] & free[w]
            if not holders & (holders - 1):
                for x in (v, w):
                    if not inside[x] & holders:
                        join(state, x, holders, assigned)

    inside = [0] * n if fold else pattern[:]
    if fold:
        for v in vertices:
            tracker.charge(1 + len(neighbours[v]))
            for w in neighbours[v]:
                holders = pattern[v] & pattern[w]
                if not holders & (holders - 1):
                    inside[v] |= holders
    primes = first_primes(k)
    # A floor takes at most one vertex's membership count of the next primes.
    most = max(p.bit_count() for p in pattern)
    suffix = [list(accumulate(primes[j:j + most], mul, initial=1)) for j in range(k + 1)]
    # Swapping two twins, vertices with equal open or equal closed
    # neighbourhoods, is an automorphism of g, so twins give symmetries.
    tracker.charge(m)
    classes: dict[int, list[int]] = {}
    for v in vertices:
        classes.setdefault(g.rows[v], []).append(v)
        classes.setdefault(g.rows[v] | 1 << v, []).append(v)
    lower_mask = _interchangeable_lower_masks(
        [inside[v] | (pattern[v] & ~inside[v]) << k for v in range(n)], ordered,
        [group for group in classes.values() if len(group) > 1], tracker)

    def evaluate(state: tuple, assigned: int, block: int) -> tuple[tuple[int, ...], list[int]]:
        """Charge one node; its sorted floors and its least-floor vertices."""
        tracker.charge(1 + m + k)
        inside, free, need, products, prime_of = state
        j, width = assigned.bit_count(), block.bit_count()
        here, after = suffix[j], suffix[j + width]
        values = []
        least = inf
        ties: list[int] = []
        unassigned = ~assigned
        for v in vertices:
            mine = inside[v]
            opened = mine & unassigned
            if free[v] != mine:
                value = products[v]
                extra = 0
                for holders, cliques in need[v] if need[v] is not None else must_join(state, v):
                    if holders & assigned:
                        value *= min(map(prime_of.__getitem__, cliques))
                    else:
                        extra += 1
                inner = (opened & block).bit_count()
                spare = min(extra, width - inner)
                value *= here[inner + spare] * after[(opened & ~block).bit_count() + extra - spare]
            elif not opened:
                values.append(products[v])
                continue
            elif block:
                value = (products[v] * here[(opened & block).bit_count()]
                         * after[(opened & ~block).bit_count()])
            else:
                value = products[v] * here[opened.bit_count()]
            values.append(value)
            if value < least:
                least, ties = value, [v]
            elif value == least:
                ties.append(v)
        return leading + tuple(sorted(values)), ties

    def steps(chosen: int, assigned: int) -> list[tuple[tuple[int, ...], int]]:
        """(cliques taking the next primes, block left) for each child that
        assigns from chosen; a block's last two cliques go in one step."""
        if not chosen:
            return [((), 0)]
        found = []
        for c in _bits(chosen):
            if lower_mask[c] & ~assigned:
                continue
            rest = chosen & ~(1 << c)
            if not rest or rest & (rest - 1):
                found.append(((c,), rest))
            elif not lower_mask[last := rest.bit_length() - 1] & ~(assigned | 1 << c):
                found.append(((c, last), 0))
        return found

    def label(state: tuple, cliques: tuple[int, ...], assigned: int) -> tuple[tuple, int]:
        """The state with the cliques given the next primes; the cliques now assigned."""
        inside, free, need, products, prime_of = state
        products, prime_of = products[:], prime_of[:]
        for c in cliques:
            bit = 1 << c
            prime_of[c] = p = primes[assigned.bit_count()]
            assigned |= bit
            for v in members[c]:
                if inside[v] & bit:
                    products[v] *= p
        return (inside, free, need, products, prime_of), assigned

    # An unprimed clique's prime is inf, so a least prime is a plain min.
    root = (inside, pattern[:], [None] * n, [1] * n, [inf] * k)
    stack = [(root, 0, 0, evaluate(root, 0, 0))]
    while stack:
        state, assigned, block, (floor, ties) = stack.pop()
        if floor >= incumbent:
            continue
        if not ties:
            incumbent = floor
            continue
        inside, free, need, products, prime_of = state
        # Each choice is (vertex, memberships, drop or join, steps).  A
        # least-floor vertex with something to join splits the node: it leaves,
        # then joins, the lowest possible holder of its first packed edge.
        # Evaluating the node computed every packing read here.
        u = next((v for v in (() if block else ties) if free[v] != inside[v] and need[v]), None)
        if block:
            choices = [(0, 0, drop, steps(block, assigned))]
        elif u is not None:
            bit = need[u][0][0] & -need[u][0][0]
            choices = [(u, bit, act, [((), 0)]) for act in (drop, join)]
        else:
            # A vertex without undecided memberships reaching mu allows every
            # completion in which another vertex does so with the same block.
            done = [inside[w] & ~assigned for w in ties if free[w] == inside[w]]
            choices = [(0, 0, drop, steps(opened, assigned)) for opened in dict.fromkeys(done)]
            choices += [(w, free[w] & ~inside[w], drop, steps(inside[w] & ~assigned, assigned))
                        for w in ties if free[w] != inside[w] and inside[w] & ~assigned not in done]
        children = []
        for w, bits, act, choice_steps in choices:
            base = state
            if bits:
                base = (inside[:], free[:], need[:], products[:], prime_of)
                act(base, w, bits, assigned)
            for cliques, rest in choice_steps:
                child, taken = label(base, cliques, assigned) if cliques else (base, assigned)
                children.append((child, taken, rest, evaluate(child, taken, rest)))
        # Stable: on equal floors a split still takes its leave child first.
        children.sort(key=lambda node: node[3][0])
        stack += reversed(children)
    return incumbent


def sigma_of_covering(g: Graph, covering: Sequence[Iterable[int]],
                      budget: int | Budget | None = None) -> tuple[int, ...]:
    """Least coding sequence of one covering over all prime assignments.

    The covering need not be minimum; its clique order never matters.
    """
    if not is_total_clique_covering(g, covering):
        raise ValueError("not a total clique covering of the graph")
    masks = [reduce(or_, (1 << v for v in clique), 0) for clique in covering]
    return _least_sequence(g, masks, Budget.coerce(budget), fold=False)


def code(g: Graph, budget: int | Budget | None = None) -> tuple[int, ...]:
    """The canonical code: least sigma over all minimum total clique coverings.

    Every minimum covering shrinks from a least covering by maximal
    cliques, so one label search per such covering, choosing the shrink as
    it goes, covers them all.
    """
    tracker = Budget.coerce(budget)
    best = None
    for covering in _maximal_coverings(g, tracker, find_all=True)[1]:
        best = _least_sequence(g, covering, tracker, fold=True, seed=best)
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
