"""Polynomial forms of labeled clique coverings.

Each vertex contributes one monomial: the product of the variables of the
non-singleton cliques containing it, or 1 for an isolated vertex.  The sum
lives in a semiring (coefficients are vertex counts, never negative), so
total mass equals the vertex count and the constant term counts isolated
vertices.  Connectivity and bipartiteness are readable off the monomial
structure alone.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations
from math import prod
from typing import Iterable, Mapping, Sequence

from .budget import Budget
from .coding import _covering_memberships, _sequence_memberships, code
from .graphs import Graph, _bits, connected_components, graph_from_cliques, is_bipartite
from .primes import factorize

Monomial = tuple  # strictly ascending 1-based variable indices; () is constant

_TERM_RE = re.compile(r"^(?:(\d+)\*)?x(\d+)(?:\*x(?:\d+))*$")


class GraphPolynomial:
    """Immutable multiset of monomials with positive integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]]):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[Monomial, int] = {}
        for monomial, coefficient in items:
            key = tuple(monomial)
            if list(key) != sorted(set(key)) or any(i < 1 for i in key):
                raise ValueError(f"bad monomial {monomial!r}")
            if coefficient < 1:
                raise ValueError(f"coefficients must be >= 1, got {coefficient}")
            merged[key] = merged.get(key, 0) + coefficient
        self._terms = merged

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    @property
    def variable_count(self) -> int:
        return max((m[-1] for m in self._terms if m), default=0)

    @property
    def total_mass(self) -> int:
        """Sum of coefficients; one unit per vertex."""
        return sum(self._terms.values())

    @property
    def constant_term(self) -> int:
        return self._terms.get((), 0)

    def monomial_copies(self) -> list[Monomial]:
        """Each monomial repeated by its coefficient, canonically ordered."""
        copies = []
        for monomial in sorted(self._terms, key=lambda m: (len(m), m)):
            copies.extend([monomial] * self._terms[monomial])
        return copies

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"GraphPolynomial({self.render()!r})"

    def render(self) -> str:
        """Terms by ascending degree then variable tuple: "2*x1 + x2*x3"."""
        parts = []
        for monomial in sorted(self._terms, key=lambda m: (len(m), m)):
            coefficient = self._terms[monomial]
            if not monomial:
                parts.append(str(coefficient))
                continue
            body = "*".join(f"x{i}" for i in monomial)
            parts.append(body if coefficient == 1 else f"{coefficient}*{body}")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "GraphPolynomial":
        """Inverse of render."""
        items = []
        for raw in text.split("+"):
            term = raw.strip()
            if not term:
                raise ValueError(f"empty term in {text!r}")
            if term.isdigit():
                items.append(((), int(term)))
                continue
            if not _TERM_RE.match(term):
                raise ValueError(f"malformed term {term!r}")
            pieces = term.split("*")
            coefficient = 1
            if pieces[0].isdigit():
                coefficient = int(pieces[0])
                pieces = pieces[1:]
            monomial = tuple(int(p[1:]) for p in pieces)
            if list(monomial) != sorted(set(monomial)):
                raise ValueError(f"variables must be distinct and ascending in {term!r}")
            items.append((monomial, coefficient))
        return cls(items)


def _poly_of(masks: Iterable[int]) -> GraphPolynomial:
    """One monomial per mask, holding x_(i+1) for each bit i."""
    return GraphPolynomial(Counter(tuple(i + 1 for i in _bits(mask)) for mask in masks))


def poly_from_covering(g: Graph, covering: Sequence[Iterable[int]]) -> GraphPolynomial:
    """One monomial per vertex; the covering's non-singleton order fixes x1..xk."""
    return _poly_of(_covering_memberships(g, covering))


def poly_from_sequence(entries: Sequence[int],
                       budget: int | Budget | None = None) -> GraphPolynomial:
    """Replace the i-th smallest prime of the sequence by x_i and commas by +.

    Factoring the entries charges the budget one unit per trial divisor.
    """
    return _poly_of(_sequence_memberships(entries, Budget.coerce(budget)))


def canonical_polynomial(g: Graph, budget: int | Budget | None = None) -> GraphPolynomial:
    """The polynomial of the canonical code."""
    tracker = Budget.coerce(budget)
    return poly_from_sequence(code(g, tracker), tracker)


def divisor_graph_polynomial_closed_form(n: int, budget: int | Budget | None = None,
                                         ) -> GraphPolynomial:
    """Canonical polynomial of the divisor graph of n, by the closed form.

    With the exponents of n sorted descending as r_1 >= ... >= r_k, the
    polynomial is the sum over nonempty index subsets of
    (r_i1 * ... * r_is) x_i1 ... x_is; a prime n gives the constant 1.
    Factoring n charges the budget one unit per trial divisor, and the
    2^k - 1 terms one unit each.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    tracker = Budget.coerce(budget)
    exponents = sorted((e for _, e in factorize(n, tracker)), reverse=True)
    if len(exponents) == 1 and exponents[0] == 1:
        return GraphPolynomial({(): 1})
    k = len(exponents)
    tracker.charge(2 ** k - 1)
    items = {}
    for size in range(1, k + 1):
        for subset in combinations(range(1, k + 1), size):
            items[subset] = prod(exponents[i - 1] for i in subset)
    return GraphPolynomial(items)


def closed_form_family(family: str, n: int) -> tuple[tuple[int, ...], GraphPolynomial]:
    """Known code and polynomial for complete graphs, paths, and cycles."""
    from .primes import nth_prime

    if family == "complete":
        if n < 1:
            raise ValueError("complete closed form needs n >= 1")
        if n == 1:
            return (1,), GraphPolynomial({(): 1})
        return (2,) * n, GraphPolynomial({(1,): n})
    if family == "path":
        if n < 3:
            raise ValueError("path closed form needs n >= 3")
        monomials = [(1,), (2,), *((i, i + 2) for i in range(1, n - 2)), (n - 2, n - 1)]
    elif family == "cycle":
        if n < 4:
            raise ValueError("cycle closed form needs n >= 4")
        monomials = [(1, 2), *((i, i + 2) for i in range(1, n - 1)), (n - 1, n)]
    else:
        raise ValueError(f"no closed form for family {family!r}")
    entries = sorted(prod(nth_prime(i) for i in m) for m in monomials)
    return tuple(entries), GraphPolynomial((m, 1) for m in monomials)


def _copy_graph(p: GraphPolynomial) -> Graph:
    """One vertex per monomial copy; the copies holding a variable form a clique."""
    copies = p.monomial_copies()
    holders: dict[int, list[int]] = {}
    for i, monomial in enumerate(copies):
        for x in monomial:
            holders.setdefault(x, []).append(i)
    return graph_from_cliques(len(copies), holders.values())


def detect_disconnected_poly(p: GraphPolynomial) -> bool:
    """True iff the monomial copies split into variable-disjoint halves.

    Equivalently: the underlying graph is disconnected.  Every constant copy
    is a free-floating part of its own.
    """
    if p.total_mass == 0:
        raise ValueError("polynomial has no monomials")
    return len(connected_components(_copy_graph(p))) >= 2


def detect_bipartite_poly(p: GraphPolynomial) -> bool:
    """True iff the copies 2-partition with each part variable-disjoint inside.

    A coefficient c acts as c copies of its monomial, so any non-constant
    monomial with coefficient >= 3 already fails.  Equivalently: the
    underlying graph is bipartite.
    """
    if p.total_mass == 0:
        raise ValueError("polynomial has no monomials")
    return is_bipartite(_copy_graph(p))
