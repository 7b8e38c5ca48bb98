"""Small prime utilities for integer graph labels.

Labels are products of distinct primes, so everything here works with
exact Python ints; products of the first k primes overflow 64 bits
around k = 15, which is why no fixed-width arithmetic is used anywhere.
"""

from __future__ import annotations

from math import prod

from .budget import Budget

_PRIMES: list[int] = [2, 3, 5, 7, 11, 13]


def _grow_primes(count: int) -> None:
    candidate = _PRIMES[-1]
    while len(_PRIMES) < count:
        candidate += 2
        for p in _PRIMES:
            if p * p > candidate:
                _PRIMES.append(candidate)
                break
            if not candidate % p:
                break


def nth_prime(i: int) -> int:
    """The i-th prime, 1-based: nth_prime(1) == 2."""
    if i < 1:
        raise ValueError(f"prime index must be >= 1, got {i}")
    _grow_primes(i)
    return _PRIMES[i - 1]


def first_primes(k: int) -> tuple[int, ...]:
    """The first k primes as a tuple."""
    if k < 0:
        raise ValueError(f"prime count must be >= 0, got {k}")
    _grow_primes(k)
    return tuple(_PRIMES[:k])


def factorize(x: int, budget: int | Budget | None = None) -> tuple[tuple[int, int], ...]:
    """Prime factorization of x >= 1 as ((prime, exponent), ...) ascending.

    Trial division charges one budget unit per divisor tried, so an entry
    with two large prime factors raises BudgetExceededError instead of
    running for minutes.  The budget remembers completed factorizations,
    each of which cost it a unit unless x <= 3, for the rest of its operation.
    """
    if x < 1:
        raise ValueError(f"cannot factorize {x}")
    tracker = Budget.coerce(budget)
    known = tracker.factorizations.get(x)
    if known is not None:
        return known
    factors = []
    rest = x
    d = 2
    while d * d <= rest:
        tracker.charge()
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    result = tracker.factorizations[x] = tuple(factors)
    return result


def prime_support(x: int, budget: int | Budget | None = None) -> tuple[int, ...]:
    """Distinct prime divisors of x >= 1, ascending."""
    return tuple(p for p, _ in factorize(x, budget))


def is_square_free(x: int, budget: int | Budget | None = None) -> bool:
    """True iff no prime divides x more than once."""
    return all(e == 1 for _, e in factorize(x, budget))


def divisors_above_one(n: int, budget: int | Budget | None = None) -> list[int]:
    """Divisors of n that exceed 1, ascending.

    They are the products of the prime powers of n's factorization, which
    charges the budget; listing them charges one more unit per divisor.
    """
    tracker = Budget.coerce(budget)
    factors = factorize(n, tracker)
    tracker.charge(prod(e + 1 for _, e in factors))
    divisors = [1]
    for p, e in factors:
        divisors = [d * p ** i for d in divisors for i in range(e + 1)]
    return sorted(divisors)[1:]
