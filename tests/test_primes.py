"""Prime utilities and the search budget."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, strategies as st

from graphcode import (Budget, BudgetExceededError, DEFAULT_BUDGET, check_sequence_shape,
                       divisors_above_one, factorize, first_primes, is_square_free, nth_prime,
                       prime_support)


def test_nth_prime_values():
    assert [nth_prime(i) for i in range(1, 11)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(ValueError):
        nth_prime(0)


def test_nth_prime_grows_the_table_in_time(monkeypatch):
    # Each candidate is tried only against primes up to its square root; a
    # scan over every known prime took about 7 s to reach the 20,000th on a
    # 2-vCPU virtual machine.
    import graphcode.primes

    monkeypatch.setattr(graphcode.primes, "_PRIMES", [2, 3, 5, 7, 11, 13])
    start = time.perf_counter()
    assert nth_prime(20000) == 224737
    assert time.perf_counter() - start < 2.0


def test_first_primes():
    assert first_primes(0) == ()
    assert first_primes(5) == (2, 3, 5, 7, 11)


def test_factorize_values():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(69300) == ((2, 2), (3, 2), (5, 2), (7, 1), (11, 1))
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(1, 10 ** 6))
def test_factorize_reconstructs(x):
    product = 1
    for p, e in factorize(x):
        product *= p ** e
    assert product == x


def test_factorize_charges_one_unit_per_trial_divisor():
    # 1009 * 1013 tries 2 and the 504 odd numbers from 3 to 1009, after
    # which 1011 * 1011 exceeds the cofactor 1013.
    tracker = Budget(1_000)
    assert factorize(1009 * 1013, tracker) == ((1009, 1), (1013, 1))
    assert tracker.used == 505
    assert factorize(1009 * 1013, tracker) == ((1009, 1), (1013, 1))
    assert tracker.used == 505  # completed factorizations are remembered


def test_unfinished_factorization_is_not_remembered():
    x = 1_000_003 * 1_000_033
    with pytest.raises(BudgetExceededError):
        factorize(x, Budget(1_000))
    tracker = Budget(10 ** 6)
    assert factorize(x, tracker) == ((1_000_003, 1), (1_000_033, 1))
    assert tracker.used > 1_000


def test_factorizations_are_remembered_within_one_budget_only():
    # x needs about 5 * 10^5 trial divisors; a completed factorization under
    # another budget must not let a 1,000-unit shape check through.
    x = 2 * 1_000_003 * 1_000_033
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            check_sequence_shape((x, x), budget=1_000)
        assert factorize(x, 10 ** 7) == ((2, 1), (1_000_003, 1), (1_000_033, 1))


def test_prime_support_and_square_free():
    assert prime_support(1) == ()
    assert prime_support(30) == (2, 3, 5)
    assert is_square_free(1) and is_square_free(30)
    assert not is_square_free(4)
    assert not is_square_free(18)


def test_divisors_above_one():
    assert divisors_above_one(12) == [2, 3, 4, 6, 12]
    assert divisors_above_one(7) == [7]
    assert divisors_above_one(1) == []
    with pytest.raises(ValueError):
        divisors_above_one(0)


def test_divisors_above_one_match_trial_division():
    for n in range(1, 2000):
        assert divisors_above_one(n) == [d for d in range(2, n + 1) if n % d == 0]


def test_divisors_above_one_charges_the_budget():
    with pytest.raises(BudgetExceededError):
        divisors_above_one((10**9 + 7) * (10**9 + 9), budget=10**5)


def test_budget_charges_and_raises():
    b = Budget(3)
    b.charge()
    b.charge(2)
    with pytest.raises(BudgetExceededError):
        b.charge()
    # the refused unit is still recorded as attempted work
    assert b.used == 4


def test_budget_coerce():
    assert Budget.coerce(None).limit == DEFAULT_BUDGET
    assert Budget.coerce(42).limit == 42
    b = Budget(7)
    assert Budget.coerce(b) is b
    with pytest.raises(ValueError):
        Budget(0)
