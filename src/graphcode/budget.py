"""Work budgets for the exact search routines.

Every potentially exponential search in the package charges the budget in
proportion to its work: a unit is a bounded step of work, such as scanning
one edge or one label, not a search-tree node.  Exceeding the budget
raises, so a call either returns an exact answer or a clear error, never a
truncated result.
"""

from __future__ import annotations

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Raised when an exact search uses up its work budget."""

    def __init__(self, limit: int):
        super().__init__(f"search exceeded its node budget of {limit}")
        self.limit = limit


class Budget:
    """Mutable work counter shared across the phases of one operation.

    It also remembers the operation's completed factorizations (see
    primes.factorize) and the least maximal coverings of each graph whose
    covering search ran to its end; code, theta_t, minimum_total_coverings
    and verify read them.  No outcome depends on another budget's work."""

    __slots__ = ("limit", "used", "factorizations", "coverings")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        if limit < 1:
            raise ValueError(f"budget must be >= 1, got {limit}")
        self.limit = limit
        self.used = 0
        self.factorizations: dict[int, tuple[tuple[int, int], ...]] = {}
        self.coverings: dict = {}

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)

    @classmethod
    def coerce(cls, budget: "int | Budget | None") -> "Budget":
        """Normalize a user-facing budget argument to a Budget instance."""
        if budget is None:
            return cls()
        if isinstance(budget, Budget):
            return budget
        return cls(budget)
