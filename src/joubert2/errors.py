"""Error types shared across the package."""


class DomainError(ValueError):
    """Arguments outside an operation's mathematical domain (mixed fields,
    invalid degrees, parameters that violate a precondition)."""


class BudgetError(RuntimeError):
    """An exhaustive scan would exceed the configured size budget.

    Never downgraded to a silent skip: callers either re-run with a larger
    budget or record the operation as skipped.
    """

    def __init__(self, parameter: str, needed: int, budget: int):
        self.parameter = parameter
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"{parameter}: scan of {needed} elements exceeds budget {budget}"
        )


class TableError(RuntimeError):
    """A lookup table failed its build-time verification."""


class CheckFailed(AssertionError):
    """A verification found its claim false.

    Raised by require() or directly, never by an `assert` statement, so
    `python -O` cannot strip it; subclassing AssertionError keeps it in the
    `fail` arm of every caller that catches failed claims.
    """


def require(cond, msg: str) -> None:
    """Raise CheckFailed(msg) unless cond holds."""
    if not cond:
        raise CheckFailed(msg)
