"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed user input (bad JSON, bad rational, broken invariant)."""


class PreconditionError(ValueError):
    """An operation was called on inputs that violate its stated precondition."""


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        self.required = required
        self.budget = budget
        self.what = what
        super().__init__(
            f"{what} needs {required} candidates but the budget is {budget}"
        )


class InvariantError(RuntimeError):
    """A certificate or internal invariant failed: a fault in this package.

    Raised explicitly, unlike ``assert``, so the checks also run under
    ``python -O``.
    """
