"""The failures the CLI maps to exit codes 2 and 3, and the default work budget.

They live apart from the analyses that raise them so that the CLI can
name them without loading any analysis module.
"""

DEFAULT_BUDGET = 100_000


class BudgetExceeded(RuntimeError):
    """Raised when a computation exceeds its configured work budget."""


class ContradictionError(RuntimeError):
    """Two provably equivalent tests disagreed; carries both certificates."""

    def __init__(self, message: str, details=None):
        super().__init__(message)
        self.details = details
