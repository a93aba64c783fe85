"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 2, BudgetExceeded -> 3,
InternalInconsistency and any exception outside this module -> 4. Every budget
refuses through admit, so each refusal carries its budget, limit and request.
"""


class AddpolyError(Exception):
    """Base class for all package-specific errors."""


class InputError(AddpolyError, ValueError):
    """Malformed or out-of-contract input (bad encoding, wrong field, ...)."""


class NotInSubfield(InputError):
    """Element does not lie in the requested subfield."""


class NotCentral(InputError):
    """Additive polynomial is not in the centre of the skew ring."""


class BudgetExceeded(AddpolyError):
    """A request of `requested` units of the budget named `budget`, more than its `limit`.

    A size past 64 bits is kept as the string '>= 2^b', never as its decimal digits, which
    may pass Python's int-to-str limit."""

    def __init__(self, budget, limit, requested):
        if type(requested) is int and requested.bit_length() > 64:
            requested = f">= 2^{requested.bit_length() - 1}"
        self.budget, self.limit, self.requested = budget, limit, requested
        super().__init__(f"{requested} exceeds the {budget} budget of {limit}")


class ExtensionTooLarge(BudgetExceeded):
    """Root space lives in an extension beyond the configured cap."""


def admit(budget, limit, requested, error=BudgetExceeded):
    """Raise error(budget, limit, requested) if requested > limit: every budget's one check."""
    if requested > limit:
        raise error(budget, limit, requested)


class InternalInconsistency(AddpolyError):
    """A structural guarantee failed; indicates a bug, not bad input."""


class DescentFailure(InternalInconsistency):
    """Coefficients failed to descend to the expected subfield."""
