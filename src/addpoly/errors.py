"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 2, BudgetExceeded -> 3,
InternalInconsistency and any exception outside this module -> 4.
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
    """A configured enumeration or size budget was exceeded."""


class ExtensionTooLarge(BudgetExceeded):
    """Root space lives in an extension beyond the configured cap."""


class InternalInconsistency(AddpolyError):
    """A structural guarantee failed; indicates a bug, not bad input."""


class DescentFailure(InternalInconsistency):
    """Coefficients failed to descend to the expected subfield."""
