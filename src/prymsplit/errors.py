"""Exception hierarchy shared by all modules.

Every error the CLI maps to an exit code derives from PrymError; anything
else escaping is an internal error.
"""


class PrymError(Exception):
    pass


class InvalidFieldError(PrymError):
    """Field construction rejected (p composite, p = 2, bad modulus)."""


class UnsupportedFieldError(PrymError):
    """Operation needs a finite field (or a specific kind) and got another."""


class SingularMatrixError(PrymError):
    """3x3 inversion failed; carries the (zero) determinant."""

    def __init__(self, message, det=None):
        super().__init__(message)
        self.det = det


class DegenerateInputError(PrymError):
    """Zero forms or otherwise meaningless input."""


class UndefinedResultantError(PrymError):
    """Resultant of two zero polynomials."""


class ResultantIndeterminateError(PrymError):
    """Macaulay quotient stayed 0/0 after all coordinate-change retries."""


class InvalidParameterError(PrymError, ValueError):
    """A parameter lies outside its documented range or set of choices."""


class RejectedInputError(PrymError):
    """Validation failed; carries the list of failed checks."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)


class ResourceLimitError(PrymError):
    """A counting job exceeded its field-size cap."""


class ModelError(PrymError):
    """Curve model data inconsistent with its declared shape."""


class InconsistentCountsError(PrymError):
    """Point counts do not come from a smooth curve of the claimed genus."""
