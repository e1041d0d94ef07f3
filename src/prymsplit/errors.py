"""Exception hierarchy shared by all modules.

Every error the CLI maps to an exit code derives from PrymError: an
InputError is rejected input (exit 3), a ResourceLimitError a cap (exit 4),
and any other PrymError, like anything else escaping, an internal error
(exit 1).
"""


class PrymError(Exception):
    pass


class InputError(PrymError):
    """The input was rejected: the base of the seven exit-3 errors below."""


class InvalidFieldError(InputError):
    """Field construction rejected (p composite, p = 2, bad modulus)."""


class UnsupportedFieldError(InputError):
    """Operation needs a finite field (or a specific kind) and got another."""


class SingularMatrixError(InputError):
    """3x3 inversion failed: the determinant is zero."""


class DegenerateInputError(InputError):
    """Zero forms or otherwise meaningless input."""


class UndefinedResultantError(InputError):
    """Resultant of two zero polynomials."""


class ResultantIndeterminateError(PrymError):
    """Macaulay quotient stayed 0/0 after all coordinate-change retries."""


class InvalidParameterError(InputError, ValueError):
    """A parameter lies outside its documented range or set of choices."""


class RejectedInputError(InputError):
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
