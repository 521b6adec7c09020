"""Exception types shared across the library."""


class UsageError(Exception):
    """A malformed request: bad flags, or JSON input of the wrong shape.

    Messages about JSON input name the offending field.
    """


class DomainError(ValueError):
    """A structurally valid request that violates a mathematical precondition.

    Examples: multiplying elements over overlapping ground sets, comparing
    compositions of different ground sets, differentiating a functional that
    fails the Steinmann relations.
    """


class GroundMismatchError(DomainError):
    """Operands live over incompatible ground sets."""


class ResourceBoundError(DomainError):
    """A computation was requested beyond the configured size bound."""
