"""Exception types shared across the package."""


class QnonlocError(Exception):
    pass


class ResourceLimitError(QnonlocError):
    """Requested work exceeds the one cap; raised only by `caps.check`."""


class FamilyFormatError(QnonlocError):
    """A serialized family violates the schema or its invariants."""


class InadmissibleXiError(QnonlocError, ValueError):
    """Requested diagonal digit has no home among the kept labels."""


class InternalConsistencyError(QnonlocError):
    """A mathematically guaranteed invariant failed; indicates a bug or bad input."""
