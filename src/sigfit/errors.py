"""Exception hierarchy shared across the package."""


class SigfitError(Exception):
    """Base class for all sigfit errors."""


class EmptyInputError(SigfitError):
    """Input text or collection was empty where content is required."""


class MalformedLineError(SigfitError):
    """A sample file line does not have 7 integer fields."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CountMismatchError(SigfitError):
    """Declared point count differs from the number of data lines."""


class ChannelOutOfRangeError(SigfitError):
    """Requested channel index is outside 1..7."""


class DirectoryNotFoundError(SigfitError):
    """Dataset root directory does not exist."""


class InvalidParamsError(SigfitError):
    """Model parameters violate a family invariant."""


class DomainError(SigfitError):
    """Model asked to evaluate outside its real domain."""


class TooFewPointsError(SigfitError):
    """Series too short for the requested model or fit."""


class LengthMismatchError(SigfitError):
    """Paired arrays have different lengths."""


class NonFiniteValueError(SigfitError):
    """Model evaluation produced NaN or infinity."""


class SegmentTooSmallError(SigfitError):
    """Segment size below the minimum of 2 points."""


class InsufficientEnrollmentError(SigfitError):
    """A user lacks enough genuine vectors for enrollment."""

    def __init__(self, user_id, needed, available):
        super().__init__(
            f"user {user_id!r}: {available} genuine vectors, {needed} needed for enrollment"
        )
        self.user_id = user_id


class OneClassOnlyError(SigfitError):
    """Trial list contains only genuine or only forged trials."""
