"""Exception and warning types shared across the package."""


class InputError(ValueError):
    """Invalid user input: bad files, out-of-range parameters, malformed data."""


class EntryError(InputError):
    """An entry that breaks a Barcode or PointCloud rule; index is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class NumericalError(ArithmeticError):
    """A numerical procedure failed (singular system, non-finite result).

    column is the target column it failed in, where one search serves
    several columns, and None otherwise.
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class ConditioningWarning(UserWarning):
    """A linear system is ill-conditioned; results may lose precision."""
