"""Exception hierarchy shared by the whole package."""


class RainbowLabError(Exception):
    """Base class for all package-specific errors."""


class InputError(RainbowLabError, ValueError):
    """An argument violates an operation's precondition."""


class UnsupportedCaseError(RainbowLabError):
    """The requested value is outside the implemented formula range.

    Raised by rb_formula for (n, k) without a closed form. Which (n, k) have
    one is stated once, in rb_formula's docstring.
    """


class SearchInconclusiveError(RainbowLabError):
    """A search ran out of its time budget before covering its whole space.

    What it produced so far is valid but incomplete; it is never a result.
    """


class ConstructionError(RainbowLabError):
    """A witness builder produced a coloring that failed its own verification.

    This indicates a bug, not bad input; constructions never return unverified
    colorings.
    """


class CertificateError(RainbowLabError, ValueError):
    """A certificate file is malformed or not in canonical form."""

    def __init__(self, message: str, hint: str | None = None):
        super().__init__(message)
        self.hint = hint
