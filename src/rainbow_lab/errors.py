"""Exception hierarchy shared by the whole package."""


class RainbowLabError(Exception):
    """Base class for all package-specific errors."""


class InputError(RainbowLabError, ValueError):
    """An argument violates an operation's precondition."""


class UnsupportedCaseError(RainbowLabError):
    """The requested value is outside the implemented formula range.

    Raised by rb_formula for a coefficient that is neither 1 nor prime mod n,
    and by rb_prime_power for p = 2: rb(Z_{2^a}, 2) has no closed form and
    comes from a value table through rb_general.
    """


class ConfigError(RainbowLabError):
    """A required configuration artifact (e.g. the k=2 value table) is missing or invalid."""


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
