"""Exception types raised by the numfac library.

The CLI maps these onto process exit codes in one table, ``numfac.cli._EXITS``.
"""

__all__ = [
    "MonoidInputError",
    "EmptyGenerators",
    "ZeroGenerator",
    "NonCoprime",
    "NotInMonoid",
    "NonPositiveBase",
    "EmptySubset",
    "NotAGenerator",
    "NegativeTarget",
    "HorizonTooSmall",
    "TargetBelowBase",
    "BelowThreshold",
    "Int64Overflow",
]


class MonoidInputError(ValueError):
    """The given generators do not describe a numerical monoid."""


class EmptyGenerators(MonoidInputError):
    """No generators were supplied."""


class ZeroGenerator(MonoidInputError):
    """A generator was zero or negative."""


class NonCoprime(MonoidInputError):
    """gcd of the generators exceeds 1, so the complement is infinite."""


class NotInMonoid(ValueError):
    """An operation required an element of the monoid but got a gap."""


class NonPositiveBase(ValueError):
    """Apery sets need a strictly positive base element."""


class EmptySubset(ValueError):
    """A non-empty subset of generators was required."""


class NotAGenerator(ValueError):
    """A subset member is not one of the monoid's minimal generators."""


class NegativeTarget(ValueError):
    """Scan targets must be non-negative."""


class HorizonTooSmall(ValueError):
    """Periodicity detection needs at least one full period plus window."""


class TargetBelowBase(ValueError):
    """The requested scan ends before the dynamic base case begins."""


class BelowThreshold(ValueError):
    """Extrapolation only applies above the quasilinear threshold."""


class Int64Overflow(OverflowError):
    """A value or internal table exceeds the supported 64-bit range."""
