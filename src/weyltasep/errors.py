"""Exception types shared across the package."""


class WeylTasepError(Exception):
    """Base class for all package errors."""


class InvalidRank(WeylTasepError):
    """Rank outside the admissible range for the requested family."""


class InvalidCounts(WeylTasepError):
    """Inconsistent site/particle counts for a configuration space."""


class NotIrreducible(WeylTasepError):
    """The chain does not have exactly one closed communicating class."""


class InvalidConfig(WeylTasepError):
    """A two-row configuration violates its defining conditions."""


class InvalidWall(WeylTasepError):
    """Wall index outside 1..n-1."""


class ZeroParameter(WeylTasepError):
    """A weight factor with positive exponent has a zero parameter."""


class RangeError(WeylTasepError):
    """Index outside the validity range of a closed formula."""


class NonGenericPoint(WeylTasepError):
    """A point lies on an affine hyperplane of the arrangement."""


class UnsupportedRange(WeylTasepError):
    """No computation route is available for these arguments."""


class InvalidRates(WeylTasepError):
    """The moves out of a state carry more than probability 1."""
