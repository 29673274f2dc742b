"""Exception hierarchy shared by all adimlab modules, and the one check
that a level or a limit is an integer >= 1."""

from operator import index


class AdimlabError(Exception):
    """Base class for all library errors."""


class OutOfRange(AdimlabError):
    """A vertex index lies outside 0..n-1."""


class SelfLoop(AdimlabError):
    """An edge (i, i) was supplied; simple graphs have no loops."""


class BadParameter(AdimlabError):
    """A structural parameter is outside its legal range."""


class MalformedHeader(AdimlabError):
    """A graph6 record starts with an invalid or inconsistent header."""


class TruncatedPayload(AdimlabError):
    """A graph6 record is shorter than its header promises."""


class NonCanonicalPadding(AdimlabError):
    """A graph6 record has non-zero padding bits."""


class SamePair(AdimlabError):
    """A pair operation was called with x == y."""


class TooSmall(AdimlabError):
    """The graph has too few vertices for the requested invariant."""


class KTooLarge(AdimlabError):
    """A raw multicover instance has a set of fewer than k elements; raised
    only by the kernel, whose callers need not hold a graph's table."""


class KExceedsDimensionality(AdimlabError):
    """No k-generator exists: k lies outside 1..the dimensionality bound of
    a table (``metric.check_level``) or of a cone or join's closed form."""


class Disconnected(AdimlabError):
    """The operation requires a connected graph."""


class CapExceeded(AdimlabError):
    """Brute-force search would pass its subset-evaluation limit."""


class BudgetExhausted(AdimlabError):
    """The solver hit its node budget before proving optimality."""


class BasisCountExceeded(AdimlabError):
    """Basis enumeration aborted because the configured cap was reached."""


class NotATree(AdimlabError):
    """The operation requires a tree."""


class OutOfProvenRange(AdimlabError):
    """A closed formula was queried outside the range it is proven for."""


class LimitRequired(AdimlabError):
    """Family enumeration would be astronomically large; pass a limit."""


class TooLarge(AdimlabError):
    """Exhaustive enumeration was requested above the supported order."""


class UnknownTheorem(AdimlabError):
    """sweep_theorem was called with an unrecognised theorem id."""


class WorkerLost(AdimlabError):
    """A pool worker exited while it checked a shard of a pooled sweep."""


def check_positive_int(
    value, what: str, error: type[AdimlabError] = BadParameter
) -> None:
    """Refuse ``value`` with ``error`` unless it is an integer >= 1.  Bools
    and numpy integers pass, as ``operator.index`` takes them; 2.5 or 2.0
    would be compared as a level and silently checked as another."""
    try:
        index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if value < 1:
        raise error(f"{what} must be >= 1, got {value}")
