"""Exception taxonomy: input defects, mathematical verdicts, numerical failures.

Input defects mean the caller handed us something malformed (CLI exit 1).
Mathematical verdicts mean the input is well-formed but an assumption of
the theory fails, so the requested object does not exist or is infinite
(CLI exit 2). Numerical failures mean a result failed its own check (exit 3).
"""


class ErgoStopError(Exception):
    """Base class for all package errors."""


class InputError(ErgoStopError):
    """Malformed or inconsistent input."""


class MathVerdictError(ErgoStopError):
    """Well-formed input for which a standing assumption fails."""


class NumericalFailure(ErgoStopError, ArithmeticError):
    """A solve or certification check failed."""


# -- input defects ----------------------------------------------------------

class EmptyStateSpace(InputError):
    """Model has no states."""


class NonStochasticRow(InputError):
    """A kernel row does not sum to one within tolerance."""


class NegativeEntry(InputError):
    """A kernel entry is negative."""


class BadGenerator(InputError):
    """Generator rows must sum to zero with nonnegative off-diagonals."""


class SeriesNotConverged(InputError):
    """Uniformization series exceeded its truncation budget."""


class DimensionMismatch(InputError):
    """A per-state vector has the wrong length."""


class TooManyStates(InputError):
    """State count exceeds an enumeration cap."""


class BadNesting(InputError):
    """Nested sets are not increasing or do not cover the state space."""


class NoCoords(InputError):
    """Operation requires per-state coordinates but the model has none."""


class ParseError(InputError):
    """Malformed model or report file."""


class ConflictingFlags(InputError):
    """Mutually inconsistent command-line flags."""


class IoError(InputError):
    """Report emission failed."""


# -- mathematical verdicts --------------------------------------------------

class NotIrreducible(MathVerdictError):
    """Reachability analysis found more than one recurrent class."""


class NoMixingDetected(MathVerdictError):
    """Total-variation curve shows no decay; ergodicity bound implausible."""


class SingularSystem(MathVerdictError):
    """Poisson equation rejected: chain periodic or reducible."""


class DriftNotNegative(MathVerdictError):
    """Mean running reward under the invariant law is not negative."""


class UnreachableRegion(MathVerdictError):
    """Stopping region cannot be hit almost surely from the start state."""


class BoundViolated(MathVerdictError):
    """Expected stopping time exceeded its theoretical bound: solver bug."""


class NoValidN(MathVerdictError):
    """No ball radius satisfies the tail condition; invariant law suspect."""
