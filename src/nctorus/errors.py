"""Exception types raised across the library.

Everything derives from NCTorusError so callers can catch domain errors
with a single except clause while letting genuine bugs propagate.
"""


class NCTorusError(Exception):
    """Base class for all errors raised by this package."""


class NotCoprime(NCTorusError):
    """A module label (n, m) with gcd(n, m) != 1 was supplied."""


class DegenerateDenominator(NCTorusError):
    """n + m*theta (or k - l*theta) vanished where a division is required."""


class DimensionMismatch(NCTorusError):
    """Two vectors, or a vector and an operator, live on different Z_m's."""


class SignAssumptionViolated(NCTorusError):
    """A positivity assumption on n + m*theta or k - l*theta failed."""


class IndexOutOfRange(NCTorusError):
    """A component or basis index lies outside its admissible range."""


class InvalidSigma(NCTorusError):
    """A Gaussian width sigma with Re(sigma) <= 0, or not finite, was supplied."""


class NonFiniteParameter(NCTorusError):
    """A Gaussian offset c or centre x0 that is inf or nan was supplied."""


class InvalidS(NCTorusError):
    """A theta-series modulus s with Im(s) <= 0 was supplied."""


class NoHolomorphicVectors(NCTorusError):
    """The requested complex structure admits no Gaussian solutions."""


class NonConvergent(NCTorusError):
    """A truncated series failed to converge within the term cap."""


class SeriesOverflow(NCTorusError):
    """A computed value overflowed double precision.

    Raised for a theta-series or direct q-series sum, a theta modulus, a
    Gaussian vector's value at a probe point of its residual norm, and the
    modulus of a polynomial coefficient.
    """


class TableTooLarge(NCTorusError):
    """A structure-constant table has more entries than its size gate admits."""
