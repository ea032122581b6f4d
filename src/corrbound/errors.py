"""Exception hierarchy shared across the library.

Every domain error derives from :class:`CorrboundError` so callers can
catch one base type; the CLI maps any of these to exit code 2, and a
``MemoryError`` to :class:`ResourceError`.
"""


class CorrboundError(ValueError):
    """Base class for all validation and domain errors."""


class NonSquareError(CorrboundError):
    """Rate matrix input is not square."""


class NegativeRateError(CorrboundError):
    """Off-diagonal transition rate is negative."""


class NonFiniteError(CorrboundError):
    """Input contains NaN or infinity."""


class BadDimensionError(CorrboundError):
    """State-space dimension outside the supported range."""


class DimensionMismatchError(CorrboundError):
    """Operands defined over state spaces of different sizes."""


class NegativeTimeError(CorrboundError):
    """Time argument must be >= 0."""


class NonPositiveTimeError(CorrboundError):
    """Time argument must be > 0."""


class BadIntervalError(CorrboundError):
    """Time interval endpoints are out of order or out of range."""


class NonUniqueSteadyStateError(CorrboundError):
    """Generator kernel has dimension > 1; no unique stationary law."""


class NoConvergenceError(CorrboundError):
    """Numerical routine failed to produce a valid result."""


class NotNormalizedError(CorrboundError):
    """Probability vector entries do not sum to 1 within tolerance."""


class NegativeProbabilityError(CorrboundError):
    """Probability entries are negative beyond roundoff tolerance."""


class KeyMismatchError(CorrboundError):
    """Distributions compared over different outcome sets."""


class TimesNotSortedError(CorrboundError):
    """Time points out of order: correlation times must be non-decreasing
    and start at 0, and sampled drive times strictly increasing."""


class TooFewSamplesError(CorrboundError):
    """Monte Carlo sample count below the minimum."""


class TooManyPathsError(CorrboundError):
    """Path enumeration would exceed the hard size guard."""


class NotSteadyStateError(CorrboundError):
    """Baseline distribution is not stationary for the generator."""


class StepTooLargeError(CorrboundError):
    """Integrator step size too large for the fastest escape rate."""


class QuadratureError(NoConvergenceError):
    """Adaptive quadrature failed to reach tolerance at max refinement."""


class ResourceError(CorrboundError):
    """The run needed more memory than it could allocate."""
