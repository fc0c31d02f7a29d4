"""Exception hierarchy.

Everything raised by this package derives from :class:`PtwError` so callers
can catch one base class.  Usage-type errors (bad arguments, bad data files)
additionally derive from :class:`ValueError`; numerical failures do not.
"""


class PtwError(Exception):
    """Base class for all errors raised by ptwreg."""


class InvalidParameterError(PtwError, ValueError):
    """A distribution or model parameter violates its domain."""


class UnsupportedPowerError(InvalidParameterError):
    """The requested Tweedie power has no exact sampler or closed form."""


class VarianceNonpositiveError(PtwError):
    """The moment constraint mu + phi*mu**p > 0 is violated."""


class NoDistributionError(InvalidParameterError):
    """A probability was requested where no pmf exists: phi < 0, or p < 1 at phi != 0."""


class UnreliableEstimateError(PtwError):
    """A Monte Carlo estimate is too noisy to use (signal below 10x its s.e.)."""


class NonpositivePmfError(PtwError):
    """A Monte Carlo pmf estimate is zero; the log-likelihood needs more draws."""


class SingularMatrixError(PtwError):
    """A linear system's pivoted factorization found a negligible pivot."""


class BoundaryTrapError(PtwError):
    """Step halving could not restore the variance constraint."""


class NonConvergenceError(PtwError):
    """An iterative solver exhausted its iteration budget."""


class RankDeficiencyError(PtwError, ValueError):
    """The design matrix does not have full column rank."""


class MissingBaselineError(PtwError, ValueError):
    """A standardized summary was requested without its baseline row."""


class CsvParseError(PtwError, ValueError):
    """A data file could not be parsed; the message carries row/column context."""
