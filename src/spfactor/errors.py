"""Exception types shared across the package.

Every error raised on a user-facing code path is a subclass of
SpfactorError so the CLI can map failures to exit codes and emit a single
machine-parsable line (``error: <ClassName>: <message>``).
"""


class SpfactorError(Exception):
    """Base class for all spfactor errors."""


class ValidationError(SpfactorError):
    """Bad user input: data, config, or arguments. CLI exit code 2."""


class NumericalError(SpfactorError):
    """Runtime numerical failure. CLI exit code 1."""


# -- data model ----------------------------------------------------------

class NonIncreasingTimes(ValidationError):
    pass


class MissingTrials(ValidationError):
    pass


class CountExceedsTrials(ValidationError):
    pass


class IsolatedLocation(ValidationError):
    pass


class IncompleteBinomialCells(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


# -- kernels -------------------------------------------------------------

class KindMismatch(ValidationError):
    pass


class SingularPrecision(NumericalError):
    pass


class NonPositiveDefinite(NumericalError):
    pass


class DuplicateTimes(ValidationError):
    pass


# -- psbp / likelihoods ----------------------------------------------------

class IndicatorOutOfRange(ValidationError):
    pass


class DegenerateDenominator(NumericalError):
    pass


class NonPositiveVariance(ValidationError):
    pass


class NonPositiveScale(NumericalError):
    pass


# -- diagnostics / clustering ----------------------------------------------

class DegenerateDraws(ValidationError):
    pass


class ZeroVariance(NumericalError):
    pass


class DegenerateData(ValidationError):
    pass


class ZeroResidualVariance(NumericalError):
    pass


# -- cli -------------------------------------------------------------------

class UnknownKey(ValidationError):
    pass


class MissingRequired(ValidationError):
    pass
