"""Semantic exception hierarchy shared across the package."""


class DirectCorrError(Exception):
    """Base class for every error raised by this package."""


class InvalidDistribution(DirectCorrError, ValueError):
    """Probability table violates nonnegativity or normalization."""


class ShapeMismatch(DirectCorrError, ValueError):
    """A stack of candidate tables does not have the shape of the joint it is scored against."""


class DataError(DirectCorrError, ValueError):
    """The data given cannot be read or holds nothing to measure (the CLI's exit 1)."""


class ZeroTotal(DataError):
    """A count table holds no observations at all."""


class Undefined(DirectCorrError, ValueError):
    """A measure has no value on this joint; ``evaluate`` raises it where the engine gives NaN."""


class DegenerateVariable(Undefined):
    """A variable is constant under its numeric encoding (zero variance)."""


class SingularDenominator(Undefined):
    """A conditioning correlation has magnitude 1, so the partial correlation is undefined."""


class SingleCategory(Undefined):
    """A pairwise-contrast measure needs at least two categories of X."""


class ExplosionGuard(DirectCorrError, RuntimeError):
    """Coupling enumeration would exceed the configured cap."""


class MeasureFailure(DirectCorrError, RuntimeError):
    """Too many bootstrap resamples left the measure undefined."""


class UnknownMeasure(DirectCorrError, ValueError):
    """Measure id not present in the registry."""


class UnknownCategory(DirectCorrError, ValueError):
    """A raw value has no mapping in the declared alphabet."""


class MissingColumn(DataError):
    """A CSV file lacks a column the schema requires."""


class EmptyAfterFiltering(DataError):
    """No usable rows remain after applying the schema."""
