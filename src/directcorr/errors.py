"""Semantic exception hierarchy shared across the package."""


class DirectCorrError(Exception):
    """Base class for every error raised by this package."""


class InvalidDistribution(DirectCorrError, ValueError):
    """Probability table violates nonnegativity or normalization."""


class ShapeMismatch(DirectCorrError, ValueError):
    """Two distributions passed to a divergence have different shapes."""


class ZeroTotal(DirectCorrError, ValueError):
    """A count table holds no observations at all."""


class DegenerateVariable(DirectCorrError, ValueError):
    """A variable is constant under its numeric encoding (zero variance)."""


class SingularDenominator(DirectCorrError, ValueError):
    """A conditioning correlation has magnitude 1, so the partial correlation is undefined."""


class SingleCategory(DirectCorrError, ValueError):
    """A pairwise-contrast measure needs at least two categories of X."""


class ExplosionGuard(DirectCorrError, RuntimeError):
    """Coupling enumeration would exceed the configured cap."""


class MeasureFailure(DirectCorrError, RuntimeError):
    """Too many bootstrap resamples left the measure undefined."""


class UnknownMeasure(DirectCorrError, ValueError):
    """Measure id not present in the registry."""


class UnknownCategory(DirectCorrError, ValueError):
    """A raw value has no mapping in the declared alphabet."""


class MissingColumn(DirectCorrError, ValueError):
    """A CSV file lacks a column the schema requires."""


class EmptyAfterFiltering(DirectCorrError, ValueError):
    """No usable rows remain after applying the schema."""
