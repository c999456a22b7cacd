"""Exception hierarchy.

Three families map onto the CLI exit codes: configuration problems (exit 2),
data problems (exit 3), and numeric failures (exit 4). Library code raises the
specific subclasses; the CLI only cares about the family.
"""

from __future__ import annotations


class FlensError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FlensError):
    """Invalid configuration or parameter choice (CLI exit code 2)."""


class DataError(FlensError):
    """Invalid, malformed, or degenerate input data (CLI exit code 3)."""


class NumericError(FlensError):
    """Numerical failure during computation (CLI exit code 4)."""


class InvalidK(ConfigError):
    """Requested cutoff k is outside the valid range."""


class InvalidBins(ConfigError):
    """Bin count below 2 or larger than the sample size."""


class RankError(ConfigError):
    """Requested output dimensionality is infeasible."""


class TooSmall(ConfigError):
    """Dataset size too small for the requested group count."""


class ValidationError(DataError):
    """A container invariant does not hold."""


class ShapeError(DataError):
    """Mismatched lengths or dimensions."""


class EmptyGroup(DataError):
    """A protected group has no members where one is required."""


class EmptySelection(DataError):
    """A metric was asked to evaluate an empty selection."""


class DegenerateDenominator(DataError):
    """Retrieval disparity undefined because nothing was left unselected."""


class EmptyPositiveSet(DataError):
    """A group has no ground-truth positives."""


class EmptyInput(DataError):
    """An operation received no data at all."""


class DegenerateVector(DataError):
    """A zero-norm vector has no direction; cosine similarity is undefined."""


class InsufficientItems(DataError):
    """Fewer distinct candidate items than the retrieval size requires."""


class DegenerateLabels(DataError):
    """Fewer than two classes present in a training label vector."""


class DegenerateVariance(DataError):
    """A group sample has zero variance; usually a sign of duplicated rows."""


class InsufficientSamples(DataError):
    """A group sample is too small for the statistical test."""


class FormatError(DataError):
    """File does not follow the expected binary or text layout."""


class TruncationError(DataError):
    """File payload is shorter than its header promises."""


class SchemaError(DataError):
    """Label table violates the column or item-id schema."""


class VersionError(DataError):
    """Serialized container written by an unsupported format version."""


class ChecksumError(DataError):
    """Serialized container failed its integrity check."""


class DomainError(NumericError):
    """Argument outside the mathematical domain of a function."""


class LineSearchError(NumericError):
    """Backtracking line search failed to find a descent step."""
