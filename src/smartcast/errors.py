"""Exception hierarchy shared by all smartcast modules.

Three branches map onto the CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.
"""

from __future__ import annotations


class SmartcastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SmartcastError):
    """Invalid or inconsistent configuration."""


class DataError(SmartcastError):
    """Input data violates a documented contract."""


class NumericError(SmartcastError):
    """A numeric procedure failed (divergence, singular system, ...)."""


# -- data errors --------------------------------------------------------------

class CsvFormatError(DataError):
    """Malformed CSV content; message carries the 1-based line number."""


class DuplicateKeyError(DataError):
    """Two records share the same (sensor_id, depth_cm, date) key."""


class MissingKeyError(DataError):
    """No record matches the requested (sensor_id, depth_cm) key."""


class InsufficientDataError(DataError):
    """Not enough records/images/samples for the requested operation."""


class UnfillableGapError(DataError):
    """A gap in a daily series exceeds the configured maximum."""


class DegenerateScalerError(DataError):
    """A feature has zero variance over the fit range."""


class EmptyWindowError(DataError):
    """Series too short to produce a single supervised window."""


class EmptySplitError(DataError):
    """A chronological split would leave train or test empty."""


class ShapeError(DataError):
    """Array shape inconsistent with the model or operation."""


class InsufficientHistoryError(DataError):
    """Fewer prior images than the input window requires."""


class FlatFieldError(DataError):
    """The sample values are all equal; no variogram can be fitted."""


class UndefinedScoreError(DataError):
    """Score undefined because sample values have zero variance."""


# -- numeric errors ------------------------------------------------------------

class FactorizationError(NumericError):
    """Kriging covariance too ill-conditioned to krige with (see kriging.COND_BOUND)."""


class DivergenceError(NumericError):
    """Training loss became non-finite."""


class StaleCacheError(NumericError):
    """Backward pass received a cache from an older model revision."""


class GradientError(NumericError):
    """Non-finite gradient encountered during optimization."""


class StageError(SmartcastError):
    """Pipeline stage failure; wraps the causing error and names the stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
