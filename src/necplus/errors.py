"""Exception hierarchy shared across the package.

Every domain failure raises a subclass of :class:`NecError`, so the CLI can
map any library error to exit code 1 while argparse keeps code 2 for usage
problems.
"""

import contextlib


class NecError(Exception):
    """Base class for all domain errors."""


class BoundaryGapError(NecError):
    """A gap sits too close to the series boundary to gather anchor points."""


class UnfillableGapError(NecError):
    """A gap exceeds the configured maximum fillable length."""


class DegenerateSeriesError(NecError):
    """The series has zero variance after differencing."""


class InvalidInputError(NecError):
    """Non-finite, malformed, incomplete or unreadable input."""


class FitFailureError(NecError):
    """A distribution fit could not produce valid parameters."""


class SplitInfeasibleError(NecError):
    """Holdout ranges cannot host the requested number of sections."""


class StratificationInfeasibleError(NecError):
    """Oversampling requested but no extreme-containing window exists."""


class DimensionError(NecError):
    """Array shapes inconsistent with the model or window configuration."""


class ConfigError(NecError):
    """Invalid configuration value or unknown configuration key."""


class NumericInstabilityError(NecError):
    """Non-finite values encountered during forward/backward computation."""


class TrainingFailureError(NecError):
    """Training diverged (non-finite validation loss)."""


class ZeroDenominatorError(NecError):
    """A metric denominator is zero (e.g. MAPE with zero ground truth)."""


class UndefinedTestError(NecError):
    """A statistical test is undefined for the given data."""


class CheckpointError(NecError):
    """A run artifact is missing, corrupt, or from an incompatible version."""


@contextlib.contextmanager
def reading(path):
    """Turn a failure to open or decode the text file `path` inside the
    block into an InvalidInputError that names the file."""
    try:
        yield
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def writing(path):
    """Turn a failure to create or write the file `path` inside the block
    into an InvalidInputError that names the file."""
    try:
        yield
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot write: {exc.strerror or exc}") from None
