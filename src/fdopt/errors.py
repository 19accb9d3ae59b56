"""Exception hierarchy shared across the package.

The CLI maps these onto its exit codes: UsageError -> 1, DataError and
subclasses -> 2, NumericalError and subclasses -> 3.
"""


class FdoptError(Exception):
    """Base class for all package errors."""


class UsageError(FdoptError):
    """Bad command line or bad call arguments at the CLI boundary."""


class DataError(FdoptError):
    """Malformed inputs: files, configs, shapes, non-finite data."""


class BadMagicError(DataError):
    """File does not start with the expected magic bytes."""


class TruncatedFileError(DataError):
    """File payload is shorter or longer than its header declares."""


class NonFiniteDataError(DataError):
    """NaN or Inf encountered where finite values are required."""


class ConfigError(DataError):
    """Config file cannot be parsed or contains unknown/invalid keys."""


class NumericalError(FdoptError):
    """Numerical failure: eigensolver failure, non-finite loss."""


class NonFiniteLossError(NumericalError):
    """Training loss became NaN/Inf; carries the step and last good model."""

    def __init__(self, step: int, last_good_model=None):
        self.step = step
        self.last_good_model = last_good_model
        super().__init__(f"non-finite loss at step {step}")
