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


class StepError(NumericalError):
    """A training step or the final evaluation failed numerically: carries
    the step, the representation label when one applies, the last model
    whose parameters were all finite, and the log of the steps before it."""

    def __init__(
        self, message: str, step: int, label=None, last_good_model=None, log=None
    ):
        self.step = step
        self.label = label
        self.last_good_model = last_good_model
        self.log = log
        super().__init__(message)


class NonFiniteLossError(StepError):
    """Training went non-finite: also names the quantity (samples,
    features, loss or parameters)."""

    def __init__(
        self, step: int, quantity: str = "loss", label=None, last_good_model=None
    ):
        self.quantity = quantity
        where = f" in {label}" if label is not None else ""
        super().__init__(
            f"non-finite {quantity} at step {step}{where}", step, label, last_good_model
        )
