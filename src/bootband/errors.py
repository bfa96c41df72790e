"""Exception types shared across the package."""


class BootbandError(Exception):
    """Base class for all errors raised by this package."""


class DataError(BootbandError):
    """Input data violates a structural requirement."""


class MissingColumnError(DataError):
    """Requested column is absent from the CSV header."""


class NonPositivePriceError(DataError):
    """A price value is zero or negative."""


class DuplicateDateError(DataError):
    """Two rows carry the same date."""


class CsvFormatError(DataError):
    """CSV is structurally unreadable (bad date, non-numeric cell, no rows)."""


class ValidationError(BootbandError):
    """An argument or configuration violates a precondition."""


class DivergenceError(BootbandError):
    """Training produced a non-finite loss."""

    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class PipelineError(BootbandError):
    """A pipeline stage failed; ``stage`` names the failing step."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.detail = message


class ReplicateFailureError(PipelineError):
    """More replicates failed than the configured tolerance.

    A replicate fails when its training loss or its test predictions turn
    non-finite.  ``failures`` maps each failed replicate index to its cause,
    and the message names every index with its cause.
    """

    def __init__(self, failures, allowed):
        self.failures = dict(sorted(failures.items()))
        causes = "; ".join(f"replicate {idx}: {cause}" for idx, cause in self.failures.items())
        super().__init__(
            "train", f"{len(failures)} replicate(s) failed (allowed: {allowed}): {causes}"
        )
        self.failed_indices = tuple(self.failures)
        self.allowed = allowed
