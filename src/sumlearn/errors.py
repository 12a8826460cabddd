"""Exception hierarchy shared across the package."""

import math
from dataclasses import fields


class SumlearnError(Exception):
    """Base class for all package errors."""


class DataError(SumlearnError):
    """Problems with cohort data (ingestion, schema, shapes)."""


class ParseError(DataError):
    """A CSV row could not be parsed. Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RangeError(DataError):
    """A value falls outside its documented range (e.g. hour > T)."""


class ConflictError(DataError):
    """Duplicate (patient, variable, hour) rows."""


class SchemaError(DataError):
    """Unknown variable/column names or malformed headers."""


class CheckpointFormatError(SumlearnError):
    """Checkpoint document missing required fields or wrong version."""


class NumericalError(SumlearnError):
    """Non-finite loss or gradients during training/evaluation."""


class UsageError(SumlearnError):
    """Bad command-line usage."""


def check_finite_fields(obj):
    """DataError for the first ``float`` field of dataclass ``obj`` that holds
    a NaN or an infinity (None passes)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "float" and value is not None and not math.isfinite(value):
            raise DataError(f"{f.name} = {value!r} is not finite")


def check_distinct(what, names, error):
    """``error`` naming the first name that ``names`` repeats."""
    seen = set()
    for name in names:
        if name in seen:
            raise error(f"{what} repeats the name {name!r}")
        seen.add(name)
