"""Exception hierarchy shared across the package, and checks that raise it."""

import sys
from dataclasses import field, fields


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


_KINDS = {"int": (int,), "float": (int, float), "str": (str,)}


def setting(default, *, low=None, above=None, choices=None, flag=None):
    """A dataclass field whose value check_fields bounds (``>= low``,
    ``> above``) or limits to ``choices``.  ``flag`` is its command-line
    spelling: True for ``--`` and the name with dashes, a string as written,
    None for a field set only from a config file."""
    return field(default=default, metadata={"low": low, "above": above,
                                            "choices": choices, "flag": flag})


def check_value(what, value, kind, error, low=None, above=None, choices=None):
    """``value``, checked to be of type ``kind`` ('int', 'float' or 'str'; an
    int passes as a float, a bool as neither; a float, or an int passed as
    one, must be finite), ``>= low``, ``> above`` and one of ``choices``;
    otherwise ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise error(f"{what} = {value!r} is not {kind}")
    if kind == "float" and not abs(value) <= sys.float_info.max:
        raise error(f"{what} = {value!r} is not finite")
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}")
    if above is not None and not value > above:
        raise error(f"{what} must be > {above}")
    if choices is not None and value not in choices:
        raise error(f"{what} = {value!r} is not one of {tuple(choices)}")
    return value


def check_fields(obj):
    """check_value of each field of dataclass ``obj``, of its annotated type
    and with its setting() bounds, as a DataError; a field whose default is
    None may be None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            check_value(f.name, value, f.type, DataError, f.metadata.get("low"),
                        f.metadata.get("above"), f.metadata.get("choices"))


def check_distinct(what, names, error):
    """``error`` naming the first name that ``names`` repeats."""
    seen = set()
    for name in names:
        if name in seen:
            raise error(f"{what} repeats the name {name!r}")
        seen.add(name)
