"""Cohort data model: CSV ingestion, imputation, normalization, splitting.

A cohort moves through two representations:

* ``RawCohort`` - values straight from ingestion, NaN where unmeasured.
* ``ClinicalBatch`` - fully imputed ``X`` plus boolean measurement mask
  ``M``, static matrix ``S`` and labels ``y``; immutable after construction.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import (ConflictError, DataError, ParseError, RangeError,
                     SchemaError, check_distinct)

STD_FLOOR = 1e-6
# The cohort format: its files in ingest_csv's argument order, and their headers.
COHORT_FILES = ("timeseries.csv", "static.csv", "labels.csv")
SERIES_HEADER = ["patient_id", "variable", "hour", "value"]
STATIC_HEADER = ["patient_id"]
LABELS_HEADER = ["patient_id", "label"]
_SERIES_DTYPE = np.dtype([("patient", object), ("variable", object),
                          ("hour", np.int64), ("value", np.float64)])
# timeseries.csv is parsed in chunks of whole lines of at least this many
# characters (256 KiB of ASCII text); a chunk's parse holds about 9 bytes
# per character at once.
_CHUNK_CHARS = 1 << 18


def _take(cohort, indices):
    """The examples ``indices`` of a RawCohort or ClinicalBatch, in order:
    every array field and the patient ids are indexed, the names shared."""
    idx = np.asarray(indices)
    rows = {f.name: getattr(cohort, f.name)[idx] for f in fields(cohort)
            if isinstance(getattr(cohort, f.name), np.ndarray)}
    return replace(cohort, patient_ids=[cohort.patient_ids[i] for i in idx], **rows)


@dataclass
class RawCohort:
    """Ingested cohort before imputation; values are NaN where unmeasured."""

    values: np.ndarray  # (N, D, T), NaN = not measured
    S: np.ndarray  # (N, P)
    y: np.ndarray  # (N,)
    patient_ids: list
    variable_names: list
    static_names: list

    @property
    def T(self):
        return self.values.shape[2]

    take = _take


@dataclass
class ClinicalBatch:
    """Masked multivariate time series with static features and labels."""

    X: np.ndarray  # (N, D, T)
    M: np.ndarray  # (N, D, T), bool: one byte per cell
    S: np.ndarray  # (N, P)
    y: np.ndarray  # (N,), binary
    patient_ids: list
    variable_names: list
    static_names: list

    def __post_init__(self):
        if self.X.shape != self.M.shape:
            raise DataError("X and M must have identical shapes")
        if self.M.dtype != bool:  # a 0/1 mask of another dtype, converted once
            if not ((self.M == 0) | (self.M == 1)).all():
                raise DataError("M must hold only 0 and 1")
            self.M = self.M.astype(bool)
        if self.S.shape[0] != self.X.shape[0] or self.y.shape[0] != self.X.shape[0]:
            raise DataError("S and y must have one row per example")

    @property
    def n_examples(self):
        return self.X.shape[0]

    @property
    def n_variables(self):
        return self.X.shape[1]

    @property
    def T(self):
        return self.X.shape[2]

    @property
    def n_static(self):
        return self.S.shape[1]

    take = _take


def cohort_paths(directory):
    """The cohort's three files in ``directory``, in ingest_csv's order."""
    return [Path(directory) / name for name in COHORT_FILES]


def series_array(N, D, T):
    """An (N, D, T) array of NaN, or a DataError naming a shape too large."""
    try:
        return np.full((N, D, T), np.nan)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's size limit
        raise DataError(f"T = {T}: cannot allocate the ({N}, {D}, {T}) "
                        "series array") from None


@dataclass
class NormalizationStats:
    """Per-variable / per-static-column location-scale statistics.

    Computed from training rows only, over measured entries (M = 1) for
    the time-series variables.  ``population_median`` is in raw units.
    """

    mean: np.ndarray
    std: np.ndarray
    static_mean: np.ndarray
    static_std: np.ndarray
    population_median: np.ndarray
    warnings: list = field(default_factory=list)


@contextlib.contextmanager
def _csv_file(path, expected_header):
    """(file, csv reader, stripped header) of a CSV file whose header starts
    with ``expected_header`` (SchemaError otherwise, also for an empty file).
    A file that cannot be opened or is not UTF-8 text is a DataError."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader, [])]
            if not header:
                raise SchemaError(f"{path}: empty file")
            if header[:len(expected_header)] != expected_header:
                raise SchemaError(
                    f"{path}: expected header {expected_header}, got {header}")
            yield fh, reader, header
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # in the header
            raise ParseError(str(exc), line=reader.line_num) from None


def _records(reader, n_fields, offset=0, last=math.inf):
    """(line, row) of each record of ``reader`` with a non-blank field, up to
    the one that reads physical line ``last``; its line is the last one it
    reads, plus ``offset``.  A record with fewer than ``n_fields`` fields, or
    one the csv module cannot parse (a field over its size limit), is a
    ParseError naming its line."""
    try:
        for row in reader:
            if any(map(str.strip, row)):
                if len(row) < n_fields:
                    raise ParseError(f"expected {n_fields} fields, got {len(row)}",
                                     line=offset + reader.line_num)
                yield offset + reader.line_num, row
            if reader.line_num >= last:
                return
    except csv.Error as exc:
        raise ParseError(str(exc), line=offset + reader.line_num) from None


def _read_rows(path, expected_header):
    """Yield the stripped header of a CSV file, then its ``_records``."""
    with _csv_file(path, expected_header) as (_, reader, header):
        yield header
        yield from _records(reader, len(expected_header))


class _Coder(dict):
    """A dict that gives each key it lacks the next free code."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _codes(strings, code_of):
    """The code of each string in ``code_of``, a ``_Coder``."""
    return np.fromiter(map(code_of.__getitem__, strings), np.intp, len(strings))


def _names(code_of, codes):
    """(sorted distinct stripped strings of ``code_of``, ``codes`` mapped to
    the index of their string's stripped form among them); each distinct raw
    string is stripped once."""
    stripped = [s.strip() for s in code_of]
    names = sorted(set(stripped))
    index = {name: k for k, name in enumerate(names)}
    return names, np.array([index[s] for s in stripped], dtype=np.intp)[codes]


def _joined(parts):
    """The concatenation of ``parts``, which are released as it is made."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _checked(row, line, T, fixed):
    """(hour, value) of ``row`` of timeseries.csv, on ``line``, or the error
    of the first check it fails: an integer hour, a finite value, an hour in
    [1, T] and, with ``fixed``, a variable in it."""
    try:
        hour = int(row[2])
    except ValueError:
        raise ParseError(f"bad hour {row[2]!r}", line=line) from None
    try:
        value = float(row[3])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"bad value {row[3]!r} (not a finite number)", line=line)
    if not 1 <= hour <= T:
        raise RangeError(f"line {line}: hour {hour} outside [1, {T}] "
                         f"for patient {row[0].strip()}")
    if fixed is not None and row[1].strip() not in fixed:
        raise SchemaError(f"line {line}: unknown variable {row[1].strip()!r}")
    return hour, value


def _at_once(text, line, T, fixed, code_of):
    """``_csv_rows`` of ``text`` parsed in one call by numpy's C parser, or
    None unless that reads one row per line, as the csv module would, and
    every row passes ``_checked``.  A blank, short or multi-line row, a
    quoted field that may run on past the text, a line that may hold a field
    over the csv module's size limit, a separator numpy alone skips as
    whitespace, a spelling only Python's parser takes (``1_0``, non-ASCII
    digits) or a bad row leaves the text to ``_csv_rows``."""
    # a line over the limit holds an aligned block of limit // 2 characters
    block = max(csv.field_size_limit() // 2, 1)
    if (any(c in text for c in "\x1c\x1d\x1e\x1f")
            or any(text.find("\n", k, k + block) < 0
                   for k in range(0, len(text) - block + 1, block))):
        return None
    # numpy ends a quote left open on the last line with the text, where the
    # csv module reads on into the next chunk
    last = text[text.rfind("\n", 0, -1) + 1:]
    try:
        if '"' in last and next(csv.reader([last]))[-1].endswith(("\n", "\r")):
            return None
        table = np.loadtxt(io.StringIO(text), delimiter=",", quotechar='"',
                           usecols=(0, 1, 2, 3), dtype=_SERIES_DTYPE,
                           comments=None, ndmin=1)
    except (csv.Error, ValueError, OverflowError, Warning):
        return None  # Warning: see _read_series
    # the table's own columns: a list or a string per line beside them
    # would leave holes in the heap that raise a repeated eval's peak RSS
    patients, variables = table["patient"], table["variable"]
    hour, value = table["hour"].copy(), table["value"].copy()
    n = len(hour)
    if not (n == text.count("\n") + (not text.endswith("\n"))
            and 1 <= hour.min() and int(hour.max()) <= T
            and np.isfinite(value).all()
            and (fixed is None or all(v.strip() in fixed for v in set(variables)))):
        return None
    return (_codes(patients, code_of[0]), _codes(variables, code_of[1]),
            hour, value, range(line, line + n), line + n, None)


def _csv_rows(text, fh, line, T, fixed, code_of):
    """(patient codes, variable codes, hours, values, line of each row, next
    line, error) of the records that start in ``text``, whole lines of
    timeseries.csv from ``line`` on, read one by one by the csv module and
    checked by ``_checked``; a quoted field that runs on past ``text`` reads
    on from ``fh``.  The rows stop before the first bad one, whose error is
    returned (None if there is none)."""
    lines = io.StringIO(text, newline="").readlines()
    reader = csv.reader(itertools.chain(lines, fh))
    rows, error = [], None
    try:
        for at, row in _records(reader, 4, line - 1, len(lines)):
            rows.append((row[0], row[1], *_checked(row, at, T, fixed), at))
    except DataError as exc:
        error = exc
    patients, variables, hours, values, at = zip(*rows) if rows else [()] * 5
    return (_codes(patients, code_of[0]), _codes(variables, code_of[1]),
            np.array(hours, dtype=np.int64), np.array(values, dtype=float),
            np.array(at, dtype=np.int64), line + reader.line_num, error)


def _first_repeat(pv, hour):
    """(the first row whose (patient-variable code, hour) an earlier row has,
    the first row that has it), or None."""
    order = np.lexsort((hour, pv))  # stable: a repeated cell's rows in file order
    repeat = np.ones(max(len(order) - 1, 0), dtype=bool)
    for column in (pv, hour):  # one sorted column at a time
        column = column[order]
        repeat &= column[1:] == column[:-1]
    if not repeat.any():
        return None
    second = order[1:][repeat].min()
    return second, np.flatnonzero((pv == pv[second]) & (hour == hour[second]))[0]


def _read_series(path, T, fixed):
    """The rows of ``timeseries.csv`` as columns (patients, p, variables, v,
    hour, value): each row's patient and variable as a code into the sorted
    distinct stripped names, its hour and its value.  The file is read in
    chunks of at least ``_CHUNK_CHARS`` characters of whole lines, each parsed
    in one call (``_at_once``) or else record by record (``_csv_rows``).  A
    chunk keeps only its rows' codes, hours and values, so the strings made
    for its fields die with it.  The first bad row in file order raises the
    error that names it: a malformed row, a non-finite value, an hour outside
    [1, T], a variable outside ``fixed`` (if given) or a repeated (patient,
    variable, hour)."""
    code_of = (_Coder(), _Coder())  # provisional code of each raw patient, variable
    # per chunk: patient, variable codes, hour, value, and the line of each row
    columns = tuple([np.empty(0, t)] for t in (np.intp, np.intp, np.int64, float))
    lines, error = [], None
    with _csv_file(path, SERIES_HEADER) as (fh, reader, _), warnings.catch_warnings():
        warnings.simplefilter("error")  # before numpy 2 an hour "1.0" warns
        line = reader.line_num + 1
        while error is None and (text := fh.read(_CHUNK_CHARS) + fh.readline()):
            *rows, at, line, error = (_at_once(text, line, T, fixed, code_of)
                                      or _csv_rows(text, fh, line, T, fixed, code_of))
            for column, part in zip((*columns, lines), (*rows, at)):
                column.append(part)
    p, v, hour, value = map(_joined, columns)
    patients, p = _names(code_of[0], p)  # rebinding frees the provisional codes
    variables, v = _names(code_of[1], v)
    # a (patient, variable) code below P * V <= rows ** 2, in int64 below 3e9 rows
    repeat = _first_repeat(p * len(variables) + v, hour)
    if repeat is not None:
        second, first = repeat
        line_of = list(itertools.chain.from_iterable(lines))
        raise ConflictError(
            f"duplicate ({patients[p[second]]}, {variables[v[second]]}, "
            f"{hour[second]}) at lines {line_of[first]} and {line_of[second]}")
    if error is not None:
        raise error
    return patients, p, variables, v, hour, value


def ingest_csv(
    timeseries_path,
    static_path,
    labels_path,
    T,
    categorical_columns=(),
    variables=None,
    static_names=None,
):
    """Read the three-CSV cohort format into a RawCohort.

    ``variables`` optionally fixes the variable set and order (e.g. from a
    checkpoint); names outside it raise SchemaError.  Categorical static
    columns are one-hot encoded as ``<col>=<value>``, one column per value
    among the cohort's patients.  ``static_names`` optionally fixes the static
    columns, their order and the one-hot categories (e.g. from a checkpoint;
    ``categorical_columns`` is then not read): each name is a column of the
    static header or ``<col>=<value>``, and a header column no name uses
    raises SchemaError.  So does a name repeated in ``variables`` or
    ``static_names``, or a one-hot name that reads back as another column's.
    A ``T`` above the int64 maximum is a DataError before any file is read.
    """
    if T > np.iinfo(np.int64).max:  # the hours are read as int64
        raise DataError(f"T = {T}: above {np.iinfo(np.int64).max}, the largest int64")
    check_distinct("variables", variables or (), SchemaError)
    check_distinct("static_names", static_names or (), SchemaError)

    # labels
    label_of = {}
    rows = _read_rows(labels_path, LABELS_HEADER)
    next(rows)  # the header
    for line_no, row in rows:
        pid = row[0].strip()
        try:
            lab = int(row[1])
        except ValueError:
            raise ParseError(f"bad label {row[1]!r}", line=line_no) from None
        if lab not in (0, 1):
            raise ParseError(f"label must be 0 or 1, got {lab}", line=line_no)
        if pid in label_of:
            raise ConflictError(f"duplicate label row for patient {pid}")
        label_of[pid] = lab

    # time series
    fixed = list(variables) if variables is not None else None
    patients, pcode, names, vcode, hour, value = _read_series(timeseries_path, T, fixed)
    variable_names = fixed if fixed is not None else names

    # static
    rows = _read_rows(static_path, STATIC_HEADER)
    header = next(rows)
    raw_cols = header[1:]
    static_rows = {}
    for line_no, row in rows:
        pid = row[0].strip()
        if pid in static_rows:
            raise ConflictError(f"duplicate static row for patient {pid}")
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line=line_no
            )
        static_rows[pid] = [c.strip() for c in row[1:]]

    # cohort = labelled patients that have at least one series row
    pids_with_series = set(patients)
    patient_ids = sorted(p for p in label_of if p in pids_with_series)
    if not patient_ids:
        raise DataError("no labelled patient has any time-series rows")
    missing_static = [p for p in patient_ids if p not in static_rows]
    if missing_static:
        raise SchemaError(f"patients missing static rows: {missing_static[:5]}")

    # one-hot expansion of categorical static columns
    built = None  # (source column index, category or None) of each name
    if static_names is None:
        categorical = set(categorical_columns)
        unknown = categorical - set(raw_cols)
        if unknown:
            raise SchemaError(f"categorical columns not in static header: {unknown}")
        static_names, built = [], []
        for j, col in enumerate(raw_cols):
            cats = (sorted({static_rows[p][j] for p in patient_ids})
                    if col in categorical else [None])
            static_names.extend(col if cat is None else f"{col}={cat}" for cat in cats)
            built.extend((j, cat) for cat in cats)
    encoders = _static_encoders(static_names, raw_cols, built)

    N, D = len(patient_ids), len(variable_names)
    var_index = {v: d for d, v in enumerate(variable_names)}
    pid_index = {p: n for n, p in enumerate(patient_ids)}

    # series rows for unlabelled patients are ignored
    row_of = np.array([pid_index.get(pid, -1) for pid in patients], dtype=np.intp)
    var_of = np.array([var_index[name] for name in names], dtype=np.intp)
    values = series_array(N, D, T)
    cell = row_of[pcode]  # (row * D + variable) * T + hour - 1 of each cell
    cell *= D
    cell += var_of[vcode]
    cell *= T
    cell += hour
    cell -= 1
    kept = slice(None) if (row_of >= 0).all() else (row_of >= 0)[pcode]
    values.reshape(-1)[cell[kept]] = value[kept]

    S = np.empty((N, len(static_names)))
    for pid, n in pid_index.items():
        row = static_rows[pid]
        for k, (j, cat) in enumerate(encoders):
            if cat is None:
                try:
                    S[n, k] = float(row[j])
                except ValueError:
                    S[n, k] = math.nan
                if not math.isfinite(S[n, k]):
                    raise ParseError(
                        f"static value {row[j]!r} for patient {pid} column "
                        f"{raw_cols[j]!r} is not a finite number (declare it "
                        "categorical?)"
                    )
            else:
                S[n, k] = 1.0 if row[j] == cat else 0.0

    y = np.array([label_of[p] for p in patient_ids], dtype=float)
    return RawCohort(values, S, y, patient_ids, variable_names, list(static_names))


def _static_encoders(static_names, raw_cols, built=None):
    """(source column index, category or None) of each static name: a column
    of the header as it is, or ``<col>=<category>`` of a one-hot column (the
    longest such column).  A name that reads back as another column than the
    one ``built`` made it from (repeated, or a longer column's) is a SchemaError."""
    check_distinct("static header", raw_cols, SchemaError)
    encoders = []
    for name in static_names:
        if name in raw_cols:
            encoders.append((raw_cols.index(name), None))
            continue
        cols = [col for col in raw_cols if name.startswith(col + "=")]
        if not cols:
            raise SchemaError(f"static column {name!r} not in static header")
        col = max(cols, key=len)
        encoders.append((raw_cols.index(col), name[len(col) + 1:]))
    for name, made, (k, cat) in zip(static_names, built or encoders, encoders):
        if made != (k, cat):
            raise SchemaError(f"one-hot name {name!r} of column {raw_cols[made[0]]!r} "
                              f"is ambiguous with column {raw_cols[k]!r}")
    unused = sorted(set(raw_cols) - {raw_cols[j] for j, _ in encoders})
    if unused:
        raise SchemaError(f"static columns {unused} not in the fixed static columns")
    return encoders


def compute_population_median(raw):
    """Per-variable median over measured entries; 0.0 if never measured."""
    med = np.zeros(raw.values.shape[1])
    for d in range(raw.values.shape[1]):
        vals = raw.values[:, d, :]
        vals = vals[~np.isnan(vals)]
        if vals.size:
            med[d] = np.median(vals)
    return med


def build_batch(raw, population_median=None):
    """Impute a RawCohort into a ClinicalBatch (raw units) by carrying
    forward: an unmeasured (n, d, t) takes the most recent prior measurement
    of (n, d), or the population median when nothing has been measured yet
    (by default the median of ``raw``'s own measured values).
    """
    if population_median is None:
        population_median = compute_population_median(raw)
    population_median = np.asarray(population_median, dtype=float)
    if population_median.shape != (raw.values.shape[1],):
        raise DataError("population_median must have one entry per variable")
    M = ~np.isnan(raw.values)
    # each cell takes the latest measured hour up to its own; -1 before the
    # first, where the median goes
    latest = np.where(M, np.arange(raw.T), -1)
    np.maximum.accumulate(latest, axis=2, out=latest)
    X = np.take_along_axis(raw.values, latest, axis=2)
    np.copyto(X, population_median[:, None], where=latest < 0)
    return ClinicalBatch(
        X, M, raw.S.copy(), raw.y.copy(), list(raw.patient_ids),
        raw.variable_names, raw.static_names,
    )


def fit_normalization(batch):
    """Location-scale stats from a (raw-unit) training batch.

    Time-series stats use measured entries only; statics use all rows.
    Population convention (divide by count); stds floored at 1e-6.
    """
    if batch.n_examples < 2:
        raise DataError("need at least 2 examples to fit normalization")
    D = batch.n_variables
    mean = np.zeros(D)
    std = np.full(D, STD_FLOOR)
    median = np.zeros(D)
    warnings = []
    for d in range(D):
        vals = batch.X[:, d, :][batch.M[:, d, :]]
        if vals.size == 0:
            warnings.append(
                f"variable {batch.variable_names[d]!r} never measured in train"
            )
            continue
        mean[d] = vals.mean()
        std[d] = max(vals.std(), STD_FLOOR)
        median[d] = np.median(vals)
    static_mean = batch.S.mean(axis=0)
    static_std = np.maximum(batch.S.std(axis=0), STD_FLOOR)
    return NormalizationStats(mean, std, static_mean, static_std, median, warnings)


def apply_normalization(batch, stats):
    """Z-normalize X per variable and S per column; M and y unchanged."""
    if stats.mean.shape[0] != batch.n_variables:
        raise DataError("normalization stats do not match batch dimensions")
    if stats.static_mean.shape[0] != batch.n_static:
        raise DataError("static normalization stats do not match batch")
    X = (batch.X - stats.mean[None, :, None]) / stats.std[None, :, None]
    S = (batch.S - stats.static_mean[None, :]) / stats.static_std[None, :]
    return replace(batch, X=X, S=S, M=batch.M.copy(), y=batch.y.copy())


def split_by_patient(cohort, test_fraction, seed):
    """Stratified patient-level split into (train, test)."""
    if not 0 < test_fraction < 1:
        raise DataError("test_fraction must be in (0, 1)")
    y = cohort.y
    N = len(y)
    n_test = int(round(N * test_fraction))
    if n_test == 0 or n_test == N:
        raise DataError(f"cohort of {N} too small for test_fraction {test_fraction}")
    rng = np.random.default_rng(seed)
    pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    n_test_pos = min(int(round(len(pos) * test_fraction)), n_test)
    test_mask = np.zeros(N, dtype=bool)
    test_mask[rng.permutation(pos)[:n_test_pos]] = True
    test_mask[rng.permutation(neg)[:n_test - n_test_pos]] = True
    train = cohort.take(np.flatnonzero(~test_mask))
    test = cohort.take(np.flatnonzero(test_mask))
    return train, test


def class_weights(y):
    """Per-example weights N / (2 * count(y == y_n)); labels must be 0 or 1,
    and both must appear."""
    y = np.asarray(y)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != len(y):
        raise DataError("class weights undefined: labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise DataError("class weights undefined: only one class present")
    N = len(y)
    return np.where(y == 1, N / (2.0 * n_pos), N / (2.0 * n_neg))
