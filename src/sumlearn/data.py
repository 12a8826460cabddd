"""Cohort data model: CSV ingestion, imputation, normalization, splitting.

A cohort moves through two representations:

* ``RawCohort`` - values straight from ingestion, NaN where unmeasured.
* ``ClinicalBatch`` - fully imputed ``X`` plus measurement mask ``M``,
  static matrix ``S`` and labels ``y``; immutable after construction.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConflictError, DataError, ParseError, RangeError, SchemaError

STD_FLOOR = 1e-6
_SERIES_HEADER = ["patient_id", "variable", "hour", "value"]
_SERIES_DTYPE = np.dtype([("patient", object), ("variable", object),
                          ("hour", np.int64), ("value", np.float64)])
# Separators that numpy's number parser skips as whitespace and Python's
# int() and float() reject.
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


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
    def n_examples(self):
        return self.values.shape[0]

    @property
    def T(self):
        return self.values.shape[2]

    take = _take


@dataclass
class ClinicalBatch:
    """Masked multivariate time series with static features and labels."""

    X: np.ndarray  # (N, D, T)
    M: np.ndarray  # (N, D, T), binary
    S: np.ndarray  # (N, P)
    y: np.ndarray  # (N,), binary
    patient_ids: list
    variable_names: list
    static_names: list

    def __post_init__(self):
        if self.X.shape != self.M.shape:
            raise DataError("X and M must have identical shapes")
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


def _read_rows(path, expected_header):
    """Yield the stripped header of a CSV file, then (line number, row) of
    each non-blank row.

    A file that cannot be opened or is not UTF-8 text is a DataError.  The
    header must start with ``expected_header`` (SchemaError otherwise, also
    for an empty file), and a row with fewer fields is a ParseError naming
    its line.
    """
    n_fields = len(expected_header)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        try:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            if not header:
                raise SchemaError(f"{path}: empty file")
            if header[:n_fields] != expected_header:
                raise SchemaError(
                    f"{path}: expected header {expected_header}, got {header}")
            yield header
            for line_no, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) < n_fields:
                    raise ParseError(f"expected {n_fields} fields, got {len(row)}",
                                     line=line_no)
                yield line_no, row
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


@dataclass
class _Series:
    """The rows of ``timeseries.csv`` as columns: each row's patient and
    variable as a code into the sorted distinct stripped names, its hour and
    its value."""

    patients: list
    p: np.ndarray
    variables: list
    v: np.ndarray
    hour: np.ndarray
    value: np.ndarray


def _factorize(strings):
    """(sorted distinct stripped strings, the index of each string's stripped
    form among them); each distinct raw string is stripped once."""
    code_of = dict.fromkeys(strings)
    names = sorted({s.strip() for s in code_of})
    index = {name: k for k, name in enumerate(names)}
    for s in code_of:
        code_of[s] = index[s.strip()]
    codes = np.fromiter(map(code_of.__getitem__, strings), dtype=np.intp,
                        count=len(strings))
    return names, codes


def _series(patients, variables, hours, values):
    return _Series(*_factorize(patients), *_factorize(variables),
                   np.asarray(hours, dtype=np.int64),
                   np.asarray(values, dtype=float))


def _read_series_columns(path, T, fixed):
    """The rows of ``timeseries.csv`` read in one pass by numpy's C parser,
    or None when the row reader might read or judge any of them otherwise.

    That is: an unreadable, empty or non-UTF-8 file, a header that is not
    the expected one or holds a quote or a carriage return, a byte numpy
    skips as whitespace but Python does not, any row numpy cannot parse
    (Python's parser also takes ``1_0`` and non-ASCII digits), and any row
    the row reader rejects: a non-finite value, an hour outside [1, T], an
    unknown variable or a repeated (patient, variable, hour).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    end = data.find(b"\n")
    header = (data if end < 0 else data[:end]).removesuffix(b"\r")
    if (b'"' in header or b"\r" in header
            or any(space in data for space in _NUMPY_ONLY_SPACE)):
        return None
    del data
    try:
        cells = header.decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    if [c.strip() for c in cells][:len(_SERIES_HEADER)] != _SERIES_HEADER:
        return None
    try:
        with warnings.catch_warnings():
            # an empty file, and before numpy 2 an hour such as "1.0", warn
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3),
                dtype=_SERIES_DTYPE, comments=None, quotechar='"',
                encoding="utf-8", ndmin=1,
            )
    except (OSError, ValueError, Warning):
        return None
    hour, value = table["hour"], table["value"]
    if not (len(table) and np.isfinite(value).all()
            and 1 <= hour.min() and int(hour.max()) <= T):
        return None
    series = _series(table["patient"].tolist(), table["variable"].tolist(),
                     hour, value)
    if fixed is not None and not set(series.variables) <= set(fixed):
        return None
    # the duplicate key below must not wrap around in int64
    if len(series.patients) * len(series.variables) * T > np.iinfo(np.int64).max:
        return None
    key = (series.p * len(series.variables) + series.v) * T + (series.hour - 1)
    key.sort()
    if (key[1:] == key[:-1]).any():
        return None
    return series


def _read_series_rows(path, T, fixed):
    """The rows of ``timeseries.csv`` read and checked one by one, so that
    the first bad row raises the error that names it."""
    line_of = {}  # (pid, var, hour) -> line
    values = []
    rows = _read_rows(path, _SERIES_HEADER)
    next(rows)  # the header
    for line_no, row in rows:
        pid, var = row[0].strip(), row[1].strip()
        try:
            hour = int(row[2])
        except ValueError:
            raise ParseError(f"bad hour {row[2]!r}", line=line_no) from None
        try:
            value = float(row[3])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(f"bad value {row[3]!r} (not a finite number)",
                             line=line_no)
        if not 1 <= hour <= T:
            raise RangeError(
                f"line {line_no}: hour {hour} outside [1, {T}] for patient {pid}"
            )
        if fixed is not None and var not in fixed:
            raise SchemaError(f"line {line_no}: unknown variable {var!r}")
        key = (pid, var, hour)
        if key in line_of:
            raise ConflictError(
                f"duplicate ({pid}, {var}, {hour}) at lines "
                f"{line_of[key]} and {line_no}"
            )
        line_of[key] = line_no
        values.append(value)
    pids, variables, hours = zip(*line_of) if line_of else ((), (), ())
    return _series(pids, variables, hours, values)


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
    raises SchemaError.
    """
    # labels
    label_of = {}
    rows = _read_rows(labels_path, ["patient_id", "label"])
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

    # time series: the row reader runs only when the columnar one declines
    fixed = list(variables) if variables is not None else None
    series = (_read_series_columns(timeseries_path, T, fixed)
              or _read_series_rows(timeseries_path, T, fixed))
    variable_names = fixed if fixed is not None else series.variables

    # static
    rows = _read_rows(static_path, ["patient_id"])
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
    pids_with_series = set(series.patients)
    patient_ids = sorted(p for p in label_of if p in pids_with_series)
    if not patient_ids:
        raise DataError("no labelled patient has any time-series rows")
    missing_static = [p for p in patient_ids if p not in static_rows]
    if missing_static:
        raise SchemaError(f"patients missing static rows: {missing_static[:5]}")

    # one-hot expansion of categorical static columns
    if static_names is None:
        categorical = set(categorical_columns)
        unknown = categorical - set(raw_cols)
        if unknown:
            raise SchemaError(f"categorical columns not in static header: {unknown}")
        static_names = []
        for j, col in enumerate(raw_cols):
            if col in categorical:
                cats = sorted({static_rows[p][j] for p in patient_ids})
                static_names.extend(f"{col}={cat}" for cat in cats)
            else:
                static_names.append(col)
    encoders = _static_encoders(static_names, raw_cols)

    N, D = len(patient_ids), len(variable_names)
    var_index = {v: d for d, v in enumerate(variable_names)}
    pid_index = {p: n for n, p in enumerate(patient_ids)}

    # series rows for unlabelled patients are ignored
    row = np.array([pid_index.get(p, -1) for p in series.patients],
                   dtype=np.intp)[series.p]
    var = np.array([var_index[v] for v in series.variables], dtype=np.intp)[series.v]
    kept = row >= 0
    try:
        values = np.full((N, D, T), np.nan)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's size limit
        raise DataError(f"T = {T}: cannot allocate the ({N}, {D}, {T}) "
                        "series array") from None
    values[row[kept], var[kept], series.hour[kept] - 1] = series.value[kept]

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


def _static_encoders(static_names, raw_cols):
    """(source column index, category or None) of each static name: a column
    of the header as it is, or ``<col>=<category>`` of a one-hot column (the
    longest such column)."""
    if len(set(raw_cols)) < len(raw_cols):
        raise SchemaError(f"static header repeats a column: {raw_cols}")
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


def impute(raw, population_median):
    """Carry-forward imputation: (X_raw, M) from a RawCohort.

    Unmeasured (n, d, t) takes the most recent prior measurement of
    (n, d), or the population median when nothing has been measured yet.
    """
    population_median = np.asarray(population_median, dtype=float)
    if population_median.shape != (raw.values.shape[1],):
        raise DataError("population_median must have one entry per variable")
    M = (~np.isnan(raw.values)).astype(float)
    X = np.empty_like(raw.values)
    carry = np.broadcast_to(
        population_median[None, :], raw.values.shape[:2]
    ).copy()
    for t in range(raw.values.shape[2]):
        measured = M[:, :, t] == 1
        carry = np.where(measured, raw.values[:, :, t], carry)
        X[:, :, t] = carry
    return X, M


def build_batch(raw, population_median=None):
    """Impute a RawCohort into a ClinicalBatch (raw units)."""
    if population_median is None:
        population_median = compute_population_median(raw)
    X, M = impute(raw, population_median)
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
        vals = batch.X[:, d, :][batch.M[:, d, :] == 1]
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
    test_idx = []
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    n_test_pos = int(round(len(pos) * test_fraction))
    n_test_pos = min(max(n_test_pos, 0), n_test)
    n_test_neg = n_test - n_test_pos
    test_idx.extend(rng.permutation(pos)[:n_test_pos])
    test_idx.extend(rng.permutation(neg)[:n_test_neg])
    test_mask = np.zeros(N, dtype=bool)
    test_mask[np.asarray(test_idx, dtype=int)] = True
    train = cohort.take(np.flatnonzero(~test_mask))
    test = cohort.take(np.flatnonzero(test_mask))
    return train, test


def class_weights(y):
    """Per-example weights N / (2 * count(y == y_n)); classes must both appear."""
    y = np.asarray(y)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("class weights undefined: only one class present")
    N = len(y)
    return np.where(y == 1, N / (2.0 * n_pos), N / (2.0 * n_neg))
