"""Cohort data model: CSV ingestion, imputation, normalization, splitting.

A cohort moves through two representations:

* ``RawCohort`` - values straight from ingestion, NaN where unmeasured.
* ``ClinicalBatch`` - fully imputed ``X`` plus measurement mask ``M``,
  static matrix ``S`` and labels ``y``; immutable after construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConflictError, DataError, ParseError, RangeError, SchemaError

STD_FLOOR = 1e-6


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


def ingest_csv(
    timeseries_path,
    static_path,
    labels_path,
    T,
    categorical_columns=(),
    variables=None,
):
    """Read the three-CSV cohort format into a RawCohort.

    ``variables`` optionally fixes the variable set and order (e.g. from a
    checkpoint); names outside it raise SchemaError.  Categorical static
    columns are one-hot encoded as ``<col>=<value>``.
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

    # time series
    series = {}  # (pid, var, hour) -> (value, line)
    seen_vars = set()
    fixed = list(variables) if variables is not None else None
    rows = _read_rows(timeseries_path, ["patient_id", "variable", "hour", "value"])
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
        if key in series:
            raise ConflictError(
                f"duplicate ({pid}, {var}, {hour}) at lines "
                f"{series[key][1]} and {line_no}"
            )
        seen_vars.add(var)
        series[key] = (value, line_no)

    variable_names = fixed if fixed is not None else sorted(seen_vars)

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
    pids_with_series = {pid for (pid, _, _) in series}
    patient_ids = sorted(p for p in label_of if p in pids_with_series)
    if not patient_ids:
        raise DataError("no labelled patient has any time-series rows")
    missing_static = [p for p in patient_ids if p not in static_rows]
    if missing_static:
        raise SchemaError(f"patients missing static rows: {missing_static[:5]}")

    # one-hot expansion of categorical static columns
    categorical = set(categorical_columns)
    unknown = categorical - set(raw_cols)
    if unknown:
        raise SchemaError(f"categorical columns not in static header: {unknown}")
    static_names = []
    encoders = []  # per output column: (source index, category or None)
    for j, col in enumerate(raw_cols):
        if col in categorical:
            cats = sorted({static_rows[p][j] for p in patient_ids})
            for cat in cats:
                static_names.append(f"{col}={cat}")
                encoders.append((j, cat))
        else:
            static_names.append(col)
            encoders.append((j, None))

    N, D = len(patient_ids), len(variable_names)
    var_index = {v: d for d, v in enumerate(variable_names)}
    pid_index = {p: n for n, p in enumerate(patient_ids)}

    values = np.full((N, D, T), np.nan)
    for (pid, var, hour), (value, _) in series.items():
        if pid not in pid_index:
            continue  # series rows for unlabelled patients are ignored
        values[pid_index[pid], var_index[var], hour - 1] = value

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
    return RawCohort(values, S, y, patient_ids, variable_names, static_names)


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


def denormalize(X, stats):
    """Inverse of apply_normalization on the time-series tensor."""
    return X * stats.std[None, :, None] + stats.mean[None, :, None]


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
