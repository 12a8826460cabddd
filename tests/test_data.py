import contextlib
import csv
import io
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumlearn.data
import sumlearn.synth
from sumlearn.cli import main
from sumlearn.data import (
    NormalizationStats,
    apply_normalization,
    build_batch,
    class_weights,
    cohort_paths,
    compute_population_median,
    fit_normalization,
    ingest_csv,
    split_by_patient,
)
from sumlearn.errors import (
    ConflictError,
    DataError,
    ParseError,
    RangeError,
    SchemaError,
    SumlearnError,
)
from sumlearn.model import ModelParams, TrainConfig, feature_names_for, save_checkpoint
from sumlearn.summaries import N_SUMMARIES, SummaryParams

from conftest import random_batch, read_series_rows


def write_cohort(tmp_path, series_rows, static_rows, label_rows,
                 static_header="patient_id,age"):
    ts = tmp_path / "timeseries.csv"
    st = tmp_path / "static.csv"
    lb = tmp_path / "labels.csv"
    ts.write_text("patient_id,variable,hour,value\n" + "".join(series_rows))
    st.write_text(static_header + "\n" + "".join(static_rows))
    lb.write_text("patient_id,label\n" + "".join(label_rows))
    return ts, st, lb


BASIC_SERIES = [
    "p1,hr,1,80\n",
    "p1,hr,3,90\n",
    "p1,sbp,2,120\n",
    "p2,hr,1,70\n",
    "p2,sbp,4,110\n",
]
BASIC_STATIC = ["p1,64\n", "p2,71\n"]
BASIC_LABELS = ["p1,1\n", "p2,0\n"]


class TestIngest:
    def test_basic_shapes_and_mask(self, tmp_path):
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        assert raw.values.shape == (2, 2, 4)
        assert raw.patient_ids == ["p1", "p2"]
        hr = raw.variable_names.index("hr")
        p1 = raw.patient_ids.index("p1")
        assert raw.values[p1, hr, 0] == 80
        assert np.isnan(raw.values[p1, hr, 1])
        assert raw.values[p1, hr, 2] == 90
        assert raw.y.tolist() == [1.0, 0.0]

    def test_static_values_align(self, tmp_path):
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        age = raw.static_names.index("age")
        assert raw.S[raw.patient_ids.index("p2"), age] == 71

    def test_malformed_row_reports_line(self, tmp_path):
        rows = BASIC_SERIES + ["p2,hr,not_an_hour,80\n"]
        paths = write_cohort(tmp_path, rows, BASIC_STATIC, BASIC_LABELS)
        with pytest.raises(ParseError) as err:
            ingest_csv(*paths, T=4)
        assert err.value.line == len(rows) + 1

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "NaN"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        rows = BASIC_SERIES + [f"p2,hr,2,{value}\n"]
        paths = write_cohort(tmp_path, rows, BASIC_STATIC, BASIC_LABELS)
        with pytest.raises(ParseError, match="not a finite number") as err:
            ingest_csv(*paths, T=4)
        assert err.value.line == len(rows) + 1

    @pytest.mark.parametrize("value", ["inf", "nan", "old"])
    def test_non_finite_static_value_names_patient_and_column(self, tmp_path,
                                                              value):
        static = ["p1,64\n", f"p2,{value}\n"]
        paths = write_cohort(tmp_path, BASIC_SERIES, static, BASIC_LABELS)
        with pytest.raises(ParseError, match="for patient p2 column 'age'"):
            ingest_csv(*paths, T=4)

    def test_empty_static_file_is_a_schema_error(self, tmp_path):
        ts, st, lb = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        st.write_text("")
        with pytest.raises(SchemaError, match="empty file"):
            ingest_csv(ts, st, lb, T=4)

    def test_short_label_row_reports_line(self, tmp_path):
        labels = ["p1,1\n", "p2\n"]
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, labels)
        with pytest.raises(ParseError, match="expected 2 fields, got 1") as err:
            ingest_csv(*paths, T=4)
        assert err.value.line == 3

    def test_hour_out_of_range(self, tmp_path):
        rows = BASIC_SERIES + ["p2,hr,9,80\n"]
        paths = write_cohort(tmp_path, rows, BASIC_STATIC, BASIC_LABELS)
        with pytest.raises(RangeError):
            ingest_csv(*paths, T=4)

    def test_conflicting_duplicate_measurement(self, tmp_path):
        rows = BASIC_SERIES + ["p1,hr,1,85\n"]
        paths = write_cohort(tmp_path, rows, BASIC_STATIC, BASIC_LABELS)
        with pytest.raises(ConflictError) as err:
            ingest_csv(*paths, T=4)
        assert "line" in str(err.value)

    def test_unknown_variable_with_fixed_schema(self, tmp_path):
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        with pytest.raises(SchemaError):
            ingest_csv(*paths, T=4, variables=["hr"])

    def test_categorical_static_one_hot(self, tmp_path):
        static = ["p1,64,micu\n", "p2,71,sicu\n"]
        paths = write_cohort(tmp_path, BASIC_SERIES, static, BASIC_LABELS,
                             static_header="patient_id,age,unit")
        raw = ingest_csv(*paths, T=4, categorical_columns=("unit",))
        assert "unit=micu" in raw.static_names
        assert "unit=sicu" in raw.static_names
        p1 = raw.patient_ids.index("p1")
        assert raw.S[p1, raw.static_names.index("unit=micu")] == 1.0
        assert raw.S[p1, raw.static_names.index("unit=sicu")] == 0.0

    def test_fixed_static_names_fix_columns_and_categories(self, tmp_path):
        static = ["p1,ccu,64,a\n", "p2,micu,71,b\n"]
        paths = write_cohort(tmp_path, BASIC_SERIES, static, BASIC_LABELS,
                             static_header="patient_id,unit,age,a=b")
        names = ["age", "unit=micu", "unit=sicu", "a=b=b", "a=b=c"]
        raw = ingest_csv(*paths, T=4, static_names=names)
        assert raw.static_names == names
        # p1's unit 'ccu' is not a category of the fixed names: no column is hot
        assert raw.S.tolist() == [[64, 0, 0, 0, 0], [71, 1, 0, 1, 0]]
        with pytest.raises(SchemaError, match="'ward=x' not in static header"):
            ingest_csv(*paths, T=4, static_names=["age", "ward=x"])
        with pytest.raises(SchemaError, match=r"\['a=b', 'unit'\] not in the fixed"):
            ingest_csv(*paths, T=4, static_names=["age"])

    def test_unlabelled_series_rows_are_dropped(self, tmp_path):
        rows = BASIC_SERIES + ["p3,hr,1,99\n"]
        paths = write_cohort(tmp_path, rows, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        assert "p3" not in raw.patient_ids


@pytest.mark.parametrize("name, text, kwargs, error, message, line", [
    ("labels.csv", "patient_id,outcome\np1,1\np2,0\n", {}, SchemaError,
     "<dir>/labels.csv: expected header ['patient_id', 'label'], "
     "got ['patient_id', 'outcome']", None),
    ("labels.csv", "patient_id,label\np1,yes\np2,0\n", {}, ParseError,
     "line 2: bad label 'yes'", 2),
    ("labels.csv", "patient_id,label\np1,1\np2,2\n", {}, ParseError,
     "line 3: label must be 0 or 1, got 2", 3),
    ("labels.csv", "patient_id,label\np1,1\np2,0\np1,0\n", {}, ConflictError,
     "duplicate label row for patient p1", None),
    ("static.csv", "patient_id,age\np1,64\np2,71\np2,72\n", {}, ConflictError,
     "duplicate static row for patient p2", None),
    ("static.csv", "patient_id,age\np1,64\np2,71,3\n", {}, ParseError,
     "line 3: expected 2 fields, got 3", 3),
    ("static.csv", "patient_id,age\np1,64\n", {}, SchemaError,
     "patients missing static rows: ['p2']", None),
    ("static.csv", "patient_id,age\np1,64\np2,71\n",
     {"categorical_columns": ("unit",)}, SchemaError,
     "categorical columns not in static header: {'unit'}", None),
    ("static.csv", "patient_id,age,age\np1,64,1\np2,71,2\n", {}, SchemaError,
     "static header repeats the name 'age'", None),
    ("timeseries.csv", None, {"variables": ["hr", "sbp", "hr"]}, SchemaError,
     "variables repeats the name 'hr'", None),
    ("static.csv", None, {"static_names": ["age", "age"]}, SchemaError,
     "static_names repeats the name 'age'", None),
    # the one-hot name of a = b repeats the numeric column a=b
    ("static.csv", "patient_id,a,a=b\np1,b,1\np2,x,2\n",
     {"categorical_columns": ("a",)}, SchemaError,
     "one-hot name 'a=b' of column 'a' is ambiguous with column 'a=b'", None),
    # the one-hot name of a = b=c reads back as category c of column a=b
    ("static.csv", "patient_id,a,a=b\np1,b=c,1\np2,x,2\n",
     {"categorical_columns": ("a",)}, SchemaError,
     "one-hot name 'a=b=c' of column 'a' is ambiguous with column 'a=b'", None),
], ids=["wrong_header", "label_not_int", "label_not_binary", "duplicate_label",
        "duplicate_static", "static_row_length", "missing_static",
        "unknown_categorical", "repeated_static_column", "repeated_variable",
        "repeated_static_name", "one_hot_name_repeats_a_column",
        "one_hot_name_of_a_longer_column"])
def test_cohort_errors_name_their_cause(tmp_path, name, text, kwargs, error,
                                        message, line):
    paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
    if text is not None:
        (tmp_path / name).write_text(text)
    with pytest.raises(error) as err:
        ingest_csv(*paths, T=4, **kwargs)
    assert str(err.value) == message.replace("<dir>", str(tmp_path))
    assert getattr(err.value, "line", None) == line


# ------------------------------------- chunked reader vs the row reference
#
# ingest_csv reads timeseries.csv in chunks of lines, each parsed by numpy's C
# parser or by the csv module; either way the result or the error must be the
# one of conftest.read_series_rows, which reads and checks row by row.

SERIES_HEADER = "patient_id,variable,hour,value\n"
EDGE_T = 12


def _csv(rows, newline="\n"):
    out = io.StringIO()
    csv.writer(out, lineterminator=newline).writerows(rows)
    return out.getvalue()


def cohort_files(series, labels, statics):
    """{file name: bytes} of a cohort: ``series`` is the whole timeseries.csv
    (str or bytes), ``labels`` and ``statics`` map patient id to field text."""
    return {
        "timeseries.csv": series.encode() if isinstance(series, str) else series,
        "labels.csv": _csv([["patient_id", "label"], *labels.items()]).encode(),
        "static.csv": _csv([["patient_id", "age"], *statics.items()]).encode(),
    }


def write_files(directory, files):
    """Write the files into ``directory``; the three ingest_csv paths."""
    for name, content in files.items():
        (Path(directory) / name).write_bytes(content)
    return [Path(directory) / name
            for name in ("timeseries.csv", "static.csv", "labels.csv")]


def ingest_outcome(paths, T, variables=None, reference=False):
    """ingest_csv's RawCohort as comparable values (the arrays bit for bit,
    and the names), or the type and message of its error.  With
    ``reference`` the row reference reads timeseries.csv."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(sumlearn.data, "_read_series", read_series_rows)
        try:
            raw = ingest_csv(*paths, T, variables=variables)
        except SumlearnError as exc:
            return type(exc), str(exc)
    return (raw.values.shape, raw.values.tobytes(), raw.S.tobytes(),
            raw.y.tobytes(), raw.patient_ids, raw.variable_names,
            raw.static_names)


def series_outcome(read, path, T, variables=None):
    """The columns that ``read`` gives as comparable values (each array's
    dtype and bytes), or the type and message of its error."""
    try:
        patients, p, names, v, hour, value = read(path, T, variables)
    except SumlearnError as exc:
        return type(exc), str(exc)
    return (patients, names,
            [(a.dtype.str, a.tobytes()) for a in (p, v, hour, value)])


@contextlib.contextmanager
def chunks_of(chars):
    """The reader parses chunks of lines of at least ``chars`` characters;
    at 0 each line is a chunk of its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sumlearn.data, "_CHUNK_CHARS", chars)
        yield


def _patients(*ids):
    return {p: str(k % 2) for k, p in enumerate(ids)}, {p: "50" for p in ids}


P12 = _patients("p1", "p2")
BASIC = SERIES_HEADER + "".join(BASIC_SERIES)
# id, timeseries.csv, (labels, statics), variables
EDGE_CASES = [
    ("quoted_comma", SERIES_HEADER + '"p,1",hr,1,80\n"p,1",sbp,2,120\np2,hr,1,70\n',
     _patients("p,1", "p2"), None),
    ("quoted_newline", SERIES_HEADER + '"p\n1",hr,1,80\np2,hr,2,70\n',
     _patients("p\n1", "p2"), None),
    # a line break inside a quoted field is kept as written
    ("quoted_crlf", SERIES_HEADER + '"p\r\n1",hr,1,80\r\np2,hr,2,70\r\n',
     _patients("p\r\n1", "p2"), None),
    ("inner_quote", SERIES_HEADER + 'p"1,hr,1,80\np2,hr,1,70\n',
     _patients('p"1', "p2"), None),
    ("hash", SERIES_HEADER + "p#1,hr,1,80\np2,hr,1,70\n",
     _patients("p#1", "p2"), None),
    ("line_breaks_of_str_splitlines", SERIES_HEADER
     + "p\x0b1,hr,1,80\np\x0c1,hr,1,8\np\x852,hr,1,70\np\u20282,sbp,2,5\n",
     _patients("p\x0b1", "p\x0c1", "p\x852", "p\u20282"), None),
    ("crlf_padded_ids", " patient_id , variable,hour,value\r\n"
     " p1 , hr ,1,80\r\np2,hr , 2 , 70 \r\n", P12, None),
    ("extra_columns", SERIES_HEADER + "p1,hr,1,80,note\np2,sbp,3,70,a,b\n",
     P12, None),
    ("underscore_hour", SERIES_HEADER + "p1,hr,1_0,80\np2,hr,1,70\n", P12, None),
    ("arabic_indic_hour", SERIES_HEADER + "p1,hr,٣,80\np2,hr,1,70\n", P12, None),
    ("blank_rows", SERIES_HEADER + "p1,hr,1,80\n\n,,,\np2,hr,1,70\n", P12, None),
    ("one_row", SERIES_HEADER + "p1,hr,1,80\n", _patients("p1"), None),
    ("unlabelled", SERIES_HEADER + "p1,hr,1,80\np3,ghost,2,5\np2,hr,1,70\n",
     P12, None),
    ("permuted_variables", BASIC, P12, ["sbp", "hr"]),
    ("duplicate", BASIC + "p1,hr,1,85\n", P12, None),
    ("hour_out_of_range", BASIC + "p2,hr,13,80\n", P12, None),
    ("overflowing_value", BASIC + "p2,hr,2,1e500\n", P12, None),
    ("float_hour", BASIC + "p2,hr,2.0,80\n", P12, None),
    ("numpy_only_space", BASIC + "p2,hr,\x1c2,80\n", P12, None),
    ("ragged_row", BASIC + "p2,hr,2\n", P12, None),
    ("unknown_variable", BASIC, P12, ["hr"]),
    ("quoted_header", '"patient_id",variable,hour,value\n' + "".join(BASIC_SERIES),
     P12, None),
    ("header_with_quoted_newline",
     'patient_id,variable,hour,value,"\np9,hr,1,5,"\np1,hr,1,80\n',
     _patients("p1", "p9"), None),
    ("not_utf8", BASIC.encode() + b"p2,hr,2,8\xff0\n", P12, None),
    ("quoted_everything", '"patient_id","variable","hour","value"\n'
     '"p1","hr","1","80"\n"p2","sbp","2","70"\n', P12, None),
    ("header_only", SERIES_HEADER, P12, None),
    ("empty", "", P12, None),
]


EDGE_PARAMETERS = pytest.mark.parametrize(
    "series, patients, variables", [case[1:] for case in EDGE_CASES],
    ids=[case[0] for case in EDGE_CASES])


def reads_as_the_reference(directory, series, patients, variables):
    """The chunked reader gives the row reference's columns or error, without
    a warning, and ingest_csv the same outcome either way."""
    paths = write_files(directory, cohort_files(series, *patients))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read = series_outcome(sumlearn.data._read_series, paths[0], EDGE_T, variables)
    assert not caught
    assert read == series_outcome(read_series_rows, paths[0], EDGE_T, variables)
    assert (ingest_outcome(paths, EDGE_T, variables)
            == ingest_outcome(paths, EDGE_T, variables, reference=True))


@EDGE_PARAMETERS
def test_columnar_reader_agrees_with_row_reader(tmp_path, series, patients,
                                                variables):
    reads_as_the_reference(tmp_path, series, patients, variables)


# No file here fills one real chunk; in chunks of one line each, a boundary
# falls between every two lines.
@EDGE_PARAMETERS
def test_columnar_reader_agrees_in_chunks_of_one_line(tmp_path, series, patients,
                                                      variables):
    with chunks_of(0):
        reads_as_the_reference(tmp_path, series, patients, variables)


# id, timeseries.csv.  Each file is read at every chunk size from 0 to its
# length, so that a chunk boundary falls at each place: before and after a
# quoted newline (also in a row that reads as whole without the rest of its
# quoted field), inside a CRLF pair, between blank lines, between the two
# rows of a repeated (patient, variable, hour) and around each quote.
BOUNDARY_CASES = [
    ("quoted_newline", BASIC + '"p\n1",hr,1,80\np2,hr,2,70\n'),
    ("quoted_newline_in_extra_column", BASIC + 'p2,hr,2,70,"a\nb"\np2,hr,3,71\n'),
    ("repeated_key_after_quoted_newlines", BASIC + '"p\n1",hr,1,80\n"p\n1",hr,1,85\n'),
    ("crlf", SERIES_HEADER + "p1,hr,1,80\r\np2,sbp,2,70\r\np1,sbp,3,5\r\n"),
    ("lone_cr", SERIES_HEADER + "p1,hr,1,80\rp2,sbp,2,70\rp1,sbp,3,5\r"),
    ("blank_lines", SERIES_HEADER + "\n" + "\n\n".join(BASIC_SERIES) + "\n"),
    ("repeated_key_adjacent", BASIC + "p2,sbp,4,111\n"),
    ("repeated_key_apart", BASIC + "p1,hr,1,85\n"),
    ("repeated_key_after_blank_lines",
     SERIES_HEADER + "\n" + "\n\n".join(BASIC_SERIES) + "\np1,hr,1,85\n"),
    # two repeated keys: the one repeated first in the file sorts last
    ("repeated_keys_out_of_sort_order",
     SERIES_HEADER + "p2,hr,1,80\np1,hr,1,70\np2,hr,1,81\np1,hr,1,71\n"),
    # a literal quote, then a quote that opens at the end of the line
    ("quote_opened_after_a_literal_quote", BASIC + 'ab"c,"x\ny",2,5\np2,hr,3,71\n'),
    ("doubled_quotes", BASIC + '"p""1",hr,1,80\np2,"s""bp",3,70\n'),
    ("quote_closed_mid_field", BASIC + '"p"1,hr,5,80\np2,hr,3,71\n'),
    ("quoted_hour_and_value", BASIC + 'p2,hr," 2 ","7_0"\np2,hr,"3","71"\n'),
    ("quote_opened_on_the_last_line", BASIC + 'p2,hr,3,71\np2,hr,5,80,"a\n'),
    ("lone_cr_quoted_newline_in_extra_column",
     SERIES_HEADER + 'p1,hr,1,80\rp2,hr,2,70,"a\rb"\r"p2",hr,3,71\r'),
]


@pytest.mark.parametrize("series", [case[1] for case in BOUNDARY_CASES],
                         ids=[case[0] for case in BOUNDARY_CASES])
def test_every_chunk_boundary_reads_alike(tmp_path, series):
    paths = write_files(tmp_path, cohort_files(series, *P12))
    expected = series_outcome(read_series_rows, paths[0], EDGE_T)
    for chars in range(len(series) + 1):
        with chunks_of(chars):
            read = series_outcome(sumlearn.data._read_series, paths[0], EDGE_T)
        assert read == expected, chars


# A ragged row after a patient id whose quotes span a line break: the error
# names the physical line of the ragged row, 5 here, not its record, 4.
@pytest.mark.parametrize("name, text, message", [
    ("timeseries.csv", SERIES_HEADER + '"p\n1",hr,1,80\np2,hr,1,70\np2,hr\n',
     "line 5: expected 4 fields, got 2"),
    ("labels.csv", 'patient_id,label\n"p\n1",1\np2,0\np3\n',
     "line 5: expected 2 fields, got 1"),
], ids=["series", "labels"])
def test_a_parse_error_names_the_physical_line(tmp_path, name, text, message):
    paths = write_files(tmp_path, cohort_files(BASIC, *P12))
    (tmp_path / name).write_text(text)
    expected = (ParseError, message)
    for chars in (sumlearn.data._CHUNK_CHARS, 0):
        with chunks_of(chars):
            assert ingest_outcome(paths, EDGE_T) == expected
    assert ingest_outcome(paths, EDGE_T, reference=True) == expected


@pytest.mark.parametrize("name, text", [
    ("timeseries.csv", SERIES_HEADER + "p1,hr,1,80\n\"{}\",hr,1,80\n"),
    ("timeseries.csv", SERIES_HEADER + "p1,hr,1,80\n{},hr,1,80\n"),
    ("timeseries.csv", "patient_id,variable,hour,value,{}\np1,hr,1,80\n"),
    ("labels.csv", "patient_id,label\np1,1\n{},0\n"),
], ids=["quoted_series_id", "unquoted_series_id", "series_header", "label_id"])
def test_field_over_the_csv_size_limit_is_a_parse_error(tmp_path, name, text):
    paths = write_files(tmp_path, cohort_files(BASIC, *P12))
    limit = csv.field_size_limit()
    line = text.count("\n", 0, text.index("{}")) + 1
    (tmp_path / name).write_text(text.format("x" * (limit + 1)))
    expected = (ParseError, f"line {line}: field larger than field limit ({limit})")
    for chars in (sumlearn.data._CHUNK_CHARS, 0):
        with chunks_of(chars):
            assert ingest_outcome(paths, EDGE_T) == expected
    assert ingest_outcome(paths, EDGE_T, reference=True) == expected


# An hour and a value as written, and what Python's int() and float() make of
# them: the reader takes every spelling they take, quoted or not, and no other.
SPELLINGS = [("1_0", "80"), ("٣", "80"), (" 2 ", " 7.5 "), ("+2", "+7e1"),
             ("1.0", "80"), ("2", "abc"), ("2", ""), ("2", "1_0"), ("2", "٣"),
             ("2", "inf"), ("2", "-Infinity"), ("2", "nan"), ("2", "1e500"),
             ("2", "0x10"), ("x", "80"), ("0", "80"), ("13", "80")]


def _spelled(hour, value):
    """(RawCohort's value of p2's hr at ``hour``, or the type and message of
    the error) that Python's int() and float() make of the row p2,hr,hour,
    value on line 7 of BASIC, for T = EDGE_T."""
    try:
        h = int(hour)
    except ValueError:
        return ParseError, f"line 7: bad hour {hour!r}"
    try:
        v = float(value)
    except ValueError:
        v = np.nan
    if not np.isfinite(v):
        return ParseError, f"line 7: bad value {value!r} (not a finite number)"
    if not 1 <= h <= EDGE_T:
        return RangeError, f"line 7: hour {h} outside [1, {EDGE_T}] for patient p2"
    return h, v


@pytest.mark.parametrize("hour, value", SPELLINGS,
                         ids=[f"{h.strip()}-{v.strip()}" for h, v in SPELLINGS])
def test_hours_and_values_are_spelled_as_python_reads_them(tmp_path, hour, value):
    expected = _spelled(hour, value)
    for row in (f"p2,hr,{hour},{value}\n", f'"p2","hr","{hour}","{value}"\n'):
        paths = write_files(tmp_path, cohort_files(BASIC + row, *P12))
        reference = ingest_outcome(paths, EDGE_T, reference=True)
        for chars in (sumlearn.data._CHUNK_CHARS, 0):
            with chunks_of(chars):
                assert ingest_outcome(paths, EDGE_T) == reference, (row, chars)
        if isinstance(expected[0], int):
            raw = ingest_csv(*paths, EDGE_T)
            hr = raw.variable_names.index("hr")
            assert raw.values[1, hr, expected[0] - 1] == expected[1]
        else:
            assert reference == expected


@pytest.mark.parametrize("T", [10**18, 3 * 10**18, 2**63 - 1])
def test_t_too_large_for_the_series_array_is_a_data_error(tmp_path, T):
    # numpy refuses each (2, 2, T) shape before allocating anything
    paths = write_files(tmp_path, cohort_files(BASIC, *P12))
    assert (ingest_outcome(paths, T) == ingest_outcome(paths, T, reference=True)
            == (DataError, f"T = {T}: cannot allocate the (2, 2, {T}) series array"))


# No hour above T fits in int64 then, so T is refused before any file is
# read: the directory holds no cohort.
@pytest.mark.parametrize("T", [2**63, 10**20])
def test_t_beyond_int64_is_a_data_error(tmp_path, T):
    assert ingest_outcome(cohort_paths(tmp_path), T) == (
        DataError, f"T = {T}: above {2**63 - 1}, the largest int64")


# Hours so large that the flat (patient, variable, hour) cell index of a
# 2 x 2 x 4e18 array wraps around in int64: the repeat check must not need it.
@pytest.mark.parametrize("rows, expected", [
    ("p1,hr,4000000000000000000,5\np2,hr,4000000000000000000,6\n",
     (DataError, "T = 5000000000000000000: cannot allocate the (2, 2, "
      "5000000000000000000) series array")),
    ("p1,hr,4000000000000000000,5\np1,hr,4000000000000000000,6\n",
     (ConflictError, "duplicate (p1, hr, 4000000000000000000) at lines 7 and 8")),
], ids=["distinct", "repeated"])
def test_repeat_check_takes_hours_beyond_the_flat_index(tmp_path, rows, expected):
    paths = write_files(tmp_path, cohort_files(BASIC + rows, *P12))
    assert (ingest_outcome(paths, 5 * 10**18)
            == ingest_outcome(paths, 5 * 10**18, reference=True) == expected)


def _quote_one_id(lines):
    """The patient id of the middle data row quoted, as a hand edit or a
    writer that quotes some ids would leave it."""
    k = len(lines) // 2
    pid, rest = lines[k].split(",", 1)
    return lines[:k] + [f'"{pid}",{rest}'] + lines[k + 1:]


def _r_style(lines):
    """As R's write.csv writes: every header name and string field quoted,
    numbers bare."""
    names = lines[0].rstrip("\r\n")
    header = ",".join(f'"{name}"' for name in names.split(",")) + lines[0][len(names):]
    return [header] + ['"{}","{}",{}'.format(*line.split(",", 2)) for line in lines[1:]]


# timeseries.csv as written by synth.write_cohort, then rewritten as other
# writers quote it
QUOTINGS = [
    ("plain", lambda lines: lines),
    ("quoted_header", lambda lines: ['"patient_id"' + lines[0][len("patient_id"):],
                                     *lines[1:]]),
    ("r_style", _r_style),
    ("one_quoted_id", _quote_one_id),
]


def write_quoted(source, directory, rewrite):
    """A copy of the cohort in ``source`` whose timeseries.csv is rewritten
    line by line; its three paths."""
    with open(source / "timeseries.csv", newline="") as fh:
        lines = fh.readlines()  # each with its CRLF
    directory.mkdir()
    for file in ("static.csv", "labels.csv"):
        (directory / file).write_bytes((source / file).read_bytes())
    (directory / "timeseries.csv").write_bytes("".join(rewrite(lines)).encode())
    return cohort_paths(directory)


def test_realistic_quoting_reads_alike_across_many_chunks(tmp_path):
    spec = sumlearn.synth.SynthSpec(n_examples=2000, n_variables=6, T=24, seed=3)
    batch, _ = sumlearn.synth.generate(spec)
    sumlearn.synth.write_cohort(batch, tmp_path / "synth")
    del batch
    assert ((tmp_path / "synth" / "timeseries.csv").stat().st_size
            > 8 * sumlearn.data._CHUNK_CHARS)
    outcomes = [ingest_outcome(write_quoted(tmp_path / "synth", tmp_path / name,
                                            rewrite), 24)
                for name, rewrite in QUOTINGS]
    assert len(outcomes[0]) > 2  # a RawCohort, not an error
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    assert outcomes[-1] == ingest_outcome(cohort_paths(tmp_path / "one_quoted_id"),
                                          24, reference=True)


FUZZ_T = 6
FUZZ_VARIABLES = ["hr", "sbp"]
_IDS = ["p1", "p2", "p3", " p2", "p,1", 'p"1', "p\n1", "é1"]
_ROWS = st.lists(
    st.tuples(st.sampled_from(_IDS), st.sampled_from(FUZZ_VARIABLES + [" hr "]),
              st.integers(1, FUZZ_T), st.floats(-1e6, 1e6)),
    unique_by=lambda row: (row[0].strip(), row[1].strip(), row[2]),
    min_size=1, max_size=10,
)
# Each malformation is one draw, so that most cohorts stay valid or fail late.
_BAD_HOURS = ["0", str(FUZZ_T + 1), "-1", "1.0", "1_0", "x", "", "٣", "\x1c1",
              "99999999999999999999"]
_BAD_VALUES = ["", "x", "nan", "-inf", "1e500", "0x10", "1_0", "٣", " 2.5\x1c"]
_DAMAGE = ["none"] * 6 + [
    "hour", "value", "duplicate", "ragged", "raw", "blank", "ghost", "label",
    "static", "not_utf8", "truncated", "empty"]


@st.composite
def fuzz_cohorts(draw):
    """The three files of a small cohort, valid or with one malformation:
    bad hours, values or labels, duplicates, ragged rows, unescaped quotes,
    blank rows, non-UTF-8 bytes, truncated and empty files."""
    rows = [[p, v, draw(st.sampled_from(["{}", " {} ", "+{}"])).format(h), repr(x)]
            for p, v, h, x in draw(_ROWS)]
    # label every patient with rows but the first few, both classes in turn
    ids = list(dict.fromkeys(p.strip() for p, *_ in rows))[draw(st.integers(0, 2)):]
    flip = draw(st.integers(0, 1))
    labels = {p: str((k + flip) % 2) for k, p in enumerate(ids)}
    statics = {p: "50" for p in ids}
    damage = draw(st.sampled_from(_DAMAGE))
    k = draw(st.integers(0, max(len(rows) - 1, 0)))
    if rows and damage == "hour":
        rows[k][2] = draw(st.sampled_from(_BAD_HOURS))
    elif rows and damage == "value":
        rows[k][3] = draw(st.sampled_from(_BAD_VALUES))
    elif rows and damage == "duplicate":
        rows.append(rows[k][:3] + ["0.5"])
    elif rows and damage == "ragged":
        rows[k] = (rows[k] + ["extra"])[: draw(st.sampled_from([1, 3, 5]))]
    elif rows and damage == "blank":
        rows.insert(k, draw(st.sampled_from([[], ["", "", "", ""], [" "]])))
    elif damage == "ghost":
        rows.insert(k, [draw(st.sampled_from(_IDS)), "ghost", "1", "2.0"])
    elif ids and damage == "label":
        labels[ids[0]] = draw(st.sampled_from(["2", "x", ""]))
    elif ids and damage == "static":
        statics[ids[0]] = "nan"
    header = SERIES_HEADER.strip().split(",")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    if damage == "raw":  # unescaped: commas, quotes and newlines in ids stay raw
        series = "".join(",".join(row) + newline for row in [header, *rows])
    else:
        series = _csv([header, *rows], newline)
    series = series.encode()
    at = draw(st.integers(0, len(series)))
    if damage == "not_utf8":
        series = series[:at] + b"\xff" + series[at:]
    elif damage == "truncated":
        series = series[:at]
    elif damage == "empty":
        series = b""
    return cohort_files(series, labels, statics)


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """An untrained checkpoint over FUZZ_VARIABLES, a static 'age' and
    T = FUZZ_T, for scoring fuzzed cohorts."""
    config = TrainConfig()
    D = len(FUZZ_VARIABLES)
    names = feature_names_for(FUZZ_VARIABLES, ["age"], FUZZ_T, config.mode)
    sp = SummaryParams(np.full((D, N_SUMMARIES), float(FUZZ_T)), np.ones(D),
                       -np.ones(D), config.tau_temp)
    mp = ModelParams(np.random.default_rng(0).standard_normal(len(names)), 0.0,
                     names)
    stats = NormalizationStats(np.zeros(D), np.ones(D), np.zeros(1), np.ones(1),
                               np.zeros(D))
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(path, sp, mp, stats, config, FUZZ_VARIABLES, ["age"],
                    FUZZ_T, 0)
    return path


def read_alike_and_fail_typed(fuzz_checkpoint, files, variables):
    """The reader and the row reference give the same RawCohort or error, and
    eval fails typed."""
    with tempfile.TemporaryDirectory() as directory:
        paths = write_files(directory, files)
        assert (ingest_outcome(paths, FUZZ_T, variables)
                == ingest_outcome(paths, FUZZ_T, variables, reference=True))
        read = ingest_outcome(paths, FUZZ_T, FUZZ_VARIABLES)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--checkpoint", str(fuzz_checkpoint),
                         "--cohort-dir", directory])
    err = err.getvalue()
    if len(read) == 2:  # the cohort is malformed: its message on one line
        one_line = read[1].replace("\r", "\\r").replace("\n", "\\n")
        assert (code, err) == (2, f"data error: {one_line}\n")
    elif code == 0:
        assert err == ""
    else:  # e.g. a single class: no AUC
        assert code == 2 and err.count("\n") == 1 and err.startswith("data error:")


FUZZ_PARAMETERS = given(
    files=fuzz_cohorts(),
    variables=st.sampled_from([None, FUZZ_VARIABLES, FUZZ_VARIABLES[::-1]]))


@settings(derandomize=True, deadline=None, max_examples=150)
@FUZZ_PARAMETERS
def test_fuzzed_cohorts_read_alike_and_fail_typed(fuzz_checkpoint, files,
                                                  variables):
    read_alike_and_fail_typed(fuzz_checkpoint, files, variables)


@settings(derandomize=True, deadline=None, max_examples=150)
@FUZZ_PARAMETERS
def test_fuzzed_cohorts_read_alike_in_chunks_of_one_line(fuzz_checkpoint, files,
                                                         variables):
    with chunks_of(0):
        read_alike_and_fail_typed(fuzz_checkpoint, files, variables)


# ingest_csv's tracemalloc peak per timeseries.csv row on the cohort below
# (249,085 rows): 220 bytes when one np.loadtxt call parsed the whole file
# into Python strings, 63 when chunks of lines are parsed one at a time and
# only their codes, hours and values kept.  The bound lies halfway.
INGEST_BYTES_PER_ROW = 141


def test_ingest_memory_per_series_row_is_bounded(tmp_path):
    spec = sumlearn.synth.SynthSpec(n_examples=2000, n_variables=6, T=24, seed=0)
    batch, _ = sumlearn.synth.generate(spec)
    sumlearn.synth.write_cohort(batch, tmp_path)
    rows = int(batch.M.sum())
    del batch
    tracemalloc.start()
    try:
        ingest_csv(*cohort_paths(tmp_path), T=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows < INGEST_BYTES_PER_ROW


# ingest_csv's tracemalloc peak per timeseries.csv row on an R-style copy of
# the cohort below (39,930 rows), which the csv module reads in every chunk:
# 247 bytes when a row-by-row reader, which held a tuple key per row, read
# it, and 126 in chunks.  The bound is the one that reader had to meet.
ROW_READER_BYTES_PER_ROW = 300


def test_row_reader_memory_per_series_row_is_bounded(tmp_path):
    spec = sumlearn.synth.SynthSpec(n_examples=320, n_variables=6, T=24, seed=0)
    batch, _ = sumlearn.synth.generate(spec)
    sumlearn.synth.write_cohort(batch, tmp_path / "synth")
    rows = int(batch.M.sum())
    del batch
    paths = write_quoted(tmp_path / "synth", tmp_path / "r_style", _r_style)
    tracemalloc.start()
    try:
        ingest_csv(*paths, T=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows < ROW_READER_BYTES_PER_ROW


class TestImpute:
    def test_carry_forward_then_median(self, tmp_path):
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        median = compute_population_median(raw)
        batch = build_batch(raw, median)
        filled, mask = batch.X, batch.M
        hr = raw.variable_names.index("hr")
        p1 = raw.patient_ids.index("p1")
        # hour 2 inherits the hour-1 value; hour 4 inherits hour 3
        assert filled[p1, hr, 1] == 80
        assert filled[p1, hr, 3] == 90
        assert mask[p1, hr].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_leading_gap_uses_population_median(self, tmp_path):
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        median = compute_population_median(raw)
        filled = build_batch(raw, median).X
        sbp = raw.variable_names.index("sbp")
        p1 = raw.patient_ids.index("p1")
        assert filled[p1, sbp, 0] == median[sbp]
        assert median[sbp] == 115  # median of {120, 110}

    @pytest.mark.parametrize("shape", [(9, 4, 12), (6, 3, 1)])
    def test_carry_equals_a_per_hour_loop(self, shape):
        rng = np.random.default_rng(shape[2])
        values = rng.standard_normal(shape)
        values[rng.random(shape) < 0.6] = np.nan
        values[:3, 0, :shape[2] // 2] = np.nan  # leading gaps
        values[:, 1, :] = np.nan  # a variable never measured
        median = rng.standard_normal(shape[1])
        raw = sumlearn.data.RawCohort(
            values, np.zeros((shape[0], 1)), np.zeros(shape[0]),
            [f"p{n}" for n in range(shape[0])],
            [f"v{d}" for d in range(shape[1])], ["s"])
        # the reference: carry each series forward one hour at a time
        expected = np.empty_like(values)
        carry = np.broadcast_to(median, shape[:2])
        for t in range(shape[2]):
            carry = np.where(np.isnan(values[:, :, t]), carry, values[:, :, t])
            expected[:, :, t] = carry
        batch = build_batch(raw, median)
        assert np.array_equal(batch.X, expected)
        assert np.array_equal(batch.M, ~np.isnan(values))

    def test_no_nans_remain(self, tmp_path):
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        batch = build_batch(raw)
        assert np.isfinite(batch.X).all()
        assert set(np.unique(batch.M)) <= {0.0, 1.0}


class TestMaskFormat:
    """The mask is bool from build_batch on: one byte per cell."""

    def test_every_batch_step_keeps_a_bool_mask(self, tmp_path):
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        batch = build_batch(raw)
        assert batch.M.dtype == bool
        assert np.array_equal(batch.M, ~np.isnan(raw.values))
        normalized = apply_normalization(batch, fit_normalization(batch))
        parts = split_by_patient(normalized, 0.5, seed=0)
        for b in (normalized, *parts, batch.take([1, 0])):
            assert b.M.dtype == bool
        assert np.array_equal(batch.take([1, 0]).M, batch.M[[1, 0]])

    def test_a_bool_mask_is_kept_without_a_copy(self, rng):
        batch = random_batch(rng)
        assert replace(batch, X=batch.X + 1.0).M is batch.M

    @pytest.mark.parametrize("dtype", [float, np.int8, np.int64])
    def test_a_zero_one_mask_is_converted_once(self, rng, dtype):
        M = (rng.random((4, 2, 3)) < 0.5).astype(dtype)
        batch = replace(random_batch(rng, n=4, d=2, t=3), M=M)
        assert batch.M.dtype == bool
        assert np.array_equal(batch.M, M == 1)

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_a_mask_that_is_not_zero_one_is_a_data_error(self, rng, bad):
        M = np.ones((4, 2, 3))
        M[1, 0, 2] = bad
        with pytest.raises(DataError, match="M must hold only 0 and 1"):
            replace(random_batch(rng, n=4, d=2, t=3), M=M)


class TestNormalization:
    def test_stats_use_measured_values_only(self, rng):
        batch = random_batch(rng, n=20, d=2, t=10)
        batch.X[batch.M == 0] = 1e6  # imputed garbage must not leak in
        stats = fit_normalization(batch)
        for d in range(2):
            vals = batch.X[:, d, :][batch.M[:, d, :] == 1]
            assert stats.mean[d] == pytest.approx(vals.mean())
            assert stats.std[d] == pytest.approx(vals.std())

    def test_roundtrip(self, rng):
        batch = random_batch(rng, n=12, d=3, t=8)
        stats = fit_normalization(batch)
        normalized = apply_normalization(batch, stats)
        back = normalized.X * stats.std[None, :, None] + stats.mean[None, :, None]
        assert np.allclose(back, batch.X)

    def test_never_measured_variable_warns_and_keeps_finite(self, rng):
        batch = random_batch(rng, n=10, d=2, t=6)
        batch.M[:, 1, :] = 0.0
        stats = fit_normalization(batch)
        assert len(stats.warnings) == 1
        assert stats.mean[1] == 0.0
        assert stats.std[1] >= 1e-6
        assert np.isfinite(apply_normalization(batch, stats).X).all()

    def test_constant_variable_gets_floored_std(self, rng):
        batch = random_batch(rng, n=10, d=2, t=6)
        batch.X[:, 0, :] = 42.0
        stats = fit_normalization(batch)
        assert stats.std[0] == 1e-6


class TestSplit:
    def test_partition_is_exact(self, rng):
        batch = random_batch(rng, n=40, d=2, t=6)
        a, b = split_by_patient(batch, 0.25, seed=3)
        assert a.n_examples + b.n_examples == 40
        assert set(a.patient_ids).isdisjoint(b.patient_ids)

    def test_stratified_prevalence(self, rng):
        batch = random_batch(rng, n=400, d=2, t=6)
        batch.y[:] = 0.0
        batch.y[:100] = 1.0
        a, b = split_by_patient(batch, 0.25, seed=0)
        assert b.y.sum() == 25
        assert a.y.sum() == 75

    def test_seed_determinism(self, rng):
        batch = random_batch(rng, n=30, d=2, t=6)
        a1, _ = split_by_patient(batch, 0.3, seed=9)
        a2, _ = split_by_patient(batch, 0.3, seed=9)
        assert a1.patient_ids == a2.patient_ids


class TestClassWeights:
    def test_balanced_reweighting(self):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        w = class_weights(y)
        assert w[0] == pytest.approx(4 / 2)  # N / (2 * n_pos)
        assert w[1] == pytest.approx(4 / 6)  # N / (2 * n_neg)
        assert w.sum() == pytest.approx(len(y))

    def test_balanced_labels_give_unit_weights(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        assert np.allclose(class_weights(y), 1.0)

    @pytest.mark.parametrize("y", [[0, 1, 2, 1], [0.0, 1.0, 0.5, 1.0], [0, -1, 1, 1]])
    def test_label_other_than_0_and_1_is_a_data_error(self, y):
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            class_weights(np.array(y))


def _stats_of(d=3, p=2):
    """Normalization stats of a batch with d variables and p statics."""
    batch = random_batch(np.random.default_rng(1), d=d)
    return fit_normalization(replace(batch, S=batch.S[:, :p]))


@pytest.mark.parametrize("call, needle", [
    (lambda b: replace(b, M=b.M[..., 1:]), "X and M must have identical shapes"),
    (lambda b: replace(b, S=b.S[1:]), "S and y must have one row per example"),
    (lambda b: replace(b, y=b.y[1:]), "S and y must have one row per example"),
    (lambda b: build_batch(sumlearn.data.RawCohort(
        b.X, b.S, b.y, b.patient_ids, b.variable_names, b.static_names), np.zeros(1)),
     "population_median must have one entry per variable"),
    (lambda b: fit_normalization(b.take([0])), "need at least 2 examples"),
    (lambda b: apply_normalization(b, _stats_of(d=1)),
     "normalization stats do not match batch dimensions"),
    (lambda b: apply_normalization(b, _stats_of(p=1)),
     "static normalization stats do not match batch"),
    (lambda b: split_by_patient(b, 0.0, seed=0), "test_fraction must be in"),
    (lambda b: split_by_patient(b, 0.05, seed=0),
     "cohort of 8 too small for test_fraction 0.05"),
    (lambda b: class_weights(np.ones(4)), "only one class present"),
], ids=["X_M_shapes", "S_length", "y_length", "median_length", "one_example",
        "stats_D", "stats_P", "test_fraction_0", "cohort_too_small", "one_class"])
def test_library_guards_are_data_errors(rng, call, needle):
    with pytest.raises(DataError, match=needle):
        call(random_batch(rng))
