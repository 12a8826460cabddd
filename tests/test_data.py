import contextlib
import csv
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumlearn.data
from sumlearn.cli import main
from sumlearn.data import (
    NormalizationStats,
    apply_normalization,
    build_batch,
    class_weights,
    compute_population_median,
    fit_normalization,
    impute,
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

from conftest import random_batch


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


# ------------------------------------------- columnar reader vs row reader
#
# ingest_csv reads timeseries.csv with numpy's columnar parser and hands any
# file that parser cannot vouch for to the row reader; either way the result
# or the error must be the row reader's own.

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


def ingest_outcome(paths, T, variables=None, columnar=True):
    """ingest_csv's RawCohort as comparable values (the arrays bit for bit,
    and the names), or the type and message of its error.  Without
    ``columnar`` the columnar reader declines every file."""
    with pytest.MonkeyPatch.context() as mp:
        if not columnar:
            mp.setattr(sumlearn.data, "_read_series_columns", lambda *args: None)
        try:
            raw = ingest_csv(*paths, T, variables=variables)
        except SumlearnError as exc:
            return type(exc), str(exc)
    return (raw.values.shape, raw.values.tobytes(), raw.S.tobytes(),
            raw.y.tobytes(), raw.patient_ids, raw.variable_names,
            raw.static_names)


def _patients(*ids):
    return {p: str(k % 2) for k, p in enumerate(ids)}, {p: "50" for p in ids}


P12 = _patients("p1", "p2")
BASIC = SERIES_HEADER + "".join(BASIC_SERIES)
# id, timeseries.csv, (labels, statics), variables, read by the columnar reader
EDGE_CASES = [
    ("quoted_comma", SERIES_HEADER + '"p,1",hr,1,80\n"p,1",sbp,2,120\np2,hr,1,70\n',
     _patients("p,1", "p2"), None, True),
    ("quoted_newline", SERIES_HEADER + '"p\n1",hr,1,80\np2,hr,2,70\n',
     _patients("p\n1", "p2"), None, True),
    ("inner_quote", SERIES_HEADER + 'p"1,hr,1,80\np2,hr,1,70\n',
     _patients('p"1', "p2"), None, True),
    ("hash", SERIES_HEADER + "p#1,hr,1,80\np2,hr,1,70\n",
     _patients("p#1", "p2"), None, True),
    ("crlf_padded_ids", " patient_id , variable,hour,value\r\n"
     " p1 , hr ,1,80\r\np2,hr , 2 , 70 \r\n", P12, None, True),
    ("extra_columns", SERIES_HEADER + "p1,hr,1,80,note\np2,sbp,3,70,a,b\n",
     P12, None, True),
    ("underscore_hour", SERIES_HEADER + "p1,hr,1_0,80\np2,hr,1,70\n", P12, None, False),
    ("arabic_indic_hour", SERIES_HEADER + "p1,hr,٣,80\np2,hr,1,70\n",
     P12, None, False),
    ("blank_rows", SERIES_HEADER + "p1,hr,1,80\n\n,,,\np2,hr,1,70\n", P12, None, False),
    ("one_row", SERIES_HEADER + "p1,hr,1,80\n", _patients("p1"), None, True),
    ("unlabelled", SERIES_HEADER + "p1,hr,1,80\np3,ghost,2,5\np2,hr,1,70\n",
     P12, None, True),
    ("permuted_variables", BASIC, P12, ["sbp", "hr"], True),
    ("duplicate", BASIC + "p1,hr,1,85\n", P12, None, False),
    ("hour_out_of_range", BASIC + "p2,hr,13,80\n", P12, None, False),
    ("overflowing_value", BASIC + "p2,hr,2,1e500\n", P12, None, False),
    ("float_hour", BASIC + "p2,hr,2.0,80\n", P12, None, False),
    ("numpy_only_space", BASIC + "p2,hr,\x1c2,80\n", P12, None, False),
    ("ragged_row", BASIC + "p2,hr,2\n", P12, None, False),
    ("unknown_variable", BASIC, P12, ["hr"], False),
    ("quoted_header", '"patient_id",variable,hour,value\n' + "".join(BASIC_SERIES),
     P12, None, False),
    ("header_with_quoted_newline",
     'patient_id,variable,hour,value,"\np9,hr,1,5,"\np1,hr,1,80\n',
     _patients("p1", "p9"), None, False),
    ("not_utf8", BASIC.encode() + b"p2,hr,2,8\xff0\n", P12, None, False),
    ("header_only", SERIES_HEADER, P12, None, False),
    ("empty", "", P12, None, False),
]


@pytest.mark.parametrize("series, patients, variables, columnar",
                         [case[1:] for case in EDGE_CASES],
                         ids=[case[0] for case in EDGE_CASES])
def test_columnar_reader_agrees_with_row_reader(tmp_path, series, patients,
                                                variables, columnar):
    paths = write_files(tmp_path, cohort_files(series, *patients))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read = sumlearn.data._read_series_columns(paths[0], EDGE_T, variables)
    assert not caught
    assert (read is not None) == columnar
    assert (ingest_outcome(paths, EDGE_T, variables)
            == ingest_outcome(paths, EDGE_T, variables, columnar=False))


@pytest.mark.parametrize("T, columnar", [
    (10**18, True), (3 * 10**18, False), (10**20, False)])
def test_t_too_large_for_the_series_array_is_a_data_error(tmp_path, T, columnar):
    # numpy refuses each (2, 2, T) shape before allocating anything; the
    # columnar reader declines where the 2 x 2 x T duplicate keys would not
    # fit in int64
    paths = write_files(tmp_path, cohort_files(BASIC, *P12))
    read = sumlearn.data._read_series_columns(paths[0], T, None)
    assert (read is not None) == columnar
    assert (ingest_outcome(paths, T) == ingest_outcome(paths, T, columnar=False)
            == (DataError, f"T = {T}: cannot allocate the (2, 2, {T}) series array"))


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


@settings(derandomize=True, deadline=None, max_examples=150)
@given(files=fuzz_cohorts(),
       variables=st.sampled_from([None, FUZZ_VARIABLES, FUZZ_VARIABLES[::-1]]))
def test_fuzzed_cohorts_read_alike_and_fail_typed(fuzz_checkpoint, files,
                                                  variables):
    with tempfile.TemporaryDirectory() as directory:
        paths = write_files(directory, files)
        assert (ingest_outcome(paths, FUZZ_T, variables)
                == ingest_outcome(paths, FUZZ_T, variables, columnar=False))
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


class TestImpute:
    def test_carry_forward_then_median(self, tmp_path):
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        median = compute_population_median(raw)
        filled, mask = impute(raw, median)
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
        filled, _ = impute(raw, median)
        sbp = raw.variable_names.index("sbp")
        p1 = raw.patient_ids.index("p1")
        assert filled[p1, sbp, 0] == median[sbp]
        assert median[sbp] == 115  # median of {120, 110}

    def test_no_nans_remain(self, tmp_path):
        paths = write_cohort(tmp_path, BASIC_SERIES, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        batch = build_batch(raw)
        assert np.isfinite(batch.X).all()
        assert set(np.unique(batch.M)) <= {0.0, 1.0}


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
