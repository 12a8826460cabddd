import numpy as np
import pytest

from sumlearn.data import (
    apply_normalization,
    build_batch,
    class_weights,
    compute_population_median,
    fit_normalization,
    impute,
    ingest_csv,
    split_by_patient,
)
from sumlearn.errors import ConflictError, ParseError, RangeError, SchemaError

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

    def test_unlabelled_series_rows_are_dropped(self, tmp_path):
        rows = BASIC_SERIES + ["p3,hr,1,99\n"]
        paths = write_cohort(tmp_path, rows, BASIC_STATIC, BASIC_LABELS)
        raw = ingest_csv(*paths, T=4)
        assert "p3" not in raw.patient_ids


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
