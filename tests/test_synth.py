import csv
import filecmp
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sumlearn.synth
from sumlearn.data import (LABELS_HEADER, SERIES_HEADER, STATIC_HEADER,
                           cohort_paths, ingest_csv)
from sumlearn.errors import DataError
from sumlearn.synth import (AR_COEFF, SynthSpec, generate, write_cohort,
                            write_truth)


@pytest.fixture(scope="module")
def cohort():
    spec = SynthSpec(n_examples=4000, seed=3)
    return spec, *generate(spec)


# (variable, summary, window) of the default spec's planted signals, in order
PLANTED = [("var0", "slope", 8), ("var1", "frac_above", 6),
           ("var2", "indicator_mean", None)]


def planted(desc):
    return [(s["variable"], s["summary"], s["window"]) for s in desc["signals"]]


def point_biserial(x, y):
    return float(np.corrcoef(x, y)[0, 1])


class TestGenerate:
    def test_shapes(self, cohort):
        spec, batch, desc = cohort
        assert batch.X.shape == (spec.n_examples, spec.n_variables, spec.T)
        assert batch.M.shape == batch.X.shape
        assert batch.S.shape == (spec.n_examples, spec.n_static)
        assert np.isfinite(batch.X).all()

    def test_prevalence_near_target(self, cohort):
        spec, batch, desc = cohort
        assert batch.y.mean() == pytest.approx(spec.prevalence, abs=0.02)

    def test_planted_slope_is_predictive(self, cohort):
        spec, batch, desc = cohort
        t = np.arange(1, spec.T + 1, dtype=float)
        window = t > spec.T - spec.trend_window
        xs = batch.X[:, spec.trend_var, :][:, window]
        ts = t[window]
        slope = (
            ((ts - ts.mean()) * (xs - xs.mean(1, keepdims=True))).sum(1)
            / ((ts - ts.mean()) ** 2).sum()
        )
        assert point_biserial(slope, batch.y) > 0.2

    def test_non_planted_variables_are_null(self, cohort):
        spec, batch, desc = cohort
        planted = {spec.trend_var, spec.threshold_var, spec.missing_var}
        for d in range(spec.n_variables):
            if d in planted:
                continue
            assert abs(point_biserial(batch.X[:, d, :].mean(1), batch.y)) < 0.05
            assert abs(point_biserial(batch.M[:, d, :].mean(1), batch.y)) < 0.05

    def test_measurement_rate_near_p_obs(self, cohort):
        spec, batch, desc = cohort
        for d in range(spec.n_variables):
            if d == spec.missing_var:
                continue
            assert batch.M[:, d, :].mean() == pytest.approx(spec.p_obs, abs=0.02)

    def test_missingness_plant_raises_rate(self, cohort):
        spec, batch, desc = cohort
        rate = batch.M[:, spec.missing_var, :].mean(1)
        assert point_biserial(rate, batch.y) > 0.1

    def test_determinism(self):
        spec = SynthSpec(n_examples=200, seed=12)
        b1, d1 = generate(spec)
        b2, d2 = generate(spec)
        assert np.array_equal(b1.X, b2.X)
        assert np.array_equal(b1.y, b2.y)
        assert d1 == d2

    def test_descriptor_names_planted_signals(self, cohort):
        spec, batch, desc = cohort
        assert planted(desc) == PLANTED

    @pytest.mark.parametrize("dropped, weight", enumerate(
        ["trend_weight", "threshold_weight", "missing_weight"]))
    def test_zero_weight_drops_its_plant(self, dropped, weight):
        _, desc = generate(SynthSpec(n_examples=50, seed=1, **{weight: 0.0}))
        assert planted(desc) == PLANTED[:dropped] + PLANTED[dropped + 1:]

    def test_null_spec_has_no_signal(self):
        spec = SynthSpec(
            n_examples=3000, seed=5,
            trend_weight=0.0, threshold_weight=0.0, missing_weight=0.0,
        )
        batch, _ = generate(spec)
        t = np.arange(1, spec.T + 1, dtype=float)
        window = t > spec.T - spec.trend_window
        xs = batch.X[:, spec.trend_var, :][:, window]
        ts = t[window]
        slope = (
            ((ts - ts.mean()) * (xs - xs.mean(1, keepdims=True))).sum(1)
            / ((ts - ts.mean()) ** 2).sum()
        )
        assert abs(point_biserial(slope, batch.y)) < 0.05


class TestSpec:
    @pytest.mark.parametrize("r", [0, 0.5])
    def test_missing_rate_multiplier_below_1_is_a_data_error(self, r):
        # the measurement rate of the missingness plant rises from p_obs/r to
        # p_obs, so r < 1 would clip it to 1 (and r = 0 divides by zero)
        with pytest.raises(DataError, match="must be >= 1"):
            SynthSpec(missing_rate_multiplier=r)

    def test_missing_rate_multiplier_of_1_is_accepted(self):
        batch, _ = generate(SynthSpec(n_examples=50, missing_rate_multiplier=1))
        assert batch.M.any()


def per_hour_background(spec):
    """The AR(1) background noise as a loop over the (N, D) slices of an
    (N, D, T) array, from the draws that generate makes."""
    rng = np.random.default_rng(spec.seed)
    rng.standard_normal(spec.n_examples)  # the latent acuity z
    shape = (spec.n_examples, spec.n_variables, spec.T)
    noise = rng.standard_normal(shape) * spec.noise_scale
    vals = np.empty(shape)
    vals[:, :, 0] = noise[:, :, 0]
    for t in range(1, spec.T):
        vals[:, :, t] = AR_COEFF * vals[:, :, t - 1] + noise[:, :, t]
    return vals


@pytest.mark.parametrize("T", [1, 2, 48])
def test_background_equals_the_per_hour_loop(T):
    spec = SynthSpec(n_examples=60, n_variables=5, T=T, trend_window=min(8, T),
                     threshold_window=min(6, T), noise_scale=0.7, seed=11)
    batch, _ = generate(spec)
    want = per_hour_background(spec)
    # every variable but the trend and threshold plants keeps its background
    # at its measured cells
    for d in set(range(spec.n_variables)) - {spec.trend_var, spec.threshold_var}:
        measured = batch.M[:, d]
        assert measured.any()
        assert np.array_equal(batch.X[:, d][measured], want[:, d][measured])


def csv_writer_cohort(batch, out_dir):
    """The three cohort files written row by row through csv.writer: the
    reference for the bytes of write_cohort."""
    out_dir.mkdir(parents=True, exist_ok=True)
    series_path, static_path, labels_path = cohort_paths(out_dir)
    with open(series_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_HEADER)
        n, d, t = np.nonzero(batch.M)
        writer.writerows(zip(
            [batch.patient_ids[i] for i in n.tolist()],
            [batch.variable_names[j] for j in d.tolist()],
            (t + 1).tolist(),
            map(repr, batch.X[n, d, t].tolist()),
        ))
    with open(static_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATIC_HEADER + batch.static_names)
        for n, pid in enumerate(batch.patient_ids):
            writer.writerow([pid] + [repr(float(v)) for v in batch.S[n]])
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELS_HEADER)
        for n, pid in enumerate(batch.patient_ids):
            writer.writerow([pid, int(batch.y[n])])


def assert_writes_csv_writer_bytes(batch, tmp_path):
    write_cohort(batch, tmp_path / "got")
    csv_writer_cohort(batch, tmp_path / "want")
    for got, want in zip(cohort_paths(tmp_path / "got"),
                         cohort_paths(tmp_path / "want")):
        assert filecmp.cmp(got, want, shallow=False), got.name


# Names that csv.writer quotes (a comma, a quote, a line break), or writes
# as they are (surrounding spaces, non-ASCII, the empty string).
AWKWARD_NAMES = ['a,b', 'say "hi"', 'two\nlines', 'cr\rlf', ' padded ',
                 'caf\u00e9 \u03b2', '', 'plain']


class TestWriteCohort:
    def test_bytes_of_a_seeded_cohort_with_chunks_inside_patients(
            self, tmp_path, monkeypatch):
        batch, _ = generate(SynthSpec(n_examples=40, seed=6))
        # a patient has about 130 measured cells, so most chunk boundaries
        # fall inside one
        monkeypatch.setattr(sumlearn.synth, "SERIES_CHUNK_ROWS", 97)
        assert_writes_csv_writer_bytes(batch, tmp_path)

    def test_bytes_of_names_that_need_quoting(self, tmp_path, monkeypatch):
        batch, _ = generate(SynthSpec(n_examples=len(AWKWARD_NAMES),
                                      n_variables=len(AWKWARD_NAMES), T=5,
                                      trend_window=3, threshold_window=3,
                                      seed=2))
        batch = replace(batch, patient_ids=AWKWARD_NAMES[::-1],
                        variable_names=AWKWARD_NAMES,
                        static_names=AWKWARD_NAMES[:batch.n_static])
        monkeypatch.setattr(sumlearn.synth, "SERIES_CHUNK_ROWS", 11)
        assert_writes_csv_writer_bytes(batch, tmp_path)

    def test_no_measured_cell_writes_only_the_header(self, tmp_path):
        batch, _ = generate(SynthSpec(n_examples=5, seed=0))
        batch = replace(batch, M=np.zeros_like(batch.M))
        assert_writes_csv_writer_bytes(batch, tmp_path)
        series = cohort_paths(tmp_path / "got")[0]
        assert series.read_bytes() == b"patient_id,variable,hour,value\r\n"

    def test_roundtrip_through_ingest(self, tmp_path):
        spec = SynthSpec(n_examples=50, seed=4)
        batch, desc = generate(spec)
        write_cohort(batch, tmp_path)
        write_truth(desc, tmp_path)
        raw = ingest_csv(
            tmp_path / "timeseries.csv",
            tmp_path / "static.csv",
            tmp_path / "labels.csv",
            T=spec.T,
        )
        assert raw.values.shape[0] == 50
        order = [raw.patient_ids.index(p) for p in batch.patient_ids]
        vmap = [raw.variable_names.index(v) for v in batch.variable_names]
        measured = batch.M == 1
        got = raw.values[order][:, vmap, :]
        assert np.array_equal(got[measured], batch.X[measured])
        assert np.isnan(got[~measured]).all()
        assert (tmp_path / "truth.json").exists()


# write_cohort's tracemalloc peak per timeseries.csv row on the cohort below
# (249,085 rows): 89 bytes when every row went through csv.writer as a tuple
# of Python objects, 14.5 when each id and name is encoded once and the rows
# are formatted in chunks of 4,096.  The bound lies halfway.
WRITE_BYTES_PER_ROW = 52


def test_write_memory_per_series_row_is_bounded(tmp_path):
    spec = SynthSpec(n_examples=2000, n_variables=6, T=24, seed=0)
    batch, _ = generate(spec)
    rows = int(batch.M.sum())
    tracemalloc.start()
    try:
        write_cohort(batch, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows < WRITE_BYTES_PER_ROW


@pytest.mark.parametrize("call, needle", [
    (lambda: SynthSpec(T=5), r"planted windows must lie in \[1, T\]"),
    (lambda: SynthSpec(p_obs=0.0), r"p_obs must be in \(0, 1\]"),
    (lambda: generate(SynthSpec(n_examples=50, T=8, trend_window=4, threshold_window=4,
                                prevalence=1.5)),
     "target prevalence 1.5 not achievable"),
], ids=["window_above_T", "p_obs_0", "prevalence_1_5"])
def test_guards_are_data_errors(call, needle):
    with pytest.raises(DataError, match=needle):
        call()
