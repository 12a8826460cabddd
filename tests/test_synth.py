import numpy as np
import pytest

from sumlearn.data import ingest_csv
from sumlearn.synth import SynthSpec, generate, write_cohort, write_truth


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


class TestWriteCohort:
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
        assert np.allclose(got[measured], batch.X[measured])
        assert np.isnan(got[~measured]).all()
        assert (tmp_path / "truth.json").exists()
