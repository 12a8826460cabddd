import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sumlearn.data import class_weights, fit_normalization
from sumlearn.errors import CheckpointFormatError, DataError
from sumlearn.model import (
    LAYOUTS,
    MODES,
    ModelParams,
    TrainConfig,
    assemble_features,
    feature_names_for,
    forward,
    horseshoe_penalty,
    horseshoe_penalty_grad,
    load_checkpoint,
    objective,
    predict,
    save_checkpoint,
    total_loss,
    weighted_bce_from_logits,
)
from sumlearn.summaries import (SUMMARY_NAMES, SummaryParams, compute_summary_tensor,
                                sigmoid)

from conftest import full_window_params, random_batch


class TestFeatureAssembly:
    def test_relaxed_layout(self, rng):
        n, d, t, p = 4, 3, 6, 2
        h = rng.standard_normal((n, d, 12))
        s = rng.standard_normal((n, p))
        x = rng.standard_normal((n, d, t))
        m = (rng.random((n, d, t)) < 0.8).astype(float)
        design = assemble_features(h, s, x, m, "relaxed")
        assert design.shape == (n, d * 12 + p + 2 * d)
        # summaries flatten variable-major, then statics, then X_T, M_T
        assert np.array_equal(design[:, : d * 12], h.reshape(n, -1))
        assert np.array_equal(design[:, d * 12: d * 12 + p], s)
        assert np.array_equal(design[:, d * 12 + p: d * 12 + p + d], x[:, :, -1])
        assert np.array_equal(design[:, -d:], m[:, :, -1])

    def test_design_of_the_wrong_width_is_a_data_error(self, rng):
        h = rng.standard_normal((4, 3, 12))
        s = rng.standard_normal((4, 2))
        x = rng.standard_normal((4, 3, 6))
        m = np.ones((4, 3, 6), dtype=bool)
        with pytest.raises(DataError, match="design"):
            assemble_features(h, s, x, m, "relaxed", out=np.empty((4, 3 * 12 + 2 + 5)))

    def test_time_of_prediction_only_layout(self, rng):
        n, d, t, p = 4, 3, 6, 2
        h = rng.standard_normal((n, d, 12))
        s = rng.standard_normal((n, p))
        x = rng.standard_normal((n, d, t))
        m = np.ones((n, d, t))
        design = assemble_features(h, s, x, m, "time_of_prediction_only")
        assert design.shape == (n, p + 2 * d)
        assert np.array_equal(design[:, :p], s)

    def test_flat_series_layout(self, rng):
        n, d, t, p = 4, 3, 6, 2
        h = rng.standard_normal((n, d, 12))
        s = rng.standard_normal((n, p))
        x = rng.standard_normal((n, d, t))
        m = np.ones((n, d, t))
        design = assemble_features(h, s, x, m, "flat_series")
        assert design.shape == (n, p + 2 * d * t)

    @pytest.mark.parametrize("mode", MODES)
    def test_names_align_with_columns(self, rng, mode):
        variables, t = ["hr", "sbp"], 6
        h = rng.standard_normal((4, 2, 12))
        s = rng.standard_normal((4, 1))
        x = rng.standard_normal((4, 2, t))
        m = rng.standard_normal((4, 2, t))
        names = feature_names_for(variables, ["age"], t, mode)
        design = assemble_features(h, s, x, m, mode)
        assert len(names) == design.shape[1]
        kinds = [name.partition(":")[0] for name in names]
        blocks = ["H" if kind in variables else kind for kind in kinds]
        assert [b for b, _ in itertools.groupby(blocks)] == list(LAYOUTS[mode])
        for name, column in zip(names, design.T):
            kind, _, rest = name.partition(":")
            var, _, hour = rest.partition("@")
            if kind == "static":
                expected = s[:, 0]
            elif kind in variables:
                expected = h[:, variables.index(kind), SUMMARY_NAMES.index(rest)]
            else:
                values = x if kind[0] == "x" else m
                expected = values[:, variables.index(var), int(hour or t) - 1]
            assert np.array_equal(column, expected), name
        if mode == "relaxed":
            assert names[0] == "hr:mean"
            assert names[12] == "sbp:mean"
            assert names[24] == "static:age"
            assert names[25] == "xT:hr"
            assert names[-1] == "mT:sbp"


class TestLoss:
    def test_bce_matches_manual(self, rng):
        y = np.array([1.0, 0.0, 1.0])
        y_hat = np.array([0.9, 0.2, 0.6])
        w = np.array([2.0, 1.0, 0.5])
        manual = -(
            2.0 * np.log(0.9) + 1.0 * np.log(0.8) + 0.5 * np.log(0.6)
        ) / 3
        z = np.log(y_hat / (1.0 - y_hat))
        assert weighted_bce_from_logits(z, y, w) == pytest.approx(manual, rel=1e-12)

    def test_logit_form_agrees(self, rng):
        z = rng.standard_normal(50) * 3
        y = (rng.random(50) < 0.5).astype(float)
        w = rng.random(50) + 0.5
        p = sigmoid(z)
        probability_form = -(w * (y * np.log(p) + (1 - y) * np.log1p(-p))).mean()
        assert weighted_bce_from_logits(z, y, w) == pytest.approx(
            probability_form, rel=1e-9
        )

    def test_logit_form_is_stable_at_extremes(self):
        z = np.array([500.0, -500.0])
        y = np.array([1.0, 0.0])
        w = np.ones(2)
        assert weighted_bce_from_logits(z, y, w) == pytest.approx(0.0, abs=1e-12)

    def test_horseshoe_reference_value(self):
        # -log(log(1 + 2/(1 + 1e-8))) evaluated by hand
        value = horseshoe_penalty(np.array([1.0]), tau_hs=1.0)
        assert value == pytest.approx(-0.09404782154843747, abs=1e-12)

    def test_horseshoe_grad_matches_fd(self, rng):
        beta = rng.standard_normal(10)
        grad = horseshoe_penalty_grad(beta, tau_hs=1.0)
        h = 1e-6
        for j in range(10):
            up, down = beta.copy(), beta.copy()
            up[j] += h
            down[j] -= h
            fd = (
                horseshoe_penalty(up, 1.0) - horseshoe_penalty(down, 1.0)
            ) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_horseshoe_prefers_sparse_vectors(self):
        dense = np.full(4, 0.5)
        sparse = np.array([2.0, 0.0, 0.0, 0.0])
        assert np.abs(dense).sum() == np.abs(sparse).sum()
        assert horseshoe_penalty(sparse, 1.0) < horseshoe_penalty(dense, 1.0)


class TestPredict:
    def test_probabilities_in_unit_interval(self, rng):
        batch = random_batch(rng)
        sp = full_window_params(3)
        names = feature_names_for(
            batch.variable_names, batch.static_names, batch.T, "relaxed"
        )
        mp = ModelParams(rng.standard_normal(len(names)), 0.1, names)
        p = predict(batch, sp, mp, "relaxed")
        assert p.shape == (batch.n_examples,)
        assert ((p > 0) & (p < 1)).all()

    def test_zero_coefficients_give_bias_probability(self, rng):
        batch = random_batch(rng)
        sp = full_window_params(3)
        names = feature_names_for(
            batch.variable_names, batch.static_names, batch.T, "relaxed"
        )
        mp = ModelParams(np.zeros(len(names)), -1.0, names)
        assert np.allclose(predict(batch, sp, mp, "relaxed"), sigmoid(-1.0))

    @pytest.mark.parametrize("mode", ["relaxed", "hard", "time_of_prediction_only"])
    def test_forward_gives_the_logits_of_its_design(self, rng, mode):
        batch = random_batch(rng)
        sp = SummaryParams(rng.uniform(0, batch.T, (3, 12)), np.ones(3),
                           -np.ones(3), 0.1)
        names = feature_names_for(batch.variable_names, batch.static_names,
                                  batch.T, mode)
        mp = ModelParams(rng.standard_normal(len(names)), 0.2, names)
        z, design, tangents = forward(batch, sp, mp, mode)
        assert tangents is None
        assert np.array_equal(z, design @ mp.coeffs + mp.bias)
        assert np.array_equal(predict(batch, sp, mp, mode), sigmoid(z))
        config = TrainConfig(mode=mode, alpha=0.1)
        assert total_loss(sp, mp, batch, config) == objective(
            z, batch.y, class_weights(batch.y), mp.coeffs, config)

    @pytest.mark.parametrize("mode", MODES)
    def test_bool_and_float_masks_give_the_same_forward(self, rng, mode):
        batch = random_batch(rng, n=300, d=12, t=48)
        assert batch.M.dtype == bool
        as_floats = replace(batch)
        as_floats.M = batch.M.astype(float)  # past the bool conversion
        sp = SummaryParams(rng.uniform(0, batch.T, (12, 12)), np.ones(12),
                           -np.ones(12), 0.1)
        names = feature_names_for(batch.variable_names, batch.static_names,
                                  batch.T, mode)
        mp = ModelParams(rng.standard_normal(len(names)), 0.2, names)
        z, design, _ = forward(batch, sp, mp, mode)
        z_float, design_float, _ = forward(as_floats, sp, mp, mode)
        assert design.dtype == float
        assert np.array_equal(design, design_float)
        assert np.array_equal(z, z_float)

    @pytest.mark.parametrize("mode, tangent", [(mode, False) for mode in MODES]
                             + [("relaxed", True)])
    def test_design_written_in_place_equals_the_assembled_one(self, rng, mode,
                                                              tangent):
        """forward's kernel writes H into the design it allocates; over several
        row groups that design, its logits and its tangents equal, bit for bit,
        the design assembled from a separately computed H."""
        batch = random_batch(rng, n=300, d=12, t=48)
        sp = SummaryParams(rng.uniform(0, batch.T, (12, 12)), np.ones(12),
                           -np.ones(12), 0.1)
        names = feature_names_for(batch.variable_names, batch.static_names,
                                  batch.T, mode)
        mp = ModelParams(rng.standard_normal(len(names)), 0.2, names)
        z, design, tangents = forward(batch, sp, mp, mode, tangent=tangent)
        H = expected_tangents = None
        if mode in ("relaxed", "hard"):
            H = compute_summary_tensor(batch.X, batch.M, sp, mode, tangent=tangent)
            if tangent:
                H, *expected_tangents = H
        expected = assemble_features(H, batch.S, batch.X, batch.M, mode)
        assert design.flags.c_contiguous
        assert np.array_equal(design, expected)
        assert np.array_equal(z, expected @ mp.coeffs + mp.bias)
        if tangent:
            for got, want in zip(tangents, expected_tangents):
                assert np.array_equal(got, want)
        else:
            assert tangents is None


# model.forward's tracemalloc peak per row of a hard-mode 2000x30x48 batch:
# 6,275 bytes when the kernel returned H and a concatenation copied it into a
# new design, 5,202 when the kernel writes H into the one design array.  The
# bound lies halfway.
FORWARD_BYTES_PER_ROW = 5740


def test_forward_memory_per_row_is_bounded():
    rng = np.random.default_rng(0)
    batch = random_batch(rng, n=2000, d=30, t=48)
    sp = SummaryParams(rng.uniform(0, 48, (30, 12)), np.ones(30), -np.ones(30), 0.1)
    names = feature_names_for(batch.variable_names, batch.static_names, 48, "hard")
    mp = ModelParams(rng.standard_normal(len(names)), 0.2, names)
    tracemalloc.start()
    try:
        forward(batch, sp, mp, "hard")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / batch.n_examples < FORWARD_BYTES_PER_ROW


class TestCheckpoint:
    def _roundtrip(self, tmp_path, rng):
        batch = random_batch(rng)
        sp = SummaryParams(
            C=rng.uniform(0, 12, (3, 12)),
            phi_plus=rng.standard_normal(3),
            phi_minus=rng.standard_normal(3),
            tau_temp=0.1,
        )
        names = feature_names_for(
            batch.variable_names, batch.static_names, batch.T, "relaxed"
        )
        mp = ModelParams(rng.standard_normal(len(names)), 0.33, names)
        stats = fit_normalization(batch)
        config = TrainConfig(seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(
            path, sp, mp, stats, config,
            batch.variable_names, batch.static_names, batch.T, seed=7,
        )
        return (sp, mp, stats, config), load_checkpoint(path)

    def test_roundtrip_is_exact(self, tmp_path, rng):
        (sp, mp, stats, config), loaded = self._roundtrip(tmp_path, rng)
        sp2, mp2, stats2, config2 = (
            loaded["summary_params"], loaded["model_params"],
            loaded["stats"], loaded["config"],
        )
        assert np.array_equal(sp.C, sp2.C)
        assert np.array_equal(sp.phi_plus, sp2.phi_plus)
        assert np.array_equal(mp.coeffs, mp2.coeffs)
        assert mp.bias == mp2.bias
        assert mp.feature_names == mp2.feature_names
        assert np.array_equal(stats.mean, stats2.mean)
        assert config2.seed == config.seed
        assert config2.mode == config.mode

    def test_missing_field_raises(self, tmp_path, rng):
        import json

        self._roundtrip(tmp_path, rng)
        path = tmp_path / "model.ckpt"
        blob = json.loads(path.read_text())
        del blob["coeffs"]
        path.write_text(json.dumps(blob))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not json at all {")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


@pytest.mark.parametrize("call, needle", [
    (lambda batch: ModelParams(np.zeros(3), 0.0, ["a", "b"]),
     "feature_names must align with coeffs"),
    (lambda batch: predict(batch, full_window_params(3),
                           ModelParams(np.zeros(1), 0.0, ["a"]), "soft"),
     "unknown mode 'soft'"),
    (lambda batch: assemble_features(None, batch.S, batch.X, batch.M, "relaxed"),
     "full modes need the summary tensor H"),
], ids=["names_not_coeffs", "predict_unknown_mode", "full_mode_without_H"])
def test_library_guards_are_data_errors(rng, call, needle):
    with pytest.raises(DataError, match=needle):
        call(random_batch(rng))
