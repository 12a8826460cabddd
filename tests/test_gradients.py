import numpy as np
import pytest

from sumlearn.errors import NumericalError
from sumlearn.gradients import BLOCKS, finite_difference_check, loss_and_gradients
from sumlearn.model import ModelParams, TrainConfig, feature_names_for, total_loss
from sumlearn.summaries import (
    BLOCK_BYTES,
    FIRST_MEASURED,
    LAST_MEASURED,
    SummaryParams,
)

from conftest import random_batch


def make_setup(rng, n=8, d=3, t=12, mode="relaxed"):
    batch = random_batch(rng, n=n, d=d, t=t)
    # keep every window non-degenerate so finite differences can resolve
    # the analytic gradient
    batch.M[:, :, -2:] = 1.0
    params = SummaryParams(
        C=rng.uniform(2.5, t - 1.5, (d, 12)),
        phi_plus=rng.standard_normal(d) * 0.5 + 0.5,
        phi_minus=rng.standard_normal(d) * 0.5 - 0.5,
        tau_temp=0.1,
    )
    names = feature_names_for(batch.variable_names, batch.static_names, t, mode)
    model_params = ModelParams(
        coeffs=0.5 * rng.standard_normal(len(names)),
        bias=0.2,
        feature_names=names,
    )
    config = TrainConfig(alpha=1e-3, tau_temp=0.1, mode=mode)
    return batch, params, model_params, config


class TestFiniteDifference:
    def test_relaxed_gradients_match(self, rng):
        batch, sp, mp, config = make_setup(rng)
        report = finite_difference_check(sp, mp, batch, config, seed=1)
        assert report.max_rel_error < 1e-4
        assert report.passed()

    def test_multiple_seeds(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            batch, sp, mp, config = make_setup(rng)
            report = finite_difference_check(sp, mp, batch, config, seed=seed)
            assert report.max_rel_error < 1e-4, (
                f"seed {seed}: {report.max_rel_error}"
            )

    def test_report_carries_worst_entry(self, rng):
        batch, sp, mp, config = make_setup(rng)
        report = finite_difference_check(sp, mp, batch, config, seed=2)
        assert report.worst is not None
        assert report.worst.rel_error == report.max_rel_error
        assert len(report.entries) > 0


class TestMultiBlock:
    """The kernel walks the batch in row blocks; these batches span three."""

    @pytest.mark.parametrize("n, d, t", [(200, 4, 24), (25, 8, 96)])
    def test_relaxed_gradients_match_across_blocks(self, rng, n, d, t):
        rows_per_block = max(1, BLOCK_BYTES // (8 * d * t))
        assert -(-n // rows_per_block) >= 3
        batch, sp, mp, config = make_setup(rng, n=n, d=d, t=t)
        report = finite_difference_check(sp, mp, batch, config, seed=3)
        assert report.max_rel_error < 1e-4, report.worst


class TestFusedStep:
    """A relaxed step takes H and its tangents from one kernel pass."""

    @pytest.mark.parametrize("mode, expected", [
        ("relaxed", [True]), ("hard", [False]),
    ], ids=["relaxed", "hard"])
    def test_one_kernel_call_per_step(self, rng, kernel_calls, mode, expected):
        batch, sp, mp, config = make_setup(rng, n=200, d=4, t=24, mode=mode)
        loss_and_gradients(sp, mp, batch, config)
        assert kernel_calls == expected

    @pytest.mark.parametrize("mode", ["relaxed", "hard"])
    def test_loss_matches_total_loss_across_blocks(self, rng, mode):
        batch, sp, mp, config = make_setup(rng, n=200, d=4, t=24, mode=mode)
        loss, _ = loss_and_gradients(sp, mp, batch, config)
        assert loss == pytest.approx(total_loss(sp, mp, batch, config), rel=1e-12)


class TestGradientStructure:
    def test_shapes(self, rng):
        batch, sp, mp, config = make_setup(rng)
        loss, grads = loss_and_gradients(sp, mp, batch, config)
        assert np.isfinite(loss)
        assert list(grads) == list(BLOCKS)
        assert grads["coeffs"].shape == mp.coeffs.shape
        assert np.ndim(grads["bias"]) == 0
        assert grads["C"].shape == sp.C.shape
        assert grads["phi_plus"].shape == sp.phi_plus.shape
        assert grads["phi_minus"].shape == sp.phi_minus.shape

    def test_non_differentiable_summaries_have_zero_window_grad(self, rng):
        batch, sp, mp, config = make_setup(rng)
        _, grads = loss_and_gradients(sp, mp, batch, config)
        assert np.all(grads["C"][:, FIRST_MEASURED] == 0)
        assert np.all(grads["C"][:, LAST_MEASURED] == 0)

    def test_hard_mode_freezes_summary_params(self, rng):
        batch, sp, mp, config = make_setup(rng, mode="hard")
        _, grads = loss_and_gradients(sp, mp, batch, config)
        assert np.all(grads["C"] == 0)
        assert np.all(grads["phi_plus"] == 0)
        assert np.all(grads["phi_minus"] == 0)

    def test_zero_coefficients_give_zero_window_grad(self, rng):
        batch, sp, mp, config = make_setup(rng)
        mp.coeffs[:] = 0.0
        _, grads = loss_and_gradients(sp, mp, batch, config)
        assert np.all(grads["C"] == 0)
        assert np.all(grads["phi_plus"] == 0)

    def test_non_finite_loss_names_the_design_column(self, rng):
        batch, sp, mp, config = make_setup(rng)
        batch.S[2, 1] = np.inf
        with pytest.raises(NumericalError, match="design column: static:s1"):
            loss_and_gradients(sp, mp, batch, config)

    def test_non_finite_loss_of_a_finite_design_says_so(self, rng):
        batch, sp, mp, config = make_setup(rng)
        mp.coeffs[:] = 1e308  # the logits overflow, the design does not
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match=r"non-finite loss \(design matrix finite\)"):
            loss_and_gradients(sp, mp, batch, config)

    def test_loss_matches_total_loss(self, rng):
        batch, sp, mp, config = make_setup(rng)
        loss, _ = loss_and_gradients(sp, mp, batch, config)
        assert loss == pytest.approx(
            total_loss(sp, mp, batch, config), rel=1e-12
        )


class TestScalarConvergence:
    def test_window_gradient_converges_under_fd_refinement(self, rng):
        """Central differences at shrinking step sizes approach the
        analytic d/dC, confirming the epsilon cross-terms are exact."""
        batch, sp, mp, config = make_setup(rng)
        d, i = 0, 1  # a variance cell, the hardest case
        _, grads = loss_and_gradients(sp, mp, batch, config)
        analytic = grads["C"][d, i]
        errors = []
        for h in (1e-4, 1e-5):
            up, down = sp.copy(), sp.copy()
            up.C[d, i] += h
            down.C[d, i] -= h
            fd = (
                total_loss(up, mp, batch, config)
                - total_loss(down, mp, batch, config)
            ) / (2 * h)
            errors.append(abs(fd - analytic))
        assert errors[0] < 1e-6 * max(1.0, abs(analytic))
