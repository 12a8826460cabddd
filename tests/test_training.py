import tracemalloc

import numpy as np
import pytest

import sumlearn.training as training
from sumlearn.errors import DataError, NumericalError
from sumlearn.model import TrainConfig
from sumlearn.training import AdamState, adam_step, init_params, train

from conftest import random_batch


class TestAdam:
    def test_first_step_matches_hand_computation(self):
        # one Adam step from zero state: m = (1-b1)g, v = (1-b2)g^2,
        # update = lr * g/|g| / (sqrt(1) + eps-ish) after bias correction
        value = np.array([1.0, -2.0])
        grad = np.array([0.5, -0.25])
        state = AdamState.like(value)
        new = adam_step(value, grad, state, lr=0.1)
        mhat = 0.1 * grad / (1 - 0.9)
        vhat = 0.001 * grad ** 2 / (1 - 0.999)
        expected = value - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(new, expected, atol=1e-12)

    def test_two_steps_track_reference(self):
        value = np.array([0.3])
        state = AdamState.like(value)
        m = v = 0.0
        ref = 0.3
        for step, g in enumerate([0.2, -0.4], start=1):
            value = adam_step(value, np.array([g]), state, lr=0.01)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9 ** step)) / (
                np.sqrt(v / (1 - 0.999 ** step)) + 1e-8
            )
        assert value[0] == pytest.approx(ref, abs=1e-12)


class TestInit:
    def test_initial_values(self, rng):
        batch = random_batch(rng, n=30)
        config = TrainConfig(tau_temp=0.1)
        sp, mp = init_params(batch, config)
        assert np.all(sp.C == batch.T)
        assert np.all(sp.phi_plus == 1.0)
        assert np.all(sp.phi_minus == -1.0)
        assert np.all(mp.coeffs == 0.0)
        prevalence = batch.y.mean()
        assert mp.bias == pytest.approx(np.log(prevalence / (1 - prevalence)))


def tiny_config(**kwargs):
    base = dict(
        learning_rate=0.05, lr_summary=0.1, batch_size=16, max_epochs=30,
        eval_interval=10, patience=5, alpha=1e-4, tau_temp=0.1,
        mode="relaxed", seed=0,
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrain:
    def test_loss_decreases(self, rng):
        tr = random_batch(rng, n=60, d=2, t=8)
        tr.y = (tr.X[:, 0, -3:].mean(-1) > 0).astype(float)
        va = random_batch(rng, n=30, d=2, t=8)
        va.y = (va.X[:, 0, -3:].mean(-1) > 0).astype(float)
        fit = train(tr, va, tiny_config())
        assert fit.history[-1].train_loss < fit.history[0].train_loss

    def test_windows_stay_in_range(self, rng):
        tr = random_batch(rng, n=40, d=2, t=8)
        va = random_batch(rng, n=20, d=2, t=8)
        fit = train(tr, va, tiny_config(lr_summary=5.0))
        assert (fit.summary_params.C >= 0).all()
        assert (fit.summary_params.C <= tr.T).all()

    def test_seed_determinism(self, rng):
        tr = random_batch(rng, n=40, d=2, t=8)
        va = random_batch(rng, n=20, d=2, t=8)
        fit1 = train(tr, va, tiny_config(seed=5))
        fit2 = train(tr, va, tiny_config(seed=5))
        assert np.array_equal(fit1.model_params.coeffs, fit2.model_params.coeffs)
        assert np.array_equal(fit1.summary_params.C, fit2.summary_params.C)
        assert fit1.history_jsonl() == fit2.history_jsonl()

    def test_different_seed_changes_trajectory(self, rng):
        tr = random_batch(rng, n=40, d=2, t=8)
        va = random_batch(rng, n=20, d=2, t=8)
        fit1 = train(tr, va, tiny_config(seed=1))
        fit2 = train(tr, va, tiny_config(seed=2))
        assert not np.array_equal(
            fit1.model_params.coeffs, fit2.model_params.coeffs
        )

    def test_early_stopping_respects_patience(self, rng):
        tr = random_batch(rng, n=40, d=2, t=8)
        va = random_batch(rng, n=20, d=2, t=8)
        config = tiny_config(max_epochs=2000, eval_interval=5, patience=3)
        fit = train(tr, va, config)
        assert fit.stopped_epoch < 2000

    def test_best_params_have_best_val_auc(self, rng):
        tr = random_batch(rng, n=60, d=2, t=8)
        tr.y = (tr.X[:, 0, -3:].mean(-1) > 0).astype(float)
        va = random_batch(rng, n=30, d=2, t=8)
        va.y = (va.X[:, 0, -3:].mean(-1) > 0).astype(float)
        fit = train(tr, va, tiny_config())
        best_in_history = max(h.val_auc for h in fit.history)
        assert fit.best_val_auc == pytest.approx(best_in_history)

    def test_history_is_jsonl(self, rng):
        import json

        tr = random_batch(rng, n=40, d=2, t=8)
        va = random_batch(rng, n=20, d=2, t=8)
        fit = train(tr, va, tiny_config())
        lines = fit.history_jsonl().strip().split("\n")
        assert len(lines) == len(fit.history)
        first = json.loads(lines[0])
        assert set(first) == {"epoch", "train_loss", "val_loss", "val_auc"}

    def test_non_finite_window_raises_numerical_error(self, rng, monkeypatch):
        real = training.loss_and_gradients

        def nan_window_grads(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            grads["C"][1, 3] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "loss_and_gradients", nan_window_grads)
        tr = random_batch(rng, n=40, d=2, t=8)
        va = random_batch(rng, n=20, d=2, t=8)
        with pytest.raises(NumericalError, match=r"block: C, entry \(1, 3\)"):
            train(tr, va, tiny_config(max_epochs=10, eval_interval=5))

    @pytest.mark.parametrize("block, entry", [
        ("phi_plus", (1,)), ("phi_minus", (0,)), ("coeffs", (3,)),
    ])
    def test_non_finite_update_names_its_block(self, rng, monkeypatch, block, entry):
        real = training.loss_and_gradients

        def nan_grads(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            grads[block][entry] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "loss_and_gradients", nan_grads)
        tr = random_batch(rng, n=40, d=2, t=8)
        va = random_batch(rng, n=20, d=2, t=8)
        with pytest.raises(NumericalError, match=rf"block: {block}, entry \({entry[0]},\)"):
            train(tr, va, tiny_config(max_epochs=10, eval_interval=5))

    def test_one_class_in_training_labels_is_a_data_error(self, rng):
        tr = random_batch(rng, n=40, d=2, t=8)
        tr.y[:] = 1.0
        va = random_batch(rng, n=20, d=2, t=8)
        with pytest.raises(DataError, match="training labels contain a single class"):
            train(tr, va, tiny_config())

    def test_non_finite_train_loss_stops_training(self, rng, monkeypatch):
        monkeypatch.setattr(training, "total_loss", lambda *args, **kwargs: np.inf)
        tr = random_batch(rng, n=40, d=2, t=8)
        va = random_batch(rng, n=20, d=2, t=8)
        with pytest.raises(NumericalError,
                           match=r"^non-finite train loss at epoch 5; training stopped$"):
            train(tr, va, tiny_config(max_epochs=10, eval_interval=5))


# The tracemalloc peak of one hard-mode epoch on 3000x30x48 training rows,
# with an evaluation: 21.4 MB when the kernel returned H and a concatenation
# copied it into the design, and the last minibatch lived through the
# evaluation; 16.3 MB with only H written into the design, 19.0 MB with only
# the minibatch released, 13.9 MB with both.  The bound lies halfway between
# both and the better of one, so that it holds each of them.
TRAIN_PEAK_BYTES = 15.1e6


def test_hard_mode_train_memory_is_bounded():
    rng = np.random.default_rng(0)
    tr = random_batch(rng, n=3000, d=30, t=48)
    va = random_batch(rng, n=750, d=30, t=48)
    config = TrainConfig(mode="hard", max_epochs=1, eval_interval=1,
                         batch_size=256, learning_rate=0.01)
    tracemalloc.start()
    try:
        train(tr, va, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < TRAIN_PEAK_BYTES
