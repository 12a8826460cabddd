"""Minibatch Adam over the joint parameter set with early stopping."""

from __future__ import annotations

import json

from dataclasses import asdict, dataclass

import numpy as np

from .data import class_weights
from .errors import DataError, NumericalError
from .evaluate import auc
from .gradients import loss_and_gradients
from .model import ModelParams, feature_names_for, predict, total_loss
from .summaries import N_SUMMARIES, SummaryParams

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, value):
        arr = np.asarray(value, dtype=float)
        return cls(np.zeros_like(arr), np.zeros_like(arr))


def adam_step(value, grad, state, lr):
    """One bias-corrected Adam update; returns the new value."""
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grad**2
    m_hat = state.m / (1 - ADAM_BETA1**state.t)
    v_hat = state.v / (1 - ADAM_BETA2**state.t)
    return value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class HistoryPoint:
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float


@dataclass
class FitResult:
    summary_params: SummaryParams  # final
    model_params: ModelParams  # final
    best_summary_params: SummaryParams
    best_model_params: ModelParams
    history: list
    stopped_epoch: int
    seed: int
    best_val_auc: float

    def history_jsonl(self):
        return "\n".join(json.dumps(asdict(p)) for p in self.history) + "\n"


def init_params(batch, config):
    """Full-window, zero-coefficient initialization.

    C starts at T (entire series included); thresholds at +/- 1 normalized
    SD; coefficients at zero with the bias at the logit of the train
    prevalence.
    """
    D, T, P = batch.n_variables, batch.T, batch.n_static
    C = np.full((D, N_SUMMARIES), float(T))
    summary_params = SummaryParams(
        C, np.full(D, 1.0), np.full(D, -1.0), config.tau_temp
    )
    names = feature_names_for(
        batch.variable_names, batch.static_names, T, config.mode
    )
    prevalence = batch.y.mean()
    if not 0 < prevalence < 1:
        raise DataError("training labels contain a single class")
    bias = float(np.log(prevalence / (1 - prevalence)))
    model_params = ModelParams(np.zeros(len(names)), bias, names)
    return summary_params, model_params


def _evaluate(summary_params, model_params, batch, config, weights):
    loss = total_loss(summary_params, model_params, batch, config, weights=weights)
    scores = predict(batch, summary_params, model_params, config.mode)
    return loss, auc(scores, batch.y)


def _check_windows(C, T, epoch):
    """Raise NumericalError naming the first window length outside [0, T]
    (after clipping, only a NaN can be)."""
    outside = ~((C >= 0) & (C <= T))
    if outside.any():
        d, i = np.argwhere(outside)[0]
        raise NumericalError(
            f"window length left [0, {T}] at epoch {epoch} "
            f"(block: C, entry ({d}, {i}) = {C[d, i]})"
        )


def train(batch_train, batch_val, config):
    """Seeded minibatch training; returns best-by-validation parameters.

    Minibatch class weights use the global train-split frequencies so the
    objective is stationary across batches.  C is clamped to [0, T] after
    every step.  A non-finite loss or window length aborts with
    NumericalError.
    """
    rng = np.random.default_rng(config.seed)
    summary_params, model_params = init_params(batch_train, config)
    T = batch_train.T
    N = batch_train.n_examples
    omega = class_weights(batch_train.y)
    omega_val = class_weights(batch_val.y)

    states = {
        "coeffs": AdamState.like(model_params.coeffs),
        "bias": AdamState.like(0.0),
        "C": AdamState.like(summary_params.C),
        "phi_plus": AdamState.like(summary_params.phi_plus),
        "phi_minus": AdamState.like(summary_params.phi_minus),
    }
    lr = config.learning_rate
    lr_sum = config.summary_learning_rate

    history = []
    best_val_auc = -np.inf
    best_sp = summary_params.copy()
    best_mp = model_params.copy()
    evals_since_improvement = 0
    stopped_epoch = 0

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(N)
        for start in range(0, N, config.batch_size):
            idx = perm[start : start + config.batch_size]
            mb = batch_train.take(idx)
            loss, grads = loss_and_gradients(
                summary_params, model_params, mb, config, weights=omega[idx]
            )
            model_params.coeffs = adam_step(
                model_params.coeffs, grads.d_coeffs[:-1], states["coeffs"], lr
            )
            model_params.bias = float(
                adam_step(model_params.bias, grads.d_coeffs[-1], states["bias"], lr)
            )
            summary_params.C = np.clip(
                adam_step(summary_params.C, grads.d_C, states["C"], lr_sum), 0.0, T
            )
            _check_windows(summary_params.C, T, epoch)
            summary_params.phi_plus = adam_step(
                summary_params.phi_plus, grads.d_phi_plus, states["phi_plus"], lr_sum
            )
            summary_params.phi_minus = adam_step(
                summary_params.phi_minus, grads.d_phi_minus,
                states["phi_minus"], lr_sum,
            )
        stopped_epoch = epoch
        if epoch % config.eval_interval == 0 or epoch == config.max_epochs:
            train_loss = total_loss(
                summary_params, model_params, batch_train, config, weights=omega
            )
            if not np.isfinite(train_loss):
                raise NumericalError(
                    f"non-finite train loss at epoch {epoch}; "
                    "last good checkpoint retained in best parameters"
                )
            val_loss, val_auc = _evaluate(
                summary_params, model_params, batch_val, config, omega_val
            )
            history.append(
                HistoryPoint(epoch, float(train_loss), float(val_loss), float(val_auc))
            )
            if val_auc > best_val_auc:
                best_val_auc = val_auc
                best_sp = summary_params.copy()
                best_mp = model_params.copy()
                evals_since_improvement = 0
            else:
                evals_since_improvement += 1
                if evals_since_improvement >= config.patience:
                    break

    return FitResult(
        summary_params=summary_params,
        model_params=model_params,
        best_summary_params=best_sp,
        best_model_params=best_mp,
        history=history,
        stopped_epoch=stopped_epoch,
        seed=config.seed,
        best_val_auc=float(best_val_auc),
    )
