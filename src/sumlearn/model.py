"""Design-matrix assembly, logistic prediction, loss terms, checkpoints."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import summaries
from .data import NormalizationStats, class_weights
from .errors import CheckpointFormatError, DataError
from .summaries import N_SUMMARIES, SUMMARY_NAMES, compute_summary_tensor, sigmoid

EPS_HS = 1e-8

MODES = ("relaxed", "hard", "time_of_prediction_only", "flat_series")
PENALTIES = ("horseshoe", "l2", "none")

CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """Classifier coefficients over the assembled design matrix."""

    coeffs: np.ndarray  # (F,)
    bias: float
    feature_names: list

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if len(self.feature_names) != self.coeffs.shape[0]:
            raise DataError("feature_names must align with coeffs")

    @property
    def n_features(self):
        return self.coeffs.shape[0]

    def copy(self):
        return ModelParams(self.coeffs.copy(), self.bias, list(self.feature_names))


@dataclass
class TrainConfig:
    """Optimizer and regularization settings."""

    learning_rate: float = 1e-5
    lr_summary: float = None  # falls back to learning_rate
    batch_size: int = 256
    max_epochs: int = 5000
    eval_interval: int = 100
    patience: int = 50
    alpha: float = 1e-5
    tau_hs: float = 1.0
    tau_temp: float = 0.1
    mode: str = "relaxed"
    penalty: str = "horseshoe"
    seed: int = 0
    val_fraction: float = 0.15

    def __post_init__(self):
        if self.mode not in MODES:
            raise DataError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.penalty not in PENALTIES:
            raise DataError(f"unknown penalty {self.penalty!r}")
        for name in ("learning_rate", "tau_hs", "tau_temp"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        if self.alpha < 0:
            raise DataError("alpha must be non-negative")
        for name in ("batch_size", "max_epochs", "eval_interval"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")

    @property
    def summary_learning_rate(self):
        return self.learning_rate if self.lr_summary is None else self.lr_summary


def feature_names_for(variable_names, static_names, T, mode):
    """Column names of the assembled design matrix, in order."""
    names = []
    if mode in ("relaxed", "hard"):
        for var in variable_names:
            for s in SUMMARY_NAMES:
                names.append(f"{var}:{s}")
    names.extend(f"static:{s}" for s in static_names)
    if mode == "flat_series":
        for var in variable_names:
            names.extend(f"x:{var}@{t}" for t in range(1, T + 1))
        for var in variable_names:
            names.extend(f"m:{var}@{t}" for t in range(1, T + 1))
    else:
        names.extend(f"xT:{var}" for var in variable_names)
        names.extend(f"mT:{var}" for var in variable_names)
    return names


def assemble_features(H, S, X, M, mode):
    """Design matrix (N, F) in the fixed column order.

    full modes:              [H (d-major, i-minor), S, X_T, M_T]
    time_of_prediction_only: [S, X_T, M_T]
    flat_series:             [S, X flattened, M flattened]
    """
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}")
    N = X.shape[0]
    cols = []
    if mode in ("relaxed", "hard"):
        if H is None:
            raise DataError("summary tensor required for full modes")
        if H.shape[0] != N:
            raise DataError("H and X disagree on the number of examples")
        cols.append(H.reshape(N, -1))
    cols.append(S)
    if mode == "flat_series":
        cols.append(X.reshape(N, -1))
        cols.append(M.reshape(N, -1))
    else:
        cols.append(X[:, :, -1])
        cols.append(M[:, :, -1])
    return np.concatenate(cols, axis=1)


def forward(batch, summary_params, model_params, mode, tangent=False):
    """(z, design, tangents): the logits of a normalized batch, the design
    matrix they come from, and with ``tangent`` (relaxed mode only) the
    (dH/dC, dH/dphi) of the same kernel pass, else None."""
    H = tangents = None
    if mode in ("relaxed", "hard"):
        H = compute_summary_tensor(batch.X, batch.M, summary_params, mode,
                                   tangent=tangent)
        if tangent:
            H, tangents = H[0], H[1:]
    design = assemble_features(H, batch.S, batch.X, batch.M, mode)
    return design @ model_params.coeffs + model_params.bias, design, tangents


def predict(batch, summary_params, model_params, mode):
    """End-to-end predicted probabilities for a normalized batch."""
    return sigmoid(forward(batch, summary_params, model_params, mode)[0])


def weighted_bce_from_logits(z, y, weights):
    """Weighted BCE computed from logits via log-sigmoid (overflow-safe)."""
    # -log sigmoid(z) = softplus(-z); -log(1 - sigmoid(z)) = softplus(z)
    terms = weights * (y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z))
    return terms.mean()


def horseshoe_penalty(coeffs, tau_hs):
    """Omega(beta) = sum_j -log(log(1 + 2 tau^2 / (beta_j^2 + eps)))."""
    b2 = np.asarray(coeffs) ** 2 + EPS_HS
    return float(-np.log(np.log1p(2.0 * tau_hs**2 / b2)).sum())


def horseshoe_penalty_grad(coeffs, tau_hs):
    b2 = np.asarray(coeffs) ** 2 + EPS_HS
    u = 1.0 + 2.0 * tau_hs**2 / b2
    return 4.0 * tau_hs**2 * coeffs / (b2**2 * u * np.log(u))


def penalty_value(coeffs, config):
    if config.penalty == "horseshoe":
        return horseshoe_penalty(coeffs, config.tau_hs)
    if config.penalty == "l2":
        return float((np.asarray(coeffs) ** 2).sum())
    return 0.0


def penalty_grad(coeffs, config):
    if config.penalty == "horseshoe":
        return horseshoe_penalty_grad(coeffs, config.tau_hs)
    if config.penalty == "l2":
        return 2.0 * np.asarray(coeffs)
    return np.zeros_like(coeffs)


def objective(z, y, weights, coeffs, config):
    """Weighted BCE of the logits z plus alpha * penalty of the coefficients."""
    return (weighted_bce_from_logits(z, y, weights)
            + config.alpha * penalty_value(coeffs, config))


def total_loss(summary_params, model_params, batch, config, weights=None):
    """The objective of a batch; the scalar the gradients target."""
    if weights is None:
        weights = class_weights(batch.y)
    z = forward(batch, summary_params, model_params, config.mode)[0]
    return objective(z, batch.y, weights, model_params.coeffs, config)


# ---------------------------------------------------------------------------
# checkpoint document
# ---------------------------------------------------------------------------

_CKPT_FIELDS = (
    "version", "D", "I", "P", "T", "feature_names", "coeffs", "bias",
    "C", "phi_plus", "phi_minus", "tau_temp", "normalization", "config", "seed",
)


def save_checkpoint(path, summary_params, model_params, stats, config,
                    variable_names, static_names, T, seed):
    doc = {
        "version": CHECKPOINT_VERSION,
        "D": len(variable_names),
        "I": N_SUMMARIES,
        "P": len(static_names),
        "T": T,
        "feature_names": list(model_params.feature_names),
        "coeffs": model_params.coeffs.tolist(),
        "bias": model_params.bias,
        "C": summary_params.C.tolist(),
        "phi_plus": summary_params.phi_plus.tolist(),
        "phi_minus": summary_params.phi_minus.tolist(),
        "tau_temp": summary_params.tau_temp,
        "normalization": {
            "variable_names": list(variable_names),
            "static_names": list(static_names),
            "mean": stats.mean.tolist(),
            "std": stats.std.tolist(),
            "static_mean": stats.static_mean.tolist(),
            "static_std": stats.static_std.tolist(),
            "population_median": stats.population_median.tolist(),
        },
        "config": asdict(config),
        "seed": seed,
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def _array(path, doc, key, shape):
    """doc[key] as a float array of the given shape."""
    try:
        value = np.array(doc[key], dtype=float)
    except (TypeError, ValueError):
        value = None
    if value is None or value.shape != shape:
        raise CheckpointFormatError(f"{path}: {key} is not a {shape} array")
    return value


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _value(path, name, value, kind, positive=False):
    """``value``, checked to be a JSON value of field type ``kind`` ('int',
    'float' or 'str'; an int passes as a float, a bool as neither)."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise CheckpointFormatError(f"{path}: {name} = {value!r} is not {kind}")
    if positive and not value > 0:
        raise CheckpointFormatError(f"{path}: {name} = {value!r} is not positive")
    return value


def load_checkpoint(path):
    """Load a checkpoint document; returns a dict of reconstructed objects."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: undecodable or not JSON
        raise CheckpointFormatError(f"{path}: not readable JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointFormatError(f"{path}: not a JSON object")
    missing = [f for f in _CKPT_FIELDS if f not in doc]
    if missing:
        raise CheckpointFormatError(f"{path}: missing fields {missing}")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported version {doc['version']!r}"
        )
    for key in ("normalization", "config"):
        if not isinstance(doc[key], dict):
            raise CheckpointFormatError(f"{path}: {key} is not a JSON object")
    norm = doc["normalization"]
    for key in ("variable_names", "static_names", "mean", "std",
                "static_mean", "static_std", "population_median"):
        if key not in norm:
            raise CheckpointFormatError(f"{path}: normalization missing {key!r}")
    for name, names in (("feature_names", doc["feature_names"]),
                        ("variable_names", norm["variable_names"]),
                        ("static_names", norm["static_names"])):
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise CheckpointFormatError(f"{path}: {name} is not a list of names")
    config_keys = {f.name for f in fields(TrainConfig)}
    if set(doc["config"]) != config_keys:
        raise CheckpointFormatError(
            f"{path}: config keys differ from TrainConfig: unknown "
            f"{sorted(set(doc['config']) - config_keys)}, "
            f"missing {sorted(config_keys - set(doc['config']))}"
        )
    for f in fields(TrainConfig):  # lr_summary may also be null
        value = doc["config"][f.name]
        if value is not None or f.default is not None:
            _value(path, f"config.{f.name}", value, f.type)
    D, P = len(norm["variable_names"]), len(norm["static_names"])
    stats = NormalizationStats(*(
        _array(path, norm, key, shape) for key, shape in (
            ("mean", (D,)), ("std", (D,)), ("static_mean", (P,)),
            ("static_std", (P,)), ("population_median", (D,)),
        )
    ))
    summary_params = summaries.SummaryParams(
        _array(path, doc, "C", (D, N_SUMMARIES)),
        _array(path, doc, "phi_plus", (D,)),
        _array(path, doc, "phi_minus", (D,)),
        float(_value(path, "tau_temp", doc["tau_temp"], "float", positive=True)),
    )
    model_params = ModelParams(
        _array(path, doc, "coeffs", (len(doc["feature_names"]),)),
        float(_value(path, "bias", doc["bias"], "float")), list(doc["feature_names"]),
    )
    return {
        "summary_params": summary_params,
        "model_params": model_params,
        "stats": stats,
        "config": TrainConfig(**doc["config"]),
        "variable_names": list(norm["variable_names"]),
        "static_names": list(norm["static_names"]),
        "T": _value(path, "T", doc["T"], "int", positive=True),
        "seed": doc["seed"],
    }
