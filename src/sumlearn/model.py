"""Design-matrix assembly, logistic prediction, loss terms, checkpoints."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import summaries
from .data import NormalizationStats, class_weights
from .errors import CheckpointFormatError, DataError, check_finite_fields
from .summaries import N_SUMMARIES, SUMMARY_NAMES, compute_summary_tensor, sigmoid

EPS_HS = 1e-8

# mode -> the column blocks of its design matrix, in order: the summaries H
# (variable-major), the statics, and the series either at the time of
# prediction (xT, mT) or at every hour (x, m)
LAYOUTS = {
    "relaxed": ("H", "static", "xT", "mT"),
    "hard": ("H", "static", "xT", "mT"),
    "time_of_prediction_only": ("static", "xT", "mT"),
    "flat_series": ("static", "x", "m"),
}
MODES = tuple(LAYOUTS)

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
        check_finite_fields(self)
        _layout(self.mode)
        if self.penalty not in PENALTIES:
            raise DataError(f"unknown penalty {self.penalty!r}")
        for name in ("learning_rate", "tau_hs", "tau_temp"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        for name in ("alpha", "lr_summary"):  # lr_summary may be None
            if (getattr(self, name) or 0) < 0:
                raise DataError(f"{name} must be non-negative")
        for name in ("batch_size", "max_epochs", "eval_interval"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")

    @property
    def summary_learning_rate(self):
        return self.learning_rate if self.lr_summary is None else self.lr_summary


def _layout(mode):
    """LAYOUTS[mode]; an unknown mode is a DataError."""
    if mode not in LAYOUTS:
        raise DataError(f"unknown mode {mode!r}; expected one of {MODES}")
    return LAYOUTS[mode]


def feature_columns(variable_names, static_names, T, mode):
    """One (block, name, index) per column of the assembled design matrix, in
    order: the index is the summary index of an H column, the hour of an x
    or m column (T for xT and mT), and None for a static column."""
    hours = range(1, T + 1)
    indices = {"H": range(N_SUMMARIES), "xT": (T,), "mT": (T,), "x": hours, "m": hours}
    columns = []
    for block in _layout(mode):
        if block == "static":
            columns += [(block, s, None) for s in static_names]
        else:
            columns += [(block, v, i) for v in variable_names for i in indices[block]]
    return columns


def feature_names_for(variable_names, static_names, T, mode):
    """Column names of the assembled design matrix, in order."""
    return [f"{name}:{SUMMARY_NAMES[index]}" if block == "H"
            else f"{block}:{name}@{index}" if block in ("x", "m")
            else f"{block}:{name}"
            for block, name, index in feature_columns(variable_names,
                                                      static_names, T, mode)]


def assemble_features(H, S, X, M, mode):
    """Design matrix (N, F): the blocks of LAYOUTS[mode], in order."""
    N = X.shape[0]
    if "H" in _layout(mode) and (H is None or H.shape[0] != N):
        raise DataError("full modes need the summary tensor H of the N examples")
    blocks = {"H": H, "static": S, "xT": X[:, :, -1], "mT": M[:, :, -1], "x": X, "m": M}
    return np.concatenate([blocks[b].reshape(N, -1) for b in LAYOUTS[mode]], axis=1)


def forward(batch, summary_params, model_params, mode, tangent=False):
    """(z, design, tangents): the logits of a normalized batch, the design
    matrix they come from, and with ``tangent`` (relaxed mode only) the
    (dH/dC, dH/dphi) of the same kernel pass, else None."""
    H = tangents = None
    if "H" in _layout(mode):
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


# penalty -> (value, gradient), each of (coeffs, tau_hs)
PENALTIES = {
    "horseshoe": (horseshoe_penalty, horseshoe_penalty_grad),
    "l2": (lambda coeffs, tau_hs: float((np.asarray(coeffs) ** 2).sum()),
           lambda coeffs, tau_hs: 2.0 * np.asarray(coeffs)),
    "none": (lambda coeffs, tau_hs: 0.0,
             lambda coeffs, tau_hs: np.zeros_like(coeffs)),
}


def objective(z, y, weights, coeffs, config):
    """Weighted BCE of the logits z plus alpha * penalty of the coefficients."""
    penalty = PENALTIES[config.penalty][0](coeffs, config.tau_hs)
    return weighted_bce_from_logits(z, y, weights) + config.alpha * penalty


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
_STATS_FIELDS = tuple(f.name for f in fields(NormalizationStats)
                      if f.name != "warnings")


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
            **{key: getattr(stats, key).tolist() for key in _STATS_FIELDS},
        },
        "config": asdict(config),
        "seed": seed,
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def _numbers(value):
    """Whether a JSON value is a number (not a bool) or a list of such values,
    at any depth."""
    if isinstance(value, list):
        return all(map(_numbers, value))
    return type(value) in (int, float)


def _array(path, doc, key, shape, positive=False):
    """doc[key] as a finite float array of the given shape (with
    ``positive``, of positive entries)."""
    try:
        value = np.array(doc[key], dtype=float) if _numbers(doc[key]) else None
    except (ValueError, OverflowError):  # ragged, or an int beyond float
        value = None
    if value is None or value.shape != shape:
        raise CheckpointFormatError(f"{path}: {key} is not a {shape} array")
    if not np.isfinite(value).all():
        raise CheckpointFormatError(f"{path}: {key} is not finite")
    if positive and not (value > 0).all():
        raise CheckpointFormatError(f"{path}: {key} is not positive")
    return value


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _value(path, name, value, kind, positive=False):
    """``value``, checked to be a JSON value of field type ``kind`` ('int',
    'float' or 'str'; an int passes as a float, a bool as neither; a float
    must be finite)."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise CheckpointFormatError(f"{path}: {name} = {value!r} is not {kind}")
    if kind == "float" and not abs(value) <= sys.float_info.max:  # also a huge int
        raise CheckpointFormatError(f"{path}: {name} = {value!r} is not finite")
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
    if isinstance(doc["version"], bool) or doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported version {doc['version']!r}"
        )
    for key in ("normalization", "config"):
        if not isinstance(doc[key], dict):
            raise CheckpointFormatError(f"{path}: {key} is not a JSON object")
    norm = doc["normalization"]
    for key in ("variable_names", "static_names", *_STATS_FIELDS):
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
    try:
        config = TrainConfig(**doc["config"])
    except DataError as exc:
        raise CheckpointFormatError(f"{path}: config: {exc}") from None
    T = _value(path, "T", doc["T"], "int", positive=True)
    variable_names, static_names = norm["variable_names"], norm["static_names"]
    D, P = len(variable_names), len(static_names)
    for key, size in (("D", D), ("I", N_SUMMARIES), ("P", P)):
        if _value(path, key, doc[key], "int") != size:
            raise CheckpointFormatError(f"{path}: {key} = {doc[key]}, expected {size}")
    # flat_series has 2 T names per variable, so no T above the stored count
    # can match; capping T there gives the same verdict without building the
    # names of a huge T
    F = len(doc["feature_names"])
    if doc["feature_names"] != feature_names_for(variable_names, static_names,
                                                 min(T, F), config.mode):
        raise CheckpointFormatError(
            f"{path}: feature_names are not the {config.mode} design columns "
            "of the variable and static names")
    stats = NormalizationStats(*(
        _array(path, norm, key, (P,) if key.startswith("static_") else (D,),
               positive=key.endswith("std"))
        for key in _STATS_FIELDS
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
        "config": config,
        "variable_names": list(variable_names),
        "static_names": list(static_names),
        "T": T,
        "seed": _value(path, "seed", doc["seed"], "int"),
    }
