"""Learnable, human-interpretable summaries of masked clinical time series."""

from .data import apply_normalization, fit_normalization, split_by_patient
from .evaluate import auc
from .model import TrainConfig, predict
from .synth import SynthSpec, generate
from .training import train

__version__ = "0.1.0"

__all__ = [
    "SynthSpec",
    "TrainConfig",
    "apply_normalization",
    "auc",
    "fit_normalization",
    "generate",
    "predict",
    "split_by_patient",
    "train",
]
