"""Learnable, human-interpretable summaries of masked clinical time series."""

from .data import (
    ClinicalBatch,
    NormalizationStats,
    RawCohort,
    apply_normalization,
    build_batch,
    class_weights,
    fit_normalization,
    impute,
    ingest_csv,
    split_by_patient,
)
from .evaluate import ablate_top_n, ablation_curve, auc, key_feature_report
from .gradients import GradientSet, finite_difference_check, loss_and_gradients
from .model import (
    ModelParams,
    TrainConfig,
    assemble_features,
    horseshoe_penalty,
    predict,
    total_loss,
    weighted_bce,
)
from .summaries import SUMMARY_NAMES, SummaryParams, compute_summary_tensor
from .synth import SynthSpec, describe_ground_truth, generate
from .training import FitResult, adam_step, init_params, train

__version__ = "0.1.0"

__all__ = [
    "ClinicalBatch",
    "FitResult",
    "GradientSet",
    "ModelParams",
    "NormalizationStats",
    "RawCohort",
    "SUMMARY_NAMES",
    "SummaryParams",
    "SynthSpec",
    "TrainConfig",
    "ablate_top_n",
    "ablation_curve",
    "adam_step",
    "apply_normalization",
    "assemble_features",
    "auc",
    "build_batch",
    "class_weights",
    "compute_summary_tensor",
    "describe_ground_truth",
    "finite_difference_check",
    "fit_normalization",
    "generate",
    "horseshoe_penalty",
    "impute",
    "ingest_csv",
    "init_params",
    "key_feature_report",
    "loss_and_gradients",
    "predict",
    "split_by_patient",
    "total_loss",
    "train",
    "weighted_bce",
]
