"""AUC, top-N coefficient ablation, and the key-feature report."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import DataError, NumericalError
from .model import feature_columns, forward
from .summaries import FRAC_ABOVE, FRAC_BELOW, sigmoid

# the report's phrase of each summary, indexed like SUMMARY_NAMES; the two
# threshold phrases take the raw threshold
SUMMARY_PHRASES = (
    "mean over", "variance over", "ever measured over", "times measured over",
    "measurement variance over", "measurement switches over", "first measured",
    "last measured", "hours above {:.2f}", "hours below {:.2f}", "slope over",
    "slope stderr over",
)


def auc(scores, labels):
    """ROC AUC via the rank-sum statistic, ties counted half.  A non-finite
    score has no rank, so it is a NumericalError; labels other than 0 and 1,
    or only one of them, are a DataError."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_bad = int(np.count_nonzero(~np.isfinite(scores)))
    if n_bad:
        raise NumericalError(f"AUC undefined: {n_bad} non-finite score(s)")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != len(labels):
        raise DataError("AUC undefined: labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: both classes must be present")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # average 1-based rank of each tie run
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    counts = np.diff(np.r_[starts, len(scores)])
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    rank_sum_pos = ranks[labels == 1].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def ablate_top_n(model_params, n):
    """Zero all but the n largest-|coefficient| entries (bias kept).

    Ties broken in favour of the lower column index.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    out = model_params.copy()
    order = np.argsort(-np.abs(out.coeffs), kind="stable")
    drop = order[n:]
    out.coeffs[drop] = 0.0
    return out


def ablation_curve(summary_params, model_params, batch, mode, n_list):
    """(n, test AUC) pairs with summaries fixed at the fitted parameters; the
    design matrix does not depend on the coefficients, so it is built once."""
    design = forward(batch, summary_params, model_params, mode)[1]
    pairs = []
    for n in sorted(n_list):
        ablated = ablate_top_n(model_params, n)
        scores = sigmoid(design @ ablated.coeffs + ablated.bias)
        pairs.append((int(n), auc(scores, batch.y)))
    return pairs


@dataclass
class KeyFeatureRow:
    rank: int
    variable: str
    summary: str
    window_start: Optional[int]
    window_end: Optional[int]
    threshold_raw: Optional[float]
    coefficient: float


def _window_from_C(c, T):
    """(first hour, T) of the hard window 1(t > T - C), in the kernel's
    arithmetic: the first hour is T - ceil(C) + 1, clamped to [1, T].
    (None, None) when C <= 0 leaves the window without an hour."""
    if c <= 0:
        return None, None
    start = min(T, max(1, int(np.floor(T - c)) + 1))
    return start, T


def key_feature_report(summary_params, model_params, stats, variable_names,
                       static_names, T, mode, top_k):
    """Top-k coefficients rendered with denormalized thresholds and windows,
    each read from its column of the mode's layout."""
    columns = feature_columns(variable_names, static_names, T, mode)
    var_index = {v: d for d, v in enumerate(variable_names)}
    thresholds = {FRAC_ABOVE: summary_params.phi_plus,
                  FRAC_BELOW: summary_params.phi_minus}
    order = np.argsort(-np.abs(model_params.coeffs), kind="stable")[:top_k]
    rows = []
    for rank, col in enumerate(order, start=1):
        block, variable, index = columns[col]
        window = None, None
        threshold_raw = None
        if block == "static":
            summary = "static value"
        elif block != "H":  # the value or the mask at one hour
            what = "value" if block in ("x", "xT") else "measured"
            summary = f"{what} at hour {index}"
            window = index, index
        else:
            d = var_index[variable]
            window = _window_from_C(summary_params.C[d, index], T)
            if index in thresholds:
                threshold_raw = float(
                    thresholds[index][d] * stats.std[d] + stats.mean[d])
            summary = SUMMARY_PHRASES[index].format(threshold_raw)
        rows.append(KeyFeatureRow(rank, variable, summary, *window,
                                  threshold_raw, float(model_params.coeffs[col])))
    return rows


def _cell(value):
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_tsv(rows):
    names = [f.name for f in fields(KeyFeatureRow)]
    lines = ["\t".join(names)]
    lines += ["\t".join(_cell(getattr(r, name)) for name in names) for r in rows]
    return "\n".join(lines) + "\n"


def ablation_tsv(pairs):
    lines = ["n\ttest_auc"]
    for n, value in pairs:
        lines.append(f"{n}\t{value:.6f}")
    return "\n".join(lines) + "\n"
