"""AUC, top-N coefficient ablation, and the key-feature report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError
from .model import forward
from .summaries import FRAC_ABOVE, FRAC_BELOW, SUMMARY_NAMES, sigmoid


def auc(scores, labels):
    """ROC AUC via the rank-sum statistic, ties counted half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: both classes must be present")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    # average ranks over tie groups (1-based)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
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
    start = min(T, max(1, T - int(round(c)) + 1))
    return start, T


def key_feature_report(summary_params, model_params, stats, variable_names, T,
                       top_k):
    """Top-k coefficients rendered with denormalized thresholds and windows."""
    var_index = {v: d for d, v in enumerate(variable_names)}
    summary_index = {s: i for i, s in enumerate(SUMMARY_NAMES)}
    order = np.argsort(-np.abs(model_params.coeffs), kind="stable")[:top_k]
    rows = []
    for rank, col in enumerate(order, start=1):
        name = model_params.feature_names[col]
        coeff = float(model_params.coeffs[col])
        kind, _, rest = name.partition(":")
        window_start = window_end = None
        threshold_raw = None
        if kind == "static":
            variable, summary = rest, "static value"
        elif kind == "xT":
            variable, summary = rest, f"value at hour {T}"
            window_start = window_end = T
        elif kind == "mT":
            variable, summary = rest, f"measured at hour {T}"
            window_start = window_end = T
        elif kind in ("x", "m"):  # flat_series columns
            variable, _, hour = rest.partition("@")
            what = "value" if kind == "x" else "measured"
            summary = f"{what} at hour {hour}"
            window_start = window_end = int(hour)
        else:
            variable, summary_name = kind, rest
            d = var_index[variable]
            i = summary_index[summary_name]
            window_start, window_end = _window_from_C(summary_params.C[d, i], T)
            if i == FRAC_ABOVE:
                threshold_raw = float(
                    summary_params.phi_plus[d] * stats.std[d] + stats.mean[d]
                )
                summary = f"hours above {threshold_raw:.2f}"
            elif i == FRAC_BELOW:
                threshold_raw = float(
                    summary_params.phi_minus[d] * stats.std[d] + stats.mean[d]
                )
                summary = f"hours below {threshold_raw:.2f}"
            else:
                summary = {
                    "mean": "mean over",
                    "variance": "variance over",
                    "ever_measured": "ever measured over",
                    "indicator_mean": "times measured over",
                    "indicator_variance": "measurement variance over",
                    "switch_count": "measurement switches over",
                    "first_measured": "first measured",
                    "last_measured": "last measured",
                    "slope": "slope over",
                    "slope_stderr": "slope stderr over",
                }[summary_name]
        rows.append(
            KeyFeatureRow(
                rank, variable, summary, window_start, window_end,
                threshold_raw, coeff,
            )
        )
    return rows


REPORT_COLUMNS = (
    "rank", "variable", "summary", "window_start", "window_end",
    "threshold_raw", "coefficient",
)


def report_tsv(rows):
    lines = ["\t".join(REPORT_COLUMNS)]
    for r in rows:
        lines.append(
            "\t".join(
                [
                    str(r.rank),
                    r.variable,
                    r.summary,
                    "" if r.window_start is None else str(r.window_start),
                    "" if r.window_end is None else str(r.window_end),
                    "" if r.threshold_raw is None else f"{r.threshold_raw:.6g}",
                    f"{r.coefficient:.6g}",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def ablation_tsv(pairs):
    lines = ["n\ttest_auc"]
    for n, value in pairs:
        lines.append(f"{n}\t{value:.6f}")
    return "\n".join(lines) + "\n"
