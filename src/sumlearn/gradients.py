"""Analytic gradients of the training loss and a finite-difference checker.

The loss is differentiated by hand through the full graph: logistic head,
design matrix, and the relaxed summary definitions (soft windows and soft
threshold indicators).  Summary ``i`` of variable ``d`` depends on the one
window length ``C[d, i]`` (and the threshold fractions on one threshold),
so the summary layer needs only ``dH[n, d, i]/dC[d, i]`` and ``dH/dphi``,
which the summary kernel computes from the same weighted time sums taken
against ``dw/dC = w (1 - w) / tau``.  A relaxed step runs that tangent pass
once, in ``model.forward``: its H feeds the head and the loss, and after the
head its tangents are contracted with G = dL/dH, ``dL/dC = sum_n G * dH/dC``.

The epsilon guards inside the weighted means leave tiny residuals
(sum of v * deviation = mean * eps instead of zero); their derivative
cross-terms are kept so the gradients are exact, not just eps-close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import class_weights
from .errors import NumericalError
# assemble_features and compute_summary_tensor are not called here (model.forward
# calls them), but the benchmark's trace shims look both up on this module.
from .model import PENALTIES, assemble_features, forward, objective, total_loss
from .summaries import FRAC_ABOVE, FRAC_BELOW, N_SUMMARIES, sigmoid
from .summaries import compute_summary_tensor


# The learnable blocks: attributes of ModelParams or SummaryParams, keys of grads.
BLOCKS = ("coeffs", "bias", "C", "phi_plus", "phi_minus")


def block_owner(name, summary_params, model_params):
    """The parameter object that holds block ``name``."""
    return model_params if hasattr(model_params, name) else summary_params


def backprop_summaries(G, dH_dC, dH_dphi):
    """(d_C, d_phi_plus, d_phi_minus): dL/dH = G (N, D, I) contracted with
    the kernel's tangents dH/dC (N, D, I) and dH/dphi (2, N, D)."""
    d_phi = (G[:, :, [FRAC_ABOVE, FRAC_BELOW]].transpose(2, 0, 1) * dH_dphi).sum(1)
    return (G * dH_dC).sum(0), d_phi[0], d_phi[1]


def loss_and_gradients(summary_params, model_params, batch, config, weights=None):
    """(loss, grads): the loss equals total_loss on the same inputs; grads maps
    each name of BLOCKS, in order, to dL/d(block).  The non-differentiable
    summaries (first/last measured) add exactly zero to grads["C"]."""
    if weights is None:
        weights = class_weights(batch.y)
    N, D = batch.X.shape[:2]
    z, design, tangents = forward(batch, summary_params, model_params, config.mode,
                                  tangent=config.mode == "relaxed")
    loss = objective(z, batch.y, weights, model_params.coeffs, config)
    if not np.isfinite(loss):
        bad = np.flatnonzero(~np.isfinite(design).all(0))
        names = model_params.feature_names
        where = (f"first non-finite design column: {names[bad[0]]}" if bad.size
                 else "design matrix finite")
        raise NumericalError(f"non-finite loss ({where})")

    r = weights * (sigmoid(z) - batch.y) / N
    d_penalty = PENALTIES[config.penalty][1](model_params.coeffs, config.tau_hs)
    d_coeffs = design.T @ r + config.alpha * d_penalty
    if tangents is None:  # hard mode and the modes without summaries
        d_summaries = np.zeros_like(summary_params.C), np.zeros(D), np.zeros(D)
    else:
        G = np.outer(r, model_params.coeffs[:D * N_SUMMARIES]).reshape(N, D, -1)
        d_summaries = backprop_summaries(G, *tangents)
    return loss, dict(zip(BLOCKS, (d_coeffs, r.sum(), *d_summaries)))


# Criterion 1: central differences of step FD_STEP on FD_COEFF_SAMPLES sampled
# coefficients agree with the analytic gradient below FD_TOLERANCE.
FD_STEP = 1e-5
FD_TOLERANCE = 1e-4
FD_COEFF_SAMPLES = 32


@dataclass
class FDEntry:
    block: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class FDReport:
    max_rel_error: float
    worst: FDEntry
    entries: list

    def passed(self):
        return self.max_rel_error < FD_TOLERANCE


def finite_difference_check(summary_params, model_params, batch, config, seed=0):
    """Compare analytic gradients against central differences.

    Covers FD_COEFF_SAMPLES random coefficients and every entry of the
    other blocks, in BLOCKS order, scored with the batch's class weights.
    Relative error uses max(1e-8, |a| + |n|) scaling.
    """
    grads = loss_and_gradients(summary_params, model_params, batch, config)[1]

    def loss_at(name, index, delta):
        sp, mp = summary_params.copy(), model_params.copy()
        owner = block_owner(name, sp, mp)
        value = np.array(getattr(owner, name), dtype=float)
        value[index] += delta
        setattr(owner, name, value)
        return total_loss(sp, mp, batch, config)

    rng = np.random.default_rng(seed)
    F = model_params.n_features
    picks = rng.choice(F, size=min(FD_COEFF_SAMPLES, F), replace=False)
    entries = []
    for name in BLOCKS:
        grad = np.asarray(grads[name])
        indices = ([(int(j),) for j in picks] if name == "coeffs"
                   else np.ndindex(grad.shape))
        for index in indices:
            analytic = float(grad[index])
            up, down = loss_at(name, index, FD_STEP), loss_at(name, index, -FD_STEP)
            numeric = float((up - down) / (2.0 * FD_STEP))
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            entries.append(FDEntry(name, index, analytic, numeric, rel))

    worst = max(entries, key=lambda e: e.rel_error)
    return FDReport(worst.rel_error, worst, entries)
