"""Windowed summary statistics of masked time series, from one kernel.

Each summary is computed per variable from the last ``C`` hours before the
time of prediction ``T``.  Soft windows are sigmoid weights
``w_t = sigmoid((t - T + C) / tau)`` so the window length is learnable;
hard windows use the exact indicator ``1(t > T - C)``.

One kernel, ``summary_blocks``, gives all twelve summaries.  Its slab passes
run in row blocks of at most ``BLOCK_BYTES`` per ``(rows, D, T)`` float64
slab, so that a block stays in cache and its buffers are reused.  The blocks
write per-row sums into arrays that cover a group of blocks, and the closed
forms that turn the sums into H and the tangents (some 150 numpy calls, whose
cost is per call, not per byte) run once per group.  Passes and closed forms:

* First pass: each windowed summary is a closed form of window-weighted
  time sums ``sum_t w[d, i, t] f(n, d, t)`` of shared features ``f``
  (``M``, ``M X``, the masked threshold indicators, ``|M[t+1] - M[t]|``),
  with weight columns ``t w`` for the time sums; one matmul per block.
* Second pass: variance, indicator variance, slope and slope stderr use
  centred sums such as ``sum_t w M (X - xbar)^2``, corrected for the
  rounding of ``xbar`` by ``sum_t w M (X - xbar)`` (the corrected two-pass
  algorithm of Chan, Golub & LeVeque 1983; cf. West 1979).  Raw moments
  lose digits when the mean is large against the spread, and so does
  ``t - tbar`` when one point dominates a window; the variance denominators
  ``(sum v)^2 - sum v^2`` are summed over pairs ``s < t`` for that reason.
* Tangent: summary ``i`` of variable ``d`` depends on the one window
  ``C[d, i]``, so ``dH/dC`` is the same closed form over the same sums
  taken against ``dw/dC``.  The tangent pass gives H too, so a relaxed
  training step runs the kernel once (``compute_summary_tensor(...,
  tangent=True)``); ``gradients`` contracts dH/dC with ``dL/dH``.

Hard mode is the same kernel with indicator weights and the step threshold
gate ``s(0) = 1/2``, the tau -> 0 limit of the sigmoid.  Hours run
``t = 1..T`` and the origin is part of the definition: the EPS guard in
``tbar = sum v t / (sum v + EPS)`` pulls ``tbar`` towards ``t = 0``, so
counting hours back from ``T`` instead moves ``slope_stderr`` of
near-empty windows (``C < 1``) by up to 8e7 of its 1e8.

Time is the trailing axis, hour ``t`` at index ``t - 1``; ``M`` is binary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = 1e-8

SUMMARY_NAMES = (
    "mean",
    "variance",
    "ever_measured",
    "indicator_mean",
    "indicator_variance",
    "switch_count",
    "first_measured",
    "last_measured",
    "frac_above",
    "frac_below",
    "slope",
    "slope_stderr",
)

(
    MEAN,
    VARIANCE,
    EVER_MEASURED,
    INDICATOR_MEAN,
    INDICATOR_VARIANCE,
    SWITCH_COUNT,
    FIRST_MEASURED,
    LAST_MEASURED,
    FRAC_ABOVE,
    FRAC_BELOW,
    SLOPE,
    SLOPE_STDERR,
) = range(12)

N_SUMMARIES = len(SUMMARY_NAMES)

# Upper bound on one (rows, D, T) float64 slab of a row block.
BLOCK_BYTES = 64 * 1024

# Row blocks per group: the closed forms run once per group, on the per-row
# sums its blocks kept.  One group per call, keeping every row's sums, raised
# the peak RSS of a 4000x30x48 hard-mode fit by a fifth.
GROUP_BLOCKS = 16

# First-pass features, stacked on the leading axis of a block's slab; the
# last two enter only the threshold gradients.
F_M, F_MX, F_ABOVE, F_BELOW, F_SWITCH, F_ABOVE_SLOPE, F_BELOW_SLOPE = range(7)

# Weight columns: one window per summary, then t w of the two slope windows;
# with the tangent, d(column)/dC at offset N_COLUMNS, then 2 w dw/dC of the
# variance window.
COL_T_SLOPE, COL_T_STDERR = N_SUMMARIES, N_SUMMARIES + 1
N_COLUMNS = N_SUMMARIES + 2
COL_DSQ_VARIANCE = 2 * N_COLUMNS

# Deviations from first-pass weighted means (values, then hours), and the
# windows of those means.
P_VARIANCE, P_SLOPE_X, P_SLOPE_T, P_STDERR_T = range(4)
DEVIATION_WINDOWS = (VARIANCE, SLOPE, SLOPE, SLOPE_STDERR)

# Second-pass features: the four masked deviations, their centred
# products, the variance pair sums and the centred mask; and their windows.
Q_DEV2, Q_AB, Q_AA, Q_STDERR, Q_PAIRS, Q_INDICATOR = range(4, 10)
SECOND_PASS_WINDOWS = DEVIATION_WINDOWS + (
    VARIANCE, SLOPE, SLOPE, SLOPE_STDERR, VARIANCE, INDICATOR_VARIANCE
)

# Ratio summaries sum w f / (sum w M + EPS), with their features f; the two
# summaries of the mask itself divide by sum w + EPS instead.
RATIOS = (MEAN, INDICATOR_MEAN, SWITCH_COUNT, FRAC_ABOVE, FRAC_BELOW)
RATIO_FEATURES = (F_MX, F_M, F_SWITCH, F_ABOVE, F_BELOW)
WINDOW_RATIOS = (INDICATOR_MEAN, SWITCH_COUNT)


def sigmoid(x):
    """Logistic function, elementwise, exact in both tails.

    exp(min(x, 0)) / (1 + exp(-|x|)) is 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, bit for bit, with no branch and no overflow.
    """
    x = np.asarray(x, dtype=float)
    out = np.exp(np.minimum(x, 0.0))
    out /= 1.0 + np.exp(-np.abs(x))
    if out.ndim == 0:
        return float(out)
    return out


def _step(x):
    """The tau -> 0 limit of sigmoid(x / tau): 0, 1/2 at zero, 1."""
    return 0.5 * np.sign(x) + 0.5


@dataclass
class SummaryParams:
    """Learnable parameters of the summary layer.

    C          : (D, I) window lengths in hours, kept in [0, T].
    phi_plus   : (D,) upper thresholds, in normalized units.
    phi_minus  : (D,) lower thresholds, in normalized units.
    tau_temp   : sigmoid temperature (> 0).
    """

    C: np.ndarray
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    tau_temp: float

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        self.phi_plus = np.asarray(self.phi_plus, dtype=float)
        self.phi_minus = np.asarray(self.phi_minus, dtype=float)
        if self.tau_temp <= 0:
            raise ValueError("tau_temp must be positive")
        if self.C.ndim != 2:
            raise ValueError("C must be a (D, I) matrix")

    def copy(self):
        return SummaryParams(
            self.C.copy(), self.phi_plus.copy(), self.phi_minus.copy(), self.tau_temp
        )


def _time_axis(T):
    return np.arange(1, T + 1, dtype=float)


def summary_blocks(X, M, w, phi_plus, phi_minus, tau, hard=False, tangent=False):
    """``(H, dH_dC, dH_dphi)`` of the batch, filled in groups of row blocks.

    X, M are (N, D, T); w is (D, I, T), the window of every (variable,
    summary) cell.  H is (N, D, I).  With ``tangent`` (relaxed mode only)
    dH_dC (N, D, I) is dH[n, d, i]/dC[d, i] and dH_dphi (2, N, D)
    holds dH[n, d, FRAC_ABOVE]/dphi_plus[d] and
    dH[n, d, FRAC_BELOW]/dphi_minus[d]; otherwise both are None.
    """
    N, D, T = X.shape
    gate = _step if hard else sigmoid
    t = _time_axis(T)
    # the (T, T) buffers first, so that a T too large fails before the rest
    later = np.triu(np.ones((T, T)), 1)  # later[s, t] = 1(s < t)
    earlier_w = later * w[:, VARIANCE, :, None]  # M @ earlier_w: sum_{s<t} w_s M_s
    cols = [w, t * w[:, [SLOPE, SLOPE_STDERR]]]  # weight columns, see N_COLUMNS
    if tangent:
        wdot = w * (1.0 - w) / tau  # dw/dC
        cols += [wdot, t * wdot[:, [SLOPE, SLOPE_STDERR]],
                 2.0 * w[:, [VARIANCE]] * wdot[:, [VARIANCE]]]
    cols = np.concatenate(cols, axis=1).transpose(0, 2, 1).copy()  # (D, T, J)
    col_sums = cols.sum(1)  # (D, J): the sums against a feature of ones
    n_feat = F_BELOW_SLOPE + 1 if tangent else F_SWITCH + 1
    n_c = 2 if tangent else 1  # sums against w, and against dw/dC
    column = [[i, N_COLUMNS + i][:n_c] for i in range(N_SUMMARIES)]
    second_w = cols[:, :, [column[i] for i in SECOND_PASS_WINDOWS]]
    second_w = np.ascontiguousarray(second_w.transpose(2, 0, 1, 3))  # (10, D, T, n_c)
    dev_columns = [column[i] for i in DEVIATION_WINDOWS]
    ratio_columns = np.array([column[i] for i in RATIOS])  # (5, n_c)
    ratio_features = np.array(RATIO_FEATURES)[:, None]
    window_ratios = [RATIOS.index(i) for i in WINDOW_RATIOS]
    window_columns = [column[i] for i in WINDOW_RATIOS]
    w_iv = w[:, INDICATOR_VARIANCE]
    s1_iv = col_sums[:, INDICATOR_VARIANCE]
    den_iv = 2.0 * (w_iv * (w_iv @ later)).sum(-1) + EPS
    # thresholds per (variable, hour), so that they broadcast over rows only
    phi_plus = np.repeat(np.asarray(phi_plus, dtype=float)[:, None], T, axis=1)
    phi_minus = np.repeat(np.asarray(phi_minus, dtype=float)[:, None], T, axis=1)

    # no more rows than the batch has: the blocks cover the same rows
    rows_per_block = max(1, min(N, BLOCK_BYTES // (8 * D * T)))
    rows_per_group = rows_per_block * GROUP_BLOCKS
    buffers = [np.empty(n * rows_per_block * D * T)
               for n in (n_feat, len(DEVIATION_WINDOWS), len(SECOND_PASS_WINDOWS))]
    sums = np.empty(D * n_feat * rows_per_block * cols.shape[-1])
    H = np.empty((N, D, N_SUMMARIES))
    dH_dC = np.zeros((N, D, N_SUMMARIES)) if tangent else None
    dH_dphi = np.empty((2, N, D)) if tangent else None

    def fill_group(group):  # a function: the group's arrays die on return
        G = group.stop - group.start
        # the per-row sums of the group's blocks, which the closed forms read
        m = np.empty((G, D, cols.shape[-1]))  # sums of w M
        s = np.empty((len(DEVIATION_WINDOWS), G, D))  # sum v + EPS, v ~ w M
        mean = np.empty_like(s)  # first-pass means
        mbar = np.empty((G, D))
        num = np.empty((len(RATIOS), G, D, n_c))  # ratio numerators
        q = np.empty((len(SECOND_PASS_WINDOWS), D, G, n_c))
        for start in range(group.start, group.stop, rows_per_block):
            rows = slice(start, min(start + rows_per_block, group.stop))
            part = slice(rows.start - group.start, rows.stop - group.start)
            Xb, Mb = X[rows], M[rows]
            R = Xb.shape[0]
            F, P, Q = (buf[: buf.size // rows_per_block * R].reshape(-1, R, D, T)
                       for buf in buffers)

            # first pass: every (feature, column) time sum in one matmul
            F[F_M] = Mb
            np.multiply(Mb, Xb, out=F[F_MX])
            gates = F[F_ABOVE : F_BELOW + 1]
            np.subtract(Xb, phi_plus, out=gates[0])
            np.subtract(phi_minus, Xb, out=gates[1])
            gates /= tau
            gated = gate(gates)
            np.multiply(Mb, gated, out=gates)
            if tangent:  # d/dphi of the soft indicators, up to sign and tau
                np.multiply(gates, 1.0 - gated, out=F[F_ABOVE_SLOPE:])
            # |M[t+1] - M[t]| at t, over the flattened block; 0 at t = T
            switches = F[F_SWITCH].reshape(-1)
            np.subtract(Mb.reshape(-1)[1:], Mb.reshape(-1)[:-1], out=switches[:-1])
            F[F_SWITCH, :, :, -1] = 0.0
            np.abs(switches, out=switches)
            S = sums[: sums.size // rows_per_block * R].reshape(D, n_feat * R, -1)
            np.matmul(F.reshape(-1, D, T).transpose(1, 0, 2), cols, out=S)
            S = S.reshape(D, n_feat, R, -1).transpose(1, 2, 0, 3)  # (K, R, D, J)
            m[part] = S[F_M]
            num[:, part] = S[ratio_features, :, :, ratio_columns].transpose(0, 2, 3, 1)
            if tangent:  # dH/dphi's numerators, divided once for the group
                dH_dphi[:, rows] = S[[F_ABOVE_SLOPE, F_BELOW_SLOPE], ...,
                                     [FRAC_ABOVE, FRAC_BELOW]]

            # second pass: sums of deviations from the first-pass means, and of
            # their products, each against its own summary's window
            np.add(m[part][..., DEVIATION_WINDOWS].transpose(2, 0, 1), EPS,
                   out=s[:, part])
            np.divide(S[[F_MX, F_MX, F_M, F_M], :, :,
                        [VARIANCE, SLOPE, COL_T_SLOPE, COL_T_STDERR]], s[:, part],
                      out=mean[:, part])
            np.subtract(Xb, mean[:P_SLOPE_T, part, :, None], out=P[:P_SLOPE_T])
            np.subtract(t, mean[P_SLOPE_T:, part, :, None], out=P[P_SLOPE_T:])
            MP = Q[: len(DEVIATION_WINDOWS)]
            np.multiply(Mb, P, out=MP)
            np.multiply(MP[P_VARIANCE], P[P_VARIANCE], out=Q[Q_DEV2])
            np.multiply(MP[P_SLOPE_T], P[P_SLOPE_X : P_SLOPE_T + 1],
                        out=Q[Q_AB : Q_AA + 1])
            np.multiply(MP[P_STDERR_T], P[P_STDERR_T], out=Q[Q_STDERR])
            np.matmul(Mb.transpose(1, 0, 2), earlier_w,
                      out=Q[Q_PAIRS].transpose(1, 0, 2))
            Q[Q_PAIRS] *= Mb
            np.divide(m[part, :, INDICATOR_VARIANCE], s1_iv + EPS, out=mbar[part])
            np.subtract(Mb, mbar[part, :, None], out=Q[Q_INDICATOR])
            np.square(Q[Q_INDICATOR], out=Q[Q_INDICATOR])
            np.matmul(Q.transpose(0, 2, 1, 3), second_w, out=q[:, :, part])

        # the closed forms, once for the group
        q = q.transpose(0, 2, 1, 3)  # (10, G, D, n_c)
        v_sums = m[..., dev_columns].transpose(2, 0, 1, 3)  # (4, G, D, n_c)

        # The corrected two-pass algorithm: the first-pass means are off by
        # their rounding, which sum v (x - mean1) measures; with v = w M and
        # s = sum v + EPS the exact mean is mean1 + (that sum - mean1 EPS) / s.
        dev_sums = q[: len(DEVIATION_WINDOWS)]  # (4, G, D, n_c)
        shift = (dev_sums[..., 0] - mean * EPS) / s
        mean += shift
        residual = mean * EPS  # sum v (x - mean), exactly

        def centred(k, a, b, c=0):  # sum v (x_a - mean_a)(x_b - mean_b), v ~ w or dw
            return (q[k, ..., c] - shift[a] * dev_sums[b, ..., c]
                    - shift[b] * dev_sums[a, ..., c]
                    + shift[a] * shift[b] * v_sums[a, ..., c])

        # tangent: the derivative of every sum above is the same sum against
        # dw/dC, and d(mean)/dC = sum dv (x - mean) / s
        if tangent:
            dmean = (dev_sums[..., 1] - shift * v_sums[..., 1]) / s
        Hb = H[group]
        dHb = dH_dC[group] if tangent else None
        # first and last measured hours: constants of the mask
        observed = M[group] > 0
        first_index = observed.argmax(-1)
        measured = np.take_along_axis(observed, first_index[..., None], -1)[..., 0]
        Hb[..., FIRST_MEASURED] = np.where(measured, (first_index + 1) / T, 1.0)
        Hb[..., LAST_MEASURED] = np.where(
            measured, (T - observed[..., ::-1].argmax(-1)) / T, 0.0)

        # ratios: numerator sums over sum w M + EPS, or sum w + EPS
        den = m[..., ratio_columns].transpose(2, 0, 1, 3)  # (5, G, D, n_c)
        den[window_ratios] = col_sums[:, window_columns].transpose(1, 0, 2)[:, None]
        den[..., 0] += EPS
        ratio = num[..., 0] / den[..., 0]
        Hb[..., RATIOS] = ratio.transpose(1, 2, 0)
        if tangent:
            dHb[..., RATIOS] = ((num[..., 1] - ratio * den[..., 1]) / den[..., 0]
                                ).transpose(1, 2, 0)

        b_ever = tau * col_sums[:, EVER_MEASURED] + EPS
        a_ever = m[..., EVER_MEASURED] / b_ever
        Hb[..., EVER_MEASURED] = h = gate(a_ever)
        if tangent:
            dHb[..., EVER_MEASURED] = h * (1.0 - h) * (
                m[..., N_COLUMNS + EVER_MEASURED]
                - a_ever * tau * col_sums[:, N_COLUMNS + EVER_MEASURED]
            ) / b_ever

        # unbiased variances q s1 / (2 sum_{s<t} v_s v_t + EPS)
        q_var = centred(Q_DEV2, P_VARIANCE, P_VARIANCE)
        s1 = m[..., VARIANCE]
        den_var = 2.0 * q[Q_PAIRS, ..., 0] + EPS
        Hb[..., VARIANCE] = q_var * s1 / den_var
        Hb[..., INDICATOR_VARIANCE] = q[Q_INDICATOR, ..., 0] * s1_iv / den_iv
        if tangent:
            dq = (centred(Q_DEV2, P_VARIANCE, P_VARIANCE, 1)
                  - 2.0 * dmean[P_VARIANCE] * residual[P_VARIANCE])
            ds1 = m[..., N_COLUMNS + VARIANCE]
            dden = 2.0 * s1 * ds1 - m[..., COL_DSQ_VARIANCE]
            dHb[..., VARIANCE] = (
                dq * s1 + q_var * ds1 - Hb[..., VARIANCE] * dden
            ) / den_var
            ds1 = col_sums[:, N_COLUMNS + INDICATOR_VARIANCE]
            dmbar = m[..., N_COLUMNS + INDICATOR_VARIANCE] - mbar * ds1
            dmbar /= s1_iv + EPS
            dq = q[Q_INDICATOR, ..., 1] - 2.0 * dmbar * mbar * EPS
            ds2 = 2.0 * (w_iv * cols[:, :, N_COLUMNS + INDICATOR_VARIANCE]).sum(-1)
            dHb[..., INDICATOR_VARIANCE] = (
                dq * s1_iv + q[Q_INDICATOR, ..., 0] * ds1
                - Hb[..., INDICATOR_VARIANCE] * (2.0 * s1_iv * ds1 - ds2)
            ) / den_iv

        den_slope = centred(Q_AA, P_SLOPE_T, P_SLOPE_T) + EPS
        Hb[..., SLOPE] = centred(Q_AB, P_SLOPE_T, P_SLOPE_X) / den_slope
        den_se = centred(Q_STDERR, P_STDERR_T, P_STDERR_T) + EPS
        Hb[..., SLOPE_STDERR] = 1.0 / den_se
        if not tangent:
            return
        dnum = centred(Q_AB, P_SLOPE_T, P_SLOPE_X, 1) - (
            dmean[P_SLOPE_T] * residual[P_SLOPE_X]
            + dmean[P_SLOPE_X] * residual[P_SLOPE_T]
        )
        dden = (centred(Q_AA, P_SLOPE_T, P_SLOPE_T, 1)
                - 2.0 * dmean[P_SLOPE_T] * residual[P_SLOPE_T])
        dHb[..., SLOPE] = (dnum - Hb[..., SLOPE] * dden) / den_slope
        dden = (centred(Q_STDERR, P_STDERR_T, P_STDERR_T, 1)
                - 2.0 * dmean[P_STDERR_T] * residual[P_STDERR_T])
        dHb[..., SLOPE_STDERR] = -dden / den_se**2
        dphi = dH_dphi[:, group]
        dphi /= tau * (m[..., [FRAC_ABOVE, FRAC_BELOW]].transpose(2, 0, 1) + EPS)
        dphi[0] *= -1.0

    for start in range(0, N, rows_per_group):
        fill_group(slice(start, min(start + rows_per_group, N)))
    return H, dH_dC, dH_dphi


def window_weights(params, T, mode):
    """(D, I, T) windows of every (variable, summary) cell for a mode:
    sigmoid((t - T + C) / tau) relaxed, the indicator 1(t > T - C) hard."""
    t = _time_axis(T)
    if mode == "relaxed":
        return sigmoid((t - T + params.C[..., None]) / params.tau_temp)
    if mode == "hard":
        return (t > T - params.C[..., None]).astype(float)
    raise ValueError(f"unknown summary mode: {mode!r}")


def compute_summary_tensor(X, M, params, mode="relaxed", tangent=False):
    """All I summaries for every (example, variable), shape (N, D, I).

    mode="relaxed" uses soft windows and soft threshold indicators;
    mode="hard" uses exact indicators throughout (no tau dependence).
    With ``tangent`` (relaxed only) the same kernel pass also gives the
    tangents: returns (H, dH/dC (N, D, I), dH/dphi (2, N, D)).
    """
    X = np.asarray(X, dtype=float)
    M = np.asarray(M, dtype=float)
    W = window_weights(params, X.shape[-1], mode)
    H, dH_dC, dH_dphi = summary_blocks(
        X, M, W, params.phi_plus, params.phi_minus, params.tau_temp,
        hard=mode == "hard", tangent=tangent,
    )
    return (H, dH_dC, dH_dphi) if tangent else H
