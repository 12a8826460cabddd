"""Seeded synthetic cohorts with planted, recoverable signals.

A latent per-patient acuity z drives three planted signals:

* trend: the slope of one variable over its last ``trend_window`` hours is
  proportional to z (earlier hours carry a distractor trend from an
  independent latent, so shrinking the window genuinely helps);
* threshold: the fraction of hours another variable exceeds a level in its
  last ``threshold_window`` hours increases with z (0.5 outside it);
* missingness: a third variable's measurement rate scales with z.

Labels are Bernoulli in a logistic model of the standardized planted
statistics, with the intercept calibrated by bisection to hit the target
prevalence.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .data import (LABELS_HEADER, SERIES_HEADER, STATIC_HEADER, RawCohort,
                   build_batch, cohort_paths, series_array)
from .errors import DataError, check_fields, setting
from .summaries import sigmoid

AR_COEFF = 0.8
# write_cohort formats timeseries.csv this many rows at a time: the strings of
# one chunk set its peak memory, and more rows per chunk gain no speed
SERIES_CHUNK_ROWS = 1 << 12


@dataclass
class SynthSpec:
    n_examples: int = setting(4000, low=1, flag="--n")
    n_variables: int = setting(6, flag="--d")
    T: int = setting(24, flag="--t")
    n_static: int = setting(4, low=1)
    prevalence: float = setting(0.15, flag=True)
    trend_var: int = 0
    trend_window: int = 8
    trend_weight: float = 1.5
    trend_slope_scale: float = 0.6
    trend_level_scale: float = 4.0
    threshold_var: int = 1
    threshold_level: float = 2.0
    threshold_window: int = 6
    threshold_weight: float = 1.0
    missing_var: int = 2
    missing_rate_multiplier: float = setting(1.8, low=1)
    missing_weight: float = 0.7
    p_obs: float = 0.9
    noise_scale: float = 1.0
    seed: int = setting(0, low=0, flag=True)

    def __post_init__(self):
        check_fields(self)
        planted = {self.trend_var, self.threshold_var, self.missing_var}
        if len(planted) != 3 or not all(0 <= d < self.n_variables for d in planted):
            raise DataError("planted variables must be distinct and in range")
        for w in (self.trend_window, self.threshold_window):
            if not 1 <= w <= self.T:
                raise DataError("planted windows must lie in [1, T]")
        if not 0 < self.p_obs <= 1:
            raise DataError("p_obs must be in (0, 1]")


def variable_name(d):
    return f"var{d}"


def _standardize(a):
    return (a - a.mean()) / (a.std() + 1e-12)


def _calibrate_intercept(score, target):
    """Bisection on b so that mean(sigmoid(score + b)) == target."""
    if not 0 < target < 1:
        raise DataError(f"target prevalence {target} not achievable")
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sigmoid(score + mid).mean() < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate(spec):
    """(ClinicalBatch in raw units, ground-truth descriptor dict)."""
    rng = np.random.default_rng(spec.seed)
    N, D, T = spec.n_examples, spec.n_variables, spec.T
    vals = series_array(N, D, T)  # first: a T too large fails here
    z = rng.standard_normal(N)
    t_ax = np.arange(1, T + 1)

    # AR(1) background noise for every variable, run on an hour-major
    # (T, N, D) copy so that each step reads and writes contiguous slabs
    ar = rng.standard_normal((N, D, T)).transpose(2, 0, 1).copy()
    ar *= spec.noise_scale
    for t in range(1, T):
        ar[t] += AR_COEFF * ar[t - 1]
    vals[...] = ar.transpose(1, 2, 0)
    del ar

    # trend plant: slope proportional to z inside the window, an
    # independent distractor trend before it, plus a per-patient level
    # offset so the value at the final hour alone carries little signal
    d0, c0 = spec.trend_var, spec.trend_window
    ramp = np.clip(t_ax - (T - c0), 0, None).astype(float)
    slope_stat = spec.trend_slope_scale * z
    vals[:, d0, :] += slope_stat[:, None] * ramp[None, :]
    distractor = rng.standard_normal(N) * spec.trend_slope_scale
    pre_ramp = np.minimum(t_ax, T - c0).astype(float)
    vals[:, d0, :] += distractor[:, None] * pre_ramp[None, :]
    level = rng.standard_normal(N) * spec.trend_level_scale
    vals[:, d0, :] += level[:, None]

    # threshold plant: exceedance probability sigmoid(z) inside the
    # window, coin-flip outside it
    d1, c1 = spec.threshold_var, spec.threshold_window
    in_win = t_ax > T - c1
    p_exceed = np.where(in_win[None, :], sigmoid(z)[:, None], 0.5)
    above = rng.random((N, T)) < p_exceed
    magnitude = 1.0 + 0.25 * np.abs(rng.standard_normal((N, T)))
    vals[:, d1, :] = spec.threshold_level + np.where(above, 1.0, -1.0) * magnitude
    frac_stat = above[:, in_win].mean(axis=1)

    # missingness plant: measurement rate rises from p_obs/r to p_obs
    # with z (dividing by r keeps the rate below 1, so the signal never
    # saturates away)
    d2 = spec.missing_var
    r_mult = spec.missing_rate_multiplier
    rate_stat = np.clip(
        spec.p_obs * (1.0 + (r_mult - 1.0) * sigmoid(z)) / r_mult, 0.0, 1.0
    )
    M = rng.random((N, D, T)) < spec.p_obs
    M[:, d2, :] = rng.random((N, T)) < rate_stat[:, None]

    # labels from standardized planted statistics
    score = (
        spec.trend_weight * _standardize(slope_stat)
        + spec.threshold_weight * _standardize(frac_stat)
        + spec.missing_weight * _standardize(rate_stat)
    )
    intercept = _calibrate_intercept(score, spec.prevalence)
    y = (rng.random(N) < sigmoid(score + intercept)).astype(float)

    # static features: age-like first column, standard-normal fillers
    S = rng.standard_normal((N, spec.n_static))
    S[:, 0] = 65.0 + 15.0 * S[:, 0]
    static_names = ["age"] + [f"static{j}" for j in range(1, spec.n_static)]

    vals[~M] = np.nan
    raw = RawCohort(
        vals, S, y,
        [f"p{n:05d}" for n in range(N)],
        [variable_name(d) for d in range(D)],
        static_names,
    )
    batch = build_batch(raw)

    plants = ((spec.trend_weight, d0, "slope", c0),
              (spec.threshold_weight, d1, "frac_above", c1),
              (spec.missing_weight, d2, "indicator_mean", None))
    signals = [{"variable": variable_name(d), "summary": summary, "window": window}
               for weight, d, summary, window in plants if weight != 0]
    descriptor = {
        "spec": asdict(spec),
        "signals": signals,
        "intercept": intercept,
        "prevalence_realized": float(y.mean()),
    }
    return batch, descriptor


def _csv_field(value):
    """``value`` as csv.writer writes it inside a row, with its comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-2]  # without the "\r\n" line terminator


def write_cohort(batch, out_dir):
    """Write the three-CSV cohort format; measured entries only.

    timeseries.csv holds the bytes that csv.writer writes for the rows
    (patient id, variable name, hour, repr of the value) in (patient,
    variable, hour) order.  Each id and name is encoded once, and the rows
    are formatted ``SERIES_CHUNK_ROWS`` at a time, so that the repr of each
    value is the only formatting done per row."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    series_path, static_path, labels_path = cohort_paths(out_dir)
    T = batch.T
    var_fields = [_csv_field(var) for var in batch.variable_names]
    prefixes = [pid + var for pid in map(_csv_field, batch.patient_ids)
                for var in var_fields]  # "<pid>,<variable>," per (n, d)
    hours = [f"{t}," for t in range(1, T + 1)]
    values = batch.X.reshape(-1)
    cells = np.flatnonzero(batch.M)  # in (patient, variable, hour) order
    with open(series_path, "w", newline="") as fh:
        csv.writer(fh).writerow(SERIES_HEADER)
        for start in range(0, len(cells), SERIES_CHUNK_ROWS):
            chunk = cells[start:start + SERIES_CHUNK_ROWS]
            pair, hour = np.divmod(chunk, T)
            fh.write("".join([
                f"{prefixes[p]}{hours[h]}{v!r}\r\n"
                for p, h, v in zip(pair.tolist(), hour.tolist(),
                                   values[chunk].tolist())
            ]))
    with open(static_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATIC_HEADER + batch.static_names)
        for n, pid in enumerate(batch.patient_ids):
            writer.writerow([pid] + [repr(float(v)) for v in batch.S[n]])
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELS_HEADER)
        for n, pid in enumerate(batch.patient_ids):
            writer.writerow([pid, int(batch.y[n])])


def write_truth(descriptor, out_dir):
    (Path(out_dir) / "truth.json").write_text(json.dumps(descriptor, indent=1))
