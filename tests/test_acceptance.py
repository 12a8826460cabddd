"""Acceptance gate: nine numbered criteria, one pass/fail line each.

The synthetic-recovery criteria (5 and 6) share one five-seed training
sweep; everything else runs on small fixtures.  Expected values are
frozen from hand evaluation of the published formulas (including the
1e-8 denominator guards, which shift exact ratios by a few parts in 1e9).
"""

import json
import time

import numpy as np
import pytest

from sumlearn import (
    SynthSpec,
    TrainConfig,
    apply_normalization,
    auc,
    fit_normalization,
    generate,
    predict,
    split_by_patient,
    train,
)
from sumlearn.cli import main as cli_main
from sumlearn.evaluate import ablate_top_n
from sumlearn.gradients import finite_difference_check
from sumlearn.model import ModelParams, feature_names_for
from sumlearn.summaries import (
    EPS,
    FRAC_ABOVE,
    FRAC_BELOW,
    MEAN,
    SLOPE,
    VARIANCE,
    SummaryParams,
    compute_summary_tensor,
)

import conftest
from conftest import (
    FIX_A,
    FIX_B,
    FIX_C,
    random_batch,
    s_mean,
    s_slope,
    s_slope_stderr,
    s_variance,
)


def record(line):
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def verdict(ok):
    return "PASS" if ok else "FAIL"


# ----------------------------------------------------------------- sweep

SWEEP_SEEDS = (0, 1, 2, 3, 4)
PLANTED_WINDOW = 8
RELAXED_CONFIG = dict(
    learning_rate=0.02, lr_summary=0.15, batch_size=512, max_epochs=600,
    eval_interval=50, patience=12, alpha=1e-5, tau_hs=1.0, tau_temp=0.1,
)


def _run_seed(seed):
    spec = SynthSpec(n_examples=4000, n_variables=6, T=24, prevalence=0.15,
                     seed=seed)
    batch, _ = generate(spec)
    train_b, test_b = split_by_patient(batch, 0.25, seed)
    stats = fit_normalization(train_b)
    train_n = apply_normalization(train_b, stats)
    test_n = apply_normalization(test_b, stats)
    fit_b, val_b = split_by_patient(train_n, 0.15, seed + 1)

    result = {"seed": seed}
    for mode, lr_summary in (
        ("relaxed", 0.15), ("hard", 0.0), ("time_of_prediction_only", 0.0),
    ):
        config = TrainConfig(mode=mode, seed=seed,
                             **{**RELAXED_CONFIG, "lr_summary": lr_summary})
        fit = train(fit_b, val_b, config)
        sp, mp = fit.best_summary_params, fit.best_model_params
        result[mode] = auc(predict(test_n, sp, mp, mode), test_n.y)
        if mode == "relaxed":
            result["C_slope"] = float(sp.C[0, SLOPE])
            order = np.argsort(-np.abs(mp.coeffs), kind="stable")[:5]
            result["top5"] = [mp.feature_names[c] for c in order]
            kept = ablate_top_n(mp, 15)
            result["top15_auc"] = auc(
                predict(test_n, sp, kept, "relaxed"), test_n.y
            )
    return result


@pytest.fixture(scope="module")
def sweep():
    started = time.time()
    results = [_run_seed(s) for s in SWEEP_SEEDS]
    return results, time.time() - started


# ------------------------------------------------------------- criteria


def test_criterion_1_gradient_correctness():
    started = time.time()
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, n=8, d=3, t=12)
        batch.M[:, :, -2:] = 1.0  # finite differences need non-degenerate cells
        sp = SummaryParams(
            C=rng.uniform(2.5, 10.5, (3, 12)),
            phi_plus=0.5 + 0.5 * rng.standard_normal(3),
            phi_minus=-0.5 + 0.5 * rng.standard_normal(3),
            tau_temp=0.1,
        )
        names = feature_names_for(
            batch.variable_names, batch.static_names, 12, "relaxed"
        )
        mp = ModelParams(0.5 * rng.standard_normal(len(names)), 0.2, names)
        config = TrainConfig(alpha=1e-3, tau_temp=0.1, mode="relaxed")
        report = finite_difference_check(
            sp, mp, batch, config, seed=seed
        )
        worst = max(worst, report.max_rel_error)
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 10.0
    record(
        f"criterion 1 ({verdict(ok)}): finite-difference gradient check, "
        f"max rel error {worst:.2e} (< 1e-4), {elapsed:.1f} s (< 10 s)"
    )
    assert ok


def test_criterion_2_relaxation_limit():
    rng = np.random.default_rng(7)
    n, d, t = 500, 2, 16  # 1000 (example, variable) fixtures
    x = np.clip(rng.standard_normal((n, d, t)), -4.0, 4.0)
    m = (rng.random((n, d, t)) < 0.8).astype(float)
    m[:, :, -1] = 1.0  # keep the ever-measured sigmoid away from zero
    params = SummaryParams(
        C=rng.integers(2, t, (d, 12)) + 0.5,  # half-integer: 0.5 from any t
        phi_plus=np.full(d, 4.5), phi_minus=np.full(d, -4.5),
        tau_temp=1e-4,
    )
    # every sigmoid argument is at least 0.01/tau = 100 >> 14
    relaxed = compute_summary_tensor(x, m, params, mode="relaxed")
    hard = compute_summary_tensor(x, m, params, mode="hard")
    gap = float(np.abs(relaxed - hard).max())
    ok = gap < 1e-6
    record(
        f"criterion 2 ({verdict(ok)}): relaxed vs hard summaries at "
        f"tau=1e-4 on 1000 fixtures, max gap {gap:.2e} (< 1e-6)"
    )
    assert ok


def test_criterion_3_window_consistency():
    rng = np.random.default_rng(11)
    t = 16
    worst = 0.0
    for _ in range(200):
        x = rng.standard_normal((1, 2, t))
        m = (rng.random((1, 2, t)) < 0.85).astype(float)
        m[:, :, -2:] = 1.0  # at least two measured points per window
        c = int(rng.integers(2, t + 1))
        params = SummaryParams(
            C=np.full((2, 12), float(c)),
            phi_plus=rng.standard_normal(2), phi_minus=rng.standard_normal(2),
            tau_temp=0.1,
        )
        windowed = compute_summary_tensor(x, m, params, mode="hard")
        truncated = compute_summary_tensor(
            x[:, :, t - c:], m[:, :, t - c:], params, mode="hard"
        )
        for i in (MEAN, VARIANCE, FRAC_ABOVE, FRAC_BELOW, SLOPE):
            worst = max(
                worst, float(np.abs(windowed[:, :, i] - truncated[:, :, i]).max())
            )
    ok = worst < 1e-12
    record(
        f"criterion 3 ({verdict(ok)}): hard windows vs truncated series on "
        f"200 fixtures, max gap {worst:.2e} (< 1e-12)"
    )
    assert ok


def test_criterion_4_per_formula_oracles():
    checks = [
        # (actual, hand evaluation of the guarded formula)
        (s_mean(*FIX_A), 10.0 / (4.0 + EPS)),
        (s_mean(*FIX_B), 7.0 / (2.0 + EPS)),
        (s_mean(*FIX_C), 8.0 / (3.0 + EPS)),
        (s_variance(*FIX_A), _hand_variance([1, 2, 3, 4], [1, 1, 1, 1])),
        (s_variance(*FIX_B), _hand_variance([1, 2, 3, 4], [0, 0, 1, 1])),
        (s_slope(*FIX_A), _hand_slope([1, 2, 3, 4], [1, 1, 1, 1])),
        (s_slope(*FIX_B), _hand_slope([1, 2, 3, 4], [0, 0, 1, 1])),
        (s_slope_stderr(FIX_A[1], FIX_A[2]), _hand_stderr([1, 1, 1, 1])),
        (s_slope_stderr(FIX_B[1], FIX_B[2]), _hand_stderr([0, 0, 1, 1])),
    ]
    worst = max(abs(float(a) - e) for a, e in checks)
    # printed reference values hold to 4 decimals
    sanity = [
        (s_mean(*FIX_A), 2.5), (s_mean(*FIX_B), 3.5),
        (s_variance(*FIX_A), 5.0 / 3.0), (s_variance(*FIX_B), 0.5),
        (s_slope(*FIX_A), 1.0), (s_slope_stderr(FIX_B[1], FIX_B[2]), 2.0),
    ]
    rounded = max(abs(float(a) - e) for a, e in sanity)
    ok = worst < 1e-9 and rounded < 1e-4
    record(
        f"criterion 4 ({verdict(ok)}): worked fixtures A/B/Cfx, max error "
        f"{worst:.2e} (< 1e-9) vs formulas, {rounded:.2e} (< 1e-4) vs "
        f"printed values"
    )
    assert ok


def _hand_variance(x, v):
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    s1, s2 = v.sum(), (v * v).sum()
    xbar = (v * x).sum() / (s1 + 1e-8)
    q = (v * (x - xbar) ** 2).sum()
    return q * s1 / (s1 * s1 - s2 + 1e-8)


def _hand_slope(x, v):
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    t = np.arange(1.0, len(x) + 1)
    s = v.sum() + 1e-8
    tbar, xbar = (v * t).sum() / s, (v * x).sum() / s
    return (v * (t - tbar) * (x - xbar)).sum() / ((v * (t - tbar) ** 2).sum() + 1e-8)


def _hand_stderr(v):
    v = np.asarray(v, dtype=float)
    t = np.arange(1.0, len(v) + 1)
    tbar = (v * t).sum() / (v.sum() + 1e-8)
    return 1.0 / ((v * (t - tbar) ** 2).sum() + 1e-8)


def test_criterion_5_synthetic_recovery(sweep):
    results, elapsed = sweep
    relaxed = np.mean([r["relaxed"] for r in results])
    hard = np.mean([r["hard"] for r in results])
    top = np.mean([r["time_of_prediction_only"] for r in results])
    in_top5 = sum("var0:slope" in r["top5"] for r in results)
    c_ok = sum(abs(r["C_slope"] - PLANTED_WINDOW) <= 3 for r in results)
    ok_a = relaxed >= 0.85
    ok_b = relaxed >= hard - 0.005 and relaxed - top >= 0.03
    ok_c = in_top5 >= 4
    ok_d = c_ok >= 3
    ok_time = elapsed < 15 * 60
    ok = ok_a and ok_b and ok_c and ok_d and ok_time
    record(
        f"criterion 5 ({verdict(ok)}): synthetic recovery over 5 seeds, "
        f"relaxed AUC {relaxed:.4f} (>= 0.85), hard {hard:.4f} "
        f"(margin >= -0.005), baseline {top:.4f} (margin >= 0.03), "
        f"planted pair in top-5 {in_top5}/5 (>= 4), learned window within "
        f"+-3 h {c_ok}/5 (>= 3), {elapsed / 60:.1f} min (< 15)"
    )
    assert ok_a, f"mean relaxed AUC {relaxed:.4f} < 0.85"
    assert ok_b, f"relaxed {relaxed:.4f} vs hard {hard:.4f} / baseline {top:.4f}"
    assert ok_c, f"planted pair in top-5 only {in_top5}/5"
    assert ok_d, f"window recovered only {c_ok}/5"
    assert ok_time


def test_criterion_6_ablation_beats_baseline(sweep):
    results, _ = sweep
    top15 = np.mean([r["top15_auc"] for r in results])
    baseline = np.mean([r["time_of_prediction_only"] for r in results])
    ok = top15 >= baseline
    record(
        f"criterion 6 ({verdict(ok)}): top-15-coefficient summary model AUC "
        f"{top15:.4f} >= full time-of-prediction baseline {baseline:.4f}"
    )
    assert ok


def test_criterion_7_horseshoe_sparsity():
    def gini(c):
        a = np.sort(np.abs(c))
        n = a.size
        return float(((2 * np.arange(1, n + 1) - n - 1) * a).sum() / (n * a.sum()))

    matched, sparser = 0, 0
    for seed in range(5):
        spec = SynthSpec(n_examples=2000, seed=100 + seed)
        batch, _ = generate(spec)
        train_b, _ = split_by_patient(batch, 0.25, seed)
        stats = fit_normalization(train_b)
        train_n = apply_normalization(train_b, stats)
        fit_b, val_b = split_by_patient(train_n, 0.15, seed + 1)
        runs = {}
        for penalty, alpha in (("horseshoe", 1e-4), ("none", 0.0)):
            config = TrainConfig(
                learning_rate=0.02, lr_summary=0.0, batch_size=512,
                max_epochs=300, eval_interval=50, patience=6,
                alpha=alpha, penalty=penalty, mode="hard", seed=seed,
            )
            fit = train(fit_b, val_b, config)
            sp, mp = fit.best_summary_params, fit.best_model_params
            runs[penalty] = (
                auc(predict(fit_b, sp, mp, "hard"), fit_b.y), gini(mp.coeffs)
            )
        matched += abs(runs["horseshoe"][0] - runs["none"][0]) <= 0.01
        sparser += runs["horseshoe"][1] > runs["none"][1]
    ok = matched == 5 and sparser == 5
    record(
        f"criterion 7 ({verdict(ok)}): horseshoe Gini above alpha=0 run "
        f"{sparser}/5 seeds at matched train AUC {matched}/5 (both 5/5)"
    )
    assert ok


def test_criterion_8_determinism(tmp_path):
    cohort = tmp_path / "cohort"
    assert cli_main([
        "synth", "--out", str(cohort), "--n", "400", "--d", "4", "--t", "12",
        "--seed", "2",
    ]) == 0
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main([
            "train", "--cohort-dir", str(cohort), "--out", str(out),
            "--t", "12", "--seeds", "0", "--epochs", "40",
            "--eval-interval", "10", "--batch-size", "64",
        ]) == 0
        outputs.append({
            f: (out / "seed_0" / f).read_bytes()
            for f in ("history.jsonl", "metrics.json", "model.ckpt")
        })
    ok = outputs[0] == outputs[1]
    record(
        f"criterion 8 ({verdict(ok)}): identical config and seed gave "
        f"bit-identical history, metrics and checkpoint files"
    )
    assert ok


def test_criterion_9_null_signal_control():
    seed = 7
    spec = SynthSpec(
        n_examples=12000, seed=seed,
        trend_weight=0.0, threshold_weight=0.0, missing_weight=0.0,
    )
    batch, _ = generate(spec)
    train_b, test_b = split_by_patient(batch, 0.25, seed)
    stats = fit_normalization(train_b)
    train_n = apply_normalization(train_b, stats)
    test_n = apply_normalization(test_b, stats)
    fit_b, val_b = split_by_patient(train_n, 0.15, seed + 1)
    config = TrainConfig(
        learning_rate=0.02, lr_summary=0.15, batch_size=512, max_epochs=100,
        eval_interval=50, patience=4, alpha=1e-5, mode="relaxed", seed=seed,
    )
    fit = train(fit_b, val_b, config)
    value = auc(
        predict(test_n, fit.best_summary_params, fit.best_model_params,
                "relaxed"),
        test_n.y,
    )
    ok = 0.47 <= value <= 0.53
    record(
        f"criterion 9 ({verdict(ok)}): null-signal cohort test AUC "
        f"{value:.4f} (within [0.47, 0.53])"
    )
    assert ok
