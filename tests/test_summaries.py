import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumlearn.summaries
from sumlearn.summaries import (
    BLOCK_BYTES,
    EPS,
    EVER_MEASURED,
    FIRST_MEASURED,
    FRAC_ABOVE,
    FRAC_BELOW,
    INDICATOR_MEAN,
    INDICATOR_VARIANCE,
    LAST_MEASURED,
    MEAN,
    SLOPE,
    SWITCH_COUNT,
    VARIANCE,
    SummaryParams,
    compute_summary_tensor,
    sigmoid,
    window_weights,
)

from conftest import (
    FIX_A,
    FIX_B,
    FIX_C,
    full_window_params,
    s_ever_measured,
    s_first_measured,
    s_frac_above,
    s_frac_below,
    s_indicator_mean,
    s_indicator_variance,
    s_last_measured,
    s_mean,
    s_slope,
    s_slope_stderr,
    s_switch_count,
    s_variance,
)


TOL = 1e-9


def windows(C, T, tau=0.1, mode="relaxed"):
    """(D, I, T) windows for window lengths C alone."""
    D = len(C)
    return window_weights(SummaryParams(C, np.zeros(D), np.zeros(D), tau), T, mode)


class TestWeights:
    def test_full_window_weight_at_first_hour(self):
        w = windows(np.full((1, 1), 24.0), 24)
        assert w[0, 0, 0] == pytest.approx(sigmoid(10.0), abs=TOL)

    def test_zero_window_weight_at_final_hour(self):
        w = windows(np.zeros((1, 1)), 24)
        assert w[0, 0, -1] == pytest.approx(0.5, abs=TOL)

    def test_half_window_early_hour_is_tiny(self):
        w = windows(np.full((1, 1), 12.0), 24)
        assert w[0, 0, 5] == pytest.approx(sigmoid(-60.0), abs=1e-20)

    def test_hard_weights_are_indicators(self):
        w = windows(np.full((1, 1), 2.0), 4, mode="hard")
        assert w[0, 0, :].tolist() == [0.0, 0.0, 1.0, 1.0]
        assert windows(np.full((1, 1), 4.0), 4, mode="hard").all()
        assert not windows(np.zeros((1, 1)), 4, mode="hard").any()

    def test_monotone_in_C(self, rng):
        c1 = rng.uniform(0, 12, (3, 12))
        c2 = c1 + rng.uniform(0, 3, c1.shape)
        assert (windows(c2, 12) >= windows(c1, 12)).all()

    def test_monotone_in_t(self):
        w = windows(np.full((2, 12), 7.3), 24, tau=0.5)
        assert (np.diff(w, axis=-1) > 0).all()


class TestMean:
    # expected values keep the epsilon denominator guard, which shifts the
    # exact ratios by a few parts in 1e9
    def test_fixture_a(self):
        assert s_mean(*FIX_A) == pytest.approx(10.0 / (4.0 + EPS), abs=TOL)
        assert s_mean(*FIX_A) == pytest.approx(2.5, abs=1e-7)

    def test_fixture_b(self):
        assert s_mean(*FIX_B) == pytest.approx(7.0 / (2.0 + EPS), abs=TOL)
        assert s_mean(*FIX_B) == pytest.approx(3.5, abs=1e-7)

    def test_fixture_c(self):
        assert s_mean(*FIX_C) == pytest.approx(8.0 / (3.0 + EPS), abs=TOL)
        assert s_mean(*FIX_C) == pytest.approx(8.0 / 3.0, abs=1e-7)

    def test_nothing_measured(self):
        assert s_mean(FIX_A[0], np.zeros(4), np.ones(4)) == 0.0


class TestVariance:
    def test_fixture_a(self):
        assert s_variance(*FIX_A) == pytest.approx(5.0 / 3.0, abs=1e-7)

    def test_fixture_b(self):
        assert s_variance(*FIX_B) == pytest.approx(0.5, abs=1e-7)

    def test_constant_series(self):
        assert s_variance(np.full(4, 3.0), np.ones(4), np.ones(4)) == (
            pytest.approx(0.0, abs=TOL)
        )

    def test_single_point_is_near_zero(self):
        m = np.array([0.0, 0.0, 1.0, 0.0])
        assert s_variance(FIX_A[0], m, np.ones(4)) == pytest.approx(0.0, abs=1e-6)


class TestEverMeasured:
    def test_never_measured_is_half(self):
        assert s_ever_measured(np.zeros(4), np.ones(4), 0.1) == 0.5

    def test_fixture_a(self):
        expected = sigmoid(4.0 / (0.1 * 4.0 + EPS))
        assert s_ever_measured(np.ones(4), np.ones(4), 0.1) == (
            pytest.approx(expected, abs=TOL)
        )

    def test_fixture_c(self):
        expected = sigmoid(3.0 / (0.1 * 4.0 + EPS))
        assert s_ever_measured(FIX_C[1], np.ones(4), 0.1) == (
            pytest.approx(expected, abs=TOL)
        )


class TestIndicatorSummaries:
    def test_indicator_mean_full(self):
        assert s_indicator_mean(np.ones(4), np.ones(4)) == (
            pytest.approx(1.0, abs=1e-7)
        )

    def test_indicator_mean_fixture_c(self):
        assert s_indicator_mean(FIX_C[1], np.ones(4)) == (
            pytest.approx(0.75, abs=1e-7)
        )

    def test_indicator_mean_windowed(self):
        w = np.array([0.0, 0.0, 1.0, 1.0])
        assert s_indicator_mean(FIX_C[1], w) == pytest.approx(1.0, abs=1e-7)

    def test_indicator_variance_constant(self):
        assert s_indicator_variance(np.ones(4), np.ones(4)) == (
            pytest.approx(0.0, abs=TOL)
        )

    def test_indicator_variance_alternating(self):
        m = np.array([1.0, 0.0, 1.0, 0.0])
        assert s_indicator_variance(m, np.ones(4)) == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_indicator_variance_two_point_window(self):
        m = np.array([1.0, 1.0, 1.0, 0.0])
        w = np.array([0.0, 0.0, 1.0, 1.0])
        assert s_indicator_variance(m, w) == pytest.approx(0.5, abs=1e-7)

    def test_switch_count_no_switches(self):
        assert s_switch_count(np.ones(4), np.ones(4)) == pytest.approx(0.0, abs=TOL)

    def test_switch_count_alternating(self):
        m = np.array([1.0, 0.0, 1.0, 0.0])
        assert s_switch_count(m, np.ones(4)) == pytest.approx(0.75, abs=1e-7)

    def test_switch_count_single_switch(self):
        m = np.array([0.0, 0.0, 1.0, 1.0])
        assert s_switch_count(m, np.ones(4)) == pytest.approx(0.25, abs=1e-7)


class TestFirstLast:
    def test_half_measured(self):
        m = np.array([0.0, 0.0, 1.0, 1.0])
        assert s_first_measured(m) == 0.75
        assert s_last_measured(m) == 1.0

    def test_all_measured(self):
        assert s_first_measured(np.ones(4)) == 0.25
        assert s_last_measured(np.ones(4)) == 1.0

    def test_never_measured_sentinels(self):
        assert s_first_measured(np.zeros(4)) == 1.0
        assert s_last_measured(np.zeros(4)) == 0.0


class TestThresholdFractions:
    def test_saturated_split(self):
        x = np.array([0.0, 0.0, 10.0, 10.0])
        value = s_frac_above(x, np.ones(4), np.ones(4), np.asarray(5.0), 0.1)
        assert value == pytest.approx(0.5, abs=1e-7)

    def test_all_above(self):
        x = np.full(4, 100.0)
        value = s_frac_above(x, np.ones(4), np.ones(4), np.asarray(0.0), 0.1)
        assert value == pytest.approx(1.0, abs=1e-7)

    def test_on_threshold(self):
        x = np.full(4, 5.0)
        value = s_frac_above(x, np.ones(4), np.ones(4), np.asarray(5.0), 0.1)
        assert value == pytest.approx(0.5, abs=1e-7)

    def test_below_saturated(self):
        x = np.array([10.0, 10.0, 0.0, 0.0])
        value = s_frac_below(x, np.ones(4), np.ones(4), np.asarray(5.0), 0.1)
        assert value == pytest.approx(0.5, abs=1e-7)

    def test_below_is_mirrored_above(self, rng):
        x = rng.standard_normal(6)
        m = (rng.random(6) < 0.8).astype(float)
        w = rng.random(6)
        phi = np.asarray(0.3)
        below = s_frac_below(x, m, w, phi, 0.1)
        mirrored = s_frac_above(-x, m, w, -phi, 0.1)
        assert below == pytest.approx(mirrored, abs=TOL)


class TestSlope:
    def test_fixture_a(self):
        assert s_slope(*FIX_A) == pytest.approx(1.0, abs=1e-7)

    def test_constant_series(self):
        assert s_slope(np.full(4, 2.0), np.ones(4), np.ones(4)) == (
            pytest.approx(0.0, abs=TOL)
        )

    def test_two_point_window(self):
        assert s_slope(*FIX_B) == pytest.approx(1.0, abs=1e-7)

    def test_stderr_fixture_a(self):
        assert s_slope_stderr(FIX_A[1], FIX_A[2]) == pytest.approx(0.2, abs=1e-7)

    def test_stderr_fixture_b(self):
        assert s_slope_stderr(FIX_B[1], FIX_B[2]) == pytest.approx(2.0, abs=1e-6)

    def test_stderr_single_point_cap(self):
        m = np.array([0.0, 1.0, 0.0, 0.0])
        assert s_slope_stderr(m, np.ones(4)) == pytest.approx(1.0 / EPS, rel=1e-6)


class TestSummaryTensor:
    def test_fixture_a_row_matches_per_op_values(self):
        x = FIX_A[0][None, None, :]
        m = FIX_A[1][None, None, :]
        params = SummaryParams(
            C=np.full((1, 12), 4.0), phi_plus=np.array([2.5]),
            phi_minus=np.array([2.5]), tau_temp=0.1,
        )
        h = compute_summary_tensor(x, m, params, mode="hard")[0, 0]
        assert h[MEAN] == pytest.approx(2.5, abs=1e-7)
        assert h[VARIANCE] == pytest.approx(5.0 / 3.0, abs=1e-7)
        assert h[FRAC_ABOVE] == pytest.approx(0.5, abs=1e-7)
        assert h[FRAC_BELOW] == pytest.approx(0.5, abs=1e-7)
        assert h[SLOPE] == pytest.approx(1.0, abs=1e-7)

    def test_hard_mode_ignores_tau(self, rng):
        x = rng.standard_normal((4, 3, 10))
        m = (rng.random((4, 3, 10)) < 0.8).astype(float)
        pa = full_window_params(3, t=10, tau=0.1)
        pb = full_window_params(3, t=10, tau=7.0)
        a = compute_summary_tensor(x, m, pa, mode="hard")
        b = compute_summary_tensor(x, m, pb, mode="hard")
        assert np.array_equal(a, b)

    def test_relaxed_matches_hard_at_tiny_tau(self, rng):
        for _ in range(50):
            x = rng.standard_normal((2, 2, 8))
            m = (rng.random((2, 2, 8)) < 0.8).astype(float)
            c = np.round(rng.uniform(1, 7, (2, 12))) + 0.5
            params = SummaryParams(
                C=c, phi_plus=rng.standard_normal(2) + 5.0,
                phi_minus=rng.standard_normal(2) - 5.0, tau_temp=1e-4,
            )
            relaxed = compute_summary_tensor(x, m, params, mode="relaxed")
            hard = compute_summary_tensor(x, m, params, mode="hard")
            assert np.abs(relaxed - hard).max() < 1e-6

    def test_window_consistency_against_truncated_series(self, rng):
        t = 10
        for _ in range(50):
            x = rng.standard_normal((3, 2, t))
            m = (rng.random((3, 2, t)) < 0.85).astype(float)
            # keep at least two measured points inside every window, so
            # no summary sits on its epsilon guard
            m[:, :, -2:] = 1.0
            c = int(rng.integers(2, t + 1))
            params = SummaryParams(
                C=np.full((2, 12), float(c)),
                phi_plus=rng.standard_normal(2),
                phi_minus=rng.standard_normal(2), tau_temp=0.1,
            )
            windowed = compute_summary_tensor(x, m, params, mode="hard")
            full = SummaryParams(
                C=np.full((2, 12), float(c)), phi_plus=params.phi_plus,
                phi_minus=params.phi_minus, tau_temp=0.1,
            )
            truncated = compute_summary_tensor(
                x[:, :, t - c:], m[:, :, t - c:], full, mode="hard"
            )
            for i in (MEAN, VARIANCE, FRAC_ABOVE, FRAC_BELOW, SLOPE):
                assert np.abs(windowed[:, :, i] - truncated[:, :, i]).max() < 1e-12

    def test_hard_threshold_is_half_at_equality(self):
        # the step gate is the tau -> 0 limit of the soft one: 1/2 at zero
        x = np.full((1, 1, 4), 2.5)
        params = SummaryParams(
            C=np.full((1, 12), 4.0), phi_plus=np.array([2.5]),
            phi_minus=np.array([2.5]), tau_temp=0.1,
        )
        h = compute_summary_tensor(x, np.ones_like(x), params, mode="hard")[0, 0]
        assert h[FRAC_ABOVE] == pytest.approx(0.5, abs=1e-7)
        assert h[FRAC_BELOW] == pytest.approx(0.5, abs=1e-7)

    def test_all_missing_variable_is_finite(self):
        x = np.zeros((2, 2, 6))
        m = np.zeros((2, 2, 6))
        params = full_window_params(2, t=6)
        for mode in ("relaxed", "hard"):
            h = compute_summary_tensor(x, m, params, mode=mode)
            assert np.isfinite(h).all()

    def test_rejects_unknown_mode(self):
        x = np.zeros((1, 1, 4))
        with pytest.raises(ValueError):
            compute_summary_tensor(x, x, full_window_params(1, t=4), mode="soft")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.1, max_value=10.0))
def test_scale_equivariance(seed, a):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(8)
    m = (rng.random(8) < 0.8).astype(float)
    w = rng.random(8)
    assert s_mean(a * x, m, w) == pytest.approx(a * s_mean(x, m, w), rel=1e-7, abs=1e-9)
    assert s_variance(a * x, m, w) == pytest.approx(
        a * a * s_variance(x, m, w), rel=1e-6, abs=1e-9
    )
    assert s_slope(a * x, m, w) == pytest.approx(
        a * s_slope(x, m, w), rel=1e-6, abs=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_missingness_summaries_ignore_values(seed):
    rng = np.random.default_rng(seed)
    m = (rng.random((3, 2, 9)) < 0.7).astype(float)
    x1 = rng.standard_normal((3, 2, 9))
    x2 = rng.standard_normal((3, 2, 9)) * 50
    params = SummaryParams(
        C=rng.uniform(0, 9, (2, 12)), phi_plus=rng.standard_normal(2),
        phi_minus=rng.standard_normal(2), tau_temp=0.2,
    )
    h1 = compute_summary_tensor(x1, m, params, mode="relaxed")
    h2 = compute_summary_tensor(x2, m, params, mode="relaxed")
    for i in (EVER_MEASURED, INDICATOR_MEAN, INDICATOR_VARIANCE,
              SWITCH_COUNT, FIRST_MEASURED, LAST_MEASURED):
        assert np.array_equal(h1[:, :, i], h2[:, :, i])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_bounded_summaries_stay_in_range(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 2, 8)) * 10
    m = (rng.random((3, 2, 8)) < 0.6).astype(float)
    params = SummaryParams(
        C=rng.uniform(0, 8, (2, 12)), phi_plus=rng.standard_normal(2),
        phi_minus=rng.standard_normal(2), tau_temp=0.2,
    )
    h = compute_summary_tensor(x, m, params, mode="relaxed")
    assert np.isfinite(h).all()
    assert (h[:, :, VARIANCE] >= -1e-12).all()
    for i in (FRAC_ABOVE, FRAC_BELOW):
        assert (h[:, :, i] >= 0).all() and (h[:, :, i] <= 1 + 1e-12).all()


class TestSigmoid:
    def test_left_tail_is_relatively_exact(self):
        expected = np.exp(-40.0) / (1.0 + np.exp(-40.0))
        assert abs(sigmoid(-40.0) - expected) <= 1e-15 * expected

    def test_extremes_without_warnings(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(745.0) == 1.0
            assert sigmoid(-745.0) == np.exp(-745.0) > 0.0
            assert sigmoid(np.inf) == 1.0
            assert sigmoid(-np.inf) == 0.0
            assert np.isnan(sigmoid(np.nan))

    def test_zero_d_input_gives_a_float(self):
        for x in (0.0, np.float64(0.0), np.array(0.0)):
            value = sigmoid(x)
            assert type(value) is float and value == 0.5

    def test_equals_two_branch_form(self, rng):
        x = np.concatenate([rng.standard_normal(5000) * 30, [0.0, -0.0]])
        two_branch = np.empty_like(x)
        pos = x >= 0
        two_branch[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        two_branch[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        assert np.array_equal(sigmoid(x), two_branch)


# ------------------------------------------------------ multi-block batches
#
# The kernel walks the batch in row blocks of BLOCK_BYTES; these batches
# span at least three blocks.  The references evaluate each published
# formula directly, in extended precision, with the weights the kernel uses.

LD = np.longdouble


def _rows_per_block(d, t):
    return max(1, BLOCK_BYTES // (8 * d * t))


def _ref_pairs(v):
    """sum_{s<t} v_s v_t, i.e. ((sum v)^2 - sum v^2) / 2."""
    return (v[..., 1:] * np.cumsum(v[..., :-1], axis=-1)).sum(-1)


def _ref_variance(x, v):
    s1 = v.sum(-1)
    xbar = (v * x).sum(-1) / (s1 + EPS)
    q = (v * (x - xbar[..., None]) ** 2).sum(-1)
    return q * s1 / (2 * _ref_pairs(v) + EPS)


def _ref_slope_terms(x, v, t):
    s = v.sum(-1) + EPS
    a = t - ((v * t).sum(-1) / s)[..., None]
    b = x - ((v * x).sum(-1) / s)[..., None]
    return (v * a * b).sum(-1), (v * a * a).sum(-1) + EPS


def _reference_summaries(X, M, params, mode):
    X, M = X.astype(LD), M.astype(LD)
    N, D, T = X.shape
    W = window_weights(params, T, mode).astype(LD)  # (D, I, T)
    tau = LD(params.tau_temp)
    t = np.arange(1, T + 1).astype(LD)
    if mode == "relaxed":
        def gate(u):
            return 1 / (1 + np.exp(-u))
    else:
        def gate(u):
            return np.heaviside(u, LD(0.5))

    def v(i):
        return W[:, i] * M

    H = np.empty((N, D, 12), dtype=LD)
    H[..., 0] = (v(0) * X).sum(-1) / (v(0).sum(-1) + EPS)
    H[..., 1] = _ref_variance(X, v(1))
    H[..., 2] = gate(v(2).sum(-1) / (tau * W[:, 2].sum(-1) + EPS))
    H[..., 3] = v(3).sum(-1) / (W[:, 3].sum(-1) + EPS)
    H[..., 4] = _ref_variance(M, np.broadcast_to(W[:, 4], M.shape))
    H[..., 5] = (W[:, 5, :-1] * np.abs(np.diff(M, axis=-1))).sum(-1) / (
        W[:, 5].sum(-1) + EPS
    )
    measured = M.any(-1)
    H[..., 6] = np.where(measured, (M.argmax(-1) + 1) / LD(T), 1)
    H[..., 7] = np.where(measured, (T - M[..., ::-1].argmax(-1)) / LD(T), 0)
    above = gate((X - params.phi_plus.astype(LD)[:, None]) / tau)
    below = gate((params.phi_minus.astype(LD)[:, None] - X) / tau)
    H[..., 8] = (v(8) * above).sum(-1) / (v(8).sum(-1) + EPS)
    H[..., 9] = (v(9) * below).sum(-1) / (v(9).sum(-1) + EPS)
    num, den = _ref_slope_terms(X, v(10), t)
    H[..., 10] = num / den
    H[..., 11] = 1 / _ref_slope_terms(X, v(11), t)[1]
    return H


@pytest.mark.skipif(np.finfo(LD).eps > 1e-18,
                    reason="the references need an extended-precision long double")
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([0.0, 1e3]),
       st.sampled_from(["near_empty", "anywhere"]),
       st.floats(min_value=0.1, max_value=0.95))
def test_kernel_matches_formulas_across_blocks(seed, offset, windows, p_obs):
    rng = np.random.default_rng(seed)
    d, t = 4, 24
    n = 3 * _rows_per_block(d, t) + int(rng.integers(1, 20))
    X = rng.standard_normal((n, d, t)) + offset
    M = (rng.random((n, d, t)) < p_obs).astype(float)
    c_max = 0.5 if windows == "near_empty" else t
    params = SummaryParams(
        C=rng.uniform(0, c_max, (d, 12)),
        phi_plus=offset + rng.standard_normal(d),
        phi_minus=offset + rng.standard_normal(d), tau_temp=0.1,
    )
    for mode in ("relaxed", "hard"):
        H = compute_summary_tensor(X, M, params, mode=mode)
        ref = _reference_summaries(X, M, params, mode)
        err = np.abs(H - ref) / np.maximum(1, np.abs(ref))
        worst = np.unravel_index(err.argmax(), err.shape)
        assert float(err.max()) < 1e-12, (mode, worst)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_missingness_summaries_ignore_values_across_blocks(seed):
    rng = np.random.default_rng(seed)
    d, t = 3, 16
    n = 3 * _rows_per_block(d, t) + 5
    m = (rng.random((n, d, t)) < 0.7).astype(float)
    x1 = rng.standard_normal((n, d, t))
    x2 = rng.standard_normal((n, d, t)) * 50
    params = SummaryParams(
        C=rng.uniform(0, t, (d, 12)), phi_plus=rng.standard_normal(d),
        phi_minus=rng.standard_normal(d), tau_temp=0.2,
    )
    h1 = compute_summary_tensor(x1, m, params, mode="relaxed")
    h2 = compute_summary_tensor(x2, m, params, mode="relaxed")
    for i in (EVER_MEASURED, INDICATOR_MEAN, INDICATOR_VARIANCE,
              SWITCH_COUNT, FIRST_MEASURED, LAST_MEASURED):
        assert np.array_equal(h1[:, :, i], h2[:, :, i])


def test_scratch_buffers_are_sized_by_the_batch(monkeypatch):
    """A 1-row batch gets one row of scratch however large a block may be,
    and the same summaries and tangents."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((1, 6, 24))
    M = (rng.random((1, 6, 24)) < 0.7).astype(float)
    params = full_window_params(6, t=24)
    expected = compute_summary_tensor(X, M, params, tangent=True)
    monkeypatch.setattr(sumlearn.summaries, "BLOCK_BYTES", 2 ** 30)
    tracemalloc.start()
    try:
        got = compute_summary_tensor(X, M, params, tangent=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def _group_batch(tangent, n_groups=1, extra=0):
    """(X, M, w, phi_plus, phi_minus, tau, hard, tangent) arguments of
    summary_blocks for ``n_groups`` groups of row blocks plus ``extra`` rows."""
    rng = np.random.default_rng(3)
    d, t = 6, 24
    n = n_groups * sumlearn.summaries.GROUP_BLOCKS * _rows_per_block(d, t) + extra
    X = rng.standard_normal((n, d, t))
    M = (rng.random((n, d, t)) < 0.6).astype(float)
    params = SummaryParams(rng.uniform(0, t, (d, 12)), rng.standard_normal(d),
                           rng.standard_normal(d), 0.1)
    mode = "relaxed" if tangent else "hard"
    return (X, M, window_weights(params, t, mode), params.phi_plus,
            params.phi_minus, params.tau_temp, not tangent, tangent)


@pytest.mark.parametrize("tangent", [True, False], ids=["relaxed_tangent", "hard"])
def test_outputs_do_not_depend_on_the_group_size(monkeypatch, tangent):
    """The closed forms run once per group of blocks; any group size, from
    one block to the whole batch, gives the same bits."""
    args = _group_batch(tangent, n_groups=3, extra=_rows_per_block(6, 24) // 3)
    expected = sumlearn.summaries.summary_blocks(*args)
    for group_blocks in (1, 3, len(args[0])):
        monkeypatch.setattr(sumlearn.summaries, "GROUP_BLOCKS", group_blocks)
        got = sumlearn.summaries.summary_blocks(*args)
        for a, b in zip(got, expected):
            assert (a is None and b is None) or np.array_equal(a, b), group_blocks


def _working_set(args):
    """Peak bytes traced during one kernel call, less its outputs."""
    tracemalloc.start()
    try:
        out = sumlearn.summaries.summary_blocks(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in out if a is not None)


# Python objects (slices, views, small ints) that tracemalloc also counts
WORKING_SET_SLACK = 16 * 1024


@pytest.mark.parametrize("tangent", [True, False], ids=["relaxed_tangent", "hard"])
def test_working_set_does_not_grow_with_the_batch(monkeypatch, tangent):
    one, four = _group_batch(tangent, 1), _group_batch(tangent, 4)
    assert _working_set(four) <= _working_set(one) + WORKING_SET_SLACK
    # one group per call keeps every row's sums: the measure sees that
    monkeypatch.setattr(sumlearn.summaries, "GROUP_BLOCKS", len(four[0]))
    assert _working_set(four) > _working_set(one) + WORKING_SET_SLACK
