import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlearn.cli import main
from sumlearn.data import fit_normalization
from sumlearn.errors import NumericalError
from sumlearn.evaluate import (
    SUMMARY_PHRASES,
    _window_from_C,
    ablate_top_n,
    ablation_curve,
    ablation_tsv,
    auc,
    key_feature_report,
    report_tsv,
)
from sumlearn.model import (
    MODES,
    ModelParams,
    feature_columns,
    feature_names_for,
    predict,
)
from sumlearn.summaries import FRAC_ABOVE, FRAC_BELOW, N_SUMMARIES, SummaryParams

from conftest import full_window_params, random_batch


def brute_force_auc(scores, labels):
    """Pairwise comparison oracle with half-credit ties."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert auc(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0])) == 1.0

    def test_perfectly_wrong(self):
        assert auc(np.array([0.1, 0.2, 0.9, 0.8]), np.array([1, 1, 0, 0])) == 0.0

    def test_all_tied_is_half(self):
        assert auc(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0])) == 0.5

    def test_known_tie_case(self):
        scores = np.array([0.3, 0.5, 0.5, 0.7])
        labels = np.array([0, 0, 1, 1])
        # pairs: (.5>.3)=1, (.5=.5)=.5, (.7>.3)=1, (.7>.5)=1 -> 3.5/4
        assert auc(scores, labels) == pytest.approx(0.875)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        labels = np.zeros(n)
        labels[: max(1, n // 3)] = 1.0
        rng.shuffle(labels)
        if labels.sum() in (0, n):
            labels[0] = 1.0 - labels[0]
        assert auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("labels", [[1, 0, 0], [0, 1, 1]])
    def test_non_finite_score_is_a_numerical_error(self, bad, labels):
        with pytest.raises(NumericalError, match="1 non-finite score"):
            auc(np.array([bad, 0.1, 0.2]), np.array(labels))

    def test_invariant_to_monotone_transform(self, rng):
        scores = rng.random(50)
        labels = (rng.random(50) < 0.4).astype(float)
        assert auc(scores, labels) == pytest.approx(
            auc(np.exp(3 * scores), labels)
        )


class TestAblation:
    def test_keeps_exactly_top_n(self):
        mp = ModelParams(
            np.array([0.1, -3.0, 2.0, 0.0, -0.5]), 0.7,
            [f"f{i}" for i in range(5)],
        )
        kept = ablate_top_n(mp, 2)
        assert kept.coeffs.tolist() == [0.0, -3.0, 2.0, 0.0, 0.0]
        assert kept.bias == 0.7

    def test_n_larger_than_f_keeps_everything(self):
        mp = ModelParams(np.array([1.0, 2.0]), 0.0, ["a", "b"])
        assert np.array_equal(ablate_top_n(mp, 10).coeffs, mp.coeffs)

    def test_curve_is_evaluated_at_requested_ns(self, rng):
        batch = random_batch(rng, n=30)
        sp = full_window_params(3)
        names = feature_names_for(
            batch.variable_names, batch.static_names, batch.T, "relaxed"
        )
        mp = ModelParams(rng.standard_normal(len(names)), 0.0, names)
        curve = ablation_curve(sp, mp, batch, "relaxed", [1, 5, 15])
        assert [n for n, _ in curve] == [1, 5, 15]
        for _, value in curve:
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("mode", ["relaxed", "hard"])
    def test_curve_summarizes_once_and_scores_as_predict(self, rng, kernel_calls,
                                                         mode):
        batch = random_batch(rng, n=40)
        sp = full_window_params(3)
        names = feature_names_for(batch.variable_names, batch.static_names,
                                  batch.T, mode)
        mp = ModelParams(rng.standard_normal(len(names)), 0.3, names)
        curve = ablation_curve(sp, mp, batch, mode, [15, 1, 5])
        assert kernel_calls == [False]
        assert curve == [(n, auc(predict(batch, sp, ablate_top_n(mp, n), mode),
                                 batch.y)) for n in (1, 5, 15)]


class TestReport:
    def test_window_rendering(self):
        assert _window_from_C(24.0, 24) == (1, 24)
        assert _window_from_C(8.0, 24) == (17, 24)
        assert _window_from_C(0.4, 24) == (24, 24)

    def test_threshold_denormalized(self, rng):
        batch = random_batch(rng, n=20)
        stats = fit_normalization(batch)
        sp = full_window_params(3)
        sp.phi_plus[:] = 2.0
        names = feature_names_for(
            batch.variable_names, batch.static_names, batch.T, "relaxed"
        )
        coeffs = np.zeros(len(names))
        coeffs[names.index("var1:frac_above")] = 3.0
        mp = ModelParams(coeffs, 0.0, names)
        rows = key_feature_report(
            sp, mp, stats, batch.variable_names, batch.static_names, batch.T,
            "relaxed", top_k=1
        )
        raw = 2.0 * stats.std[1] + stats.mean[1]
        assert rows[0].variable == "var1"
        assert rows[0].threshold_raw == pytest.approx(raw)
        assert f"{raw:.2f}" in rows[0].summary

    def test_rank_order_follows_magnitude(self, rng):
        batch = random_batch(rng, n=20)
        stats = fit_normalization(batch)
        sp = full_window_params(3)
        names = feature_names_for(
            batch.variable_names, batch.static_names, batch.T, "relaxed"
        )
        mp = ModelParams(rng.standard_normal(len(names)), 0.0, names)
        rows = key_feature_report(
            sp, mp, stats, batch.variable_names, batch.static_names, batch.T,
            "relaxed", top_k=10
        )
        mags = [abs(r.coefficient) for r in rows]
        assert mags == sorted(mags, reverse=True)

    def test_tsv_shapes(self, rng):
        batch = random_batch(rng, n=20)
        stats = fit_normalization(batch)
        sp = full_window_params(3)
        names = feature_names_for(
            batch.variable_names, batch.static_names, batch.T, "relaxed"
        )
        mp = ModelParams(rng.standard_normal(len(names)), 0.0, names)
        rows = key_feature_report(
            sp, mp, stats, batch.variable_names, batch.static_names, batch.T,
            "relaxed", top_k=5
        )
        text = report_tsv(rows)
        lines = text.strip().split("\n")
        assert lines[0].split("\t")[0] == "rank"
        assert len(lines) == 6
        assert ablation_tsv([(1, 0.5), (5, 0.75)]).startswith("n\ttest_auc\n")

    def test_one_phrase_per_summary(self):
        assert len(SUMMARY_PHRASES) == N_SUMMARIES
        assert [i for i, p in enumerate(SUMMARY_PHRASES) if "{" in p] == [
            FRAC_ABOVE, FRAC_BELOW]

    @pytest.mark.parametrize("mode", MODES)
    def test_every_column_reads_as_its_kind(self, rng, mode):
        batch = random_batch(rng, n=20)
        stats = fit_normalization(batch)
        T = batch.T
        sp = SummaryParams(rng.uniform(0.5, T + 0.5, size=(3, N_SUMMARIES)),
                           rng.standard_normal(3), rng.standard_normal(3), 0.1)
        columns = feature_columns(batch.variable_names, batch.static_names, T,
                                  mode)
        F = len(columns)
        # |coefficient| falls with the column, so rank r is column r - 1
        mp = ModelParams(
            np.arange(F, 0, -1.0) * (-1.0) ** np.arange(F), 0.0,
            feature_names_for(batch.variable_names, batch.static_names, T, mode))
        rows = key_feature_report(sp, mp, stats, batch.variable_names,
                                  batch.static_names, T, mode, top_k=F)
        assert [row.rank for row in rows] == list(range(1, F + 1))
        raw = {FRAC_ABOVE: ("above", sp.phi_plus * stats.std + stats.mean),
               FRAC_BELOW: ("below", sp.phi_minus * stats.std + stats.mean)}
        for row, (block, name, index), coeff in zip(rows, columns, mp.coeffs):
            assert (row.variable, row.coefficient) == (name, coeff)
            if block == "static":
                expected = "static value", None, None, None
            elif block in ("x", "m", "xT", "mT"):
                assert index == T or block in ("x", "m")
                what = "value" if block.startswith("x") else "measured"
                expected = f"{what} at hour {index}", index, index, None
            else:
                d = batch.variable_names.index(name)
                start = _window_from_C(sp.C[d, index], T)[0]
                if index in raw:
                    word, threshold = raw[index][0], float(raw[index][1][d])
                    expected = f"hours {word} {threshold:.2f}", start, T, threshold
                else:
                    expected = SUMMARY_PHRASES[index], start, T, None
            assert (row.summary, row.window_start, row.window_end,
                    row.threshold_raw) == expected

    @pytest.mark.parametrize("mode", ["relaxed", "flat_series"])
    def test_report_names_variables_as_in_the_csv(self, tmp_path, capsys, mode):
        # ':' and '@' are the separators of feature names, and 'static' and
        # 'xT' are block names: none of them may change how a column reads
        cohort, out = tmp_path / "cohort", tmp_path / "report.tsv"
        assert main(["synth", "--out", str(cohort), "--n", "200", "--d", "4",
                     "--t", "12", "--seed", "0"]) == 0
        renamed = {"var0": "v:1", "var1": "v@2", "var2": "static", "var3": "xT"}
        series = cohort / "timeseries.csv"
        header, *lines = series.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        series.write_text("\n".join(
            [header] + [",".join([p, renamed[v], h, x]) for p, v, h, x in rows]))
        assert main(["train", "--cohort-dir", str(cohort), "--out",
                     str(tmp_path / "run"), "--t", "12", "--mode", mode,
                     "--epochs", "2", "--eval-interval", "1"]) == 0
        code = main(["report", "--checkpoint",
                     str(tmp_path / "run" / "seed_0" / "model.ckpt"),
                     "--top-k", "1000", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        report = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        statics = (cohort / "static.csv").read_text().splitlines()[0].split(",")[1:]
        assert {r[1] for r in report} == set(renamed.values()) | set(statics)
        for r in report:
            assert (r[2] == "static value") == (r[1] in statics), r
