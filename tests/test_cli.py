import argparse
import contextlib
import dataclasses
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlearn import SynthSpec, TrainConfig, apply_normalization, auc, predict
from sumlearn.cli import FIELD_TYPES, build_parser, main, read_config
from sumlearn.data import NormalizationStats, build_batch, ingest_csv
from sumlearn.model import (
    ModelParams,
    feature_names_for,
    load_checkpoint,
    save_checkpoint,
)
from sumlearn.summaries import N_SUMMARIES, SummaryParams


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    code = main([
        "synth", "--out", str(out), "--n", "300", "--d", "4", "--t", "12",
        "--seed", "1",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "train", "--cohort-dir", str(cohort_dir), "--out", str(out),
        "--t", "12", "--seeds", "0", "--epochs", "40", "--eval-interval", "10",
        "--patience", "3", "--lr", "0.05", "--lr-summary", "0.1",
        "--batch-size", "64",
    ])
    assert code == 0
    return out


class TestSynth:
    def test_writes_three_csvs_and_truth(self, cohort_dir):
        for name in ("timeseries.csv", "static.csv", "labels.csv",
                     "truth.json"):
            assert (cohort_dir / name).exists()

    def test_truth_lists_planted_signals(self, cohort_dir):
        truth = json.loads((cohort_dir / "truth.json").read_text())
        assert len(truth["signals"]) == 3


class TestTrain:
    def test_artifacts_exist(self, trained_dir):
        seed_dir = trained_dir / "seed_0"
        assert (seed_dir / "model.ckpt").exists()
        assert (seed_dir / "history.jsonl").exists()
        assert (seed_dir / "metrics.json").exists()
        assert (trained_dir / "summary.json").exists()

    def test_summary_formatting(self, trained_dir):
        summary = json.loads((trained_dir / "summary.json").read_text())
        assert "±" in summary["formatted"]
        assert 0.0 <= summary["test_auc_mean"] <= 1.0

    def test_metrics_fields(self, trained_dir):
        metrics = json.loads(
            (trained_dir / "seed_0" / "metrics.json").read_text()
        )
        assert {"train_auc", "test_auc", "seed"} <= set(metrics)


    def test_normalization_warnings_go_to_stderr(self, cohort_dir, tmp_path,
                                                 capsys):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        with open(cohort / "timeseries.csv", "a") as fh:
            fh.write("unlabelled,ghost,1,5.0\n")  # no labelled patient has ghost
        code = main([
            "train", "--cohort-dir", str(cohort), "--out", str(tmp_path / "run"),
            "--t", "12", "--seeds", "0,1", "--epochs", "2", "--eval-interval", "1",
            "--batch-size", "64",
        ])
        assert code == 0
        assert capsys.readouterr().err == "".join(
            f"warning: seed {seed}: variable 'ghost' never measured in train\n"
            for seed in (0, 1))


class TestEvalReportAblate:
    def test_eval_runs_on_cohort(self, cohort_dir, trained_dir, tmp_path):
        out = tmp_path / "eval.json"
        code = main([
            "eval", "--checkpoint", str(trained_dir / "seed_0" / "model.ckpt"),
            "--cohort-dir", str(cohort_dir), "--out", str(out),
        ])
        assert code == 0
        result = json.loads(out.read_text())
        assert 0.0 <= result["auc"] <= 1.0

    def test_report_tsv(self, trained_dir, tmp_path):
        out = tmp_path / "report.tsv"
        code = main([
            "report", "--checkpoint", str(trained_dir / "seed_0" / "model.ckpt"),
            "--top-k", "5", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("rank\tvariable\tsummary")
        assert len(lines) == 6

    def test_ablate_tsv(self, cohort_dir, trained_dir, tmp_path):
        out = tmp_path / "ablation.tsv"
        code = main([
            "ablate", "--checkpoint", str(trained_dir / "seed_0" / "model.ckpt"),
            "--cohort-dir", str(cohort_dir), "--n-list", "1,5,15",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n\ttest_auc"
        assert len(lines) == 4


    def test_eval_and_ablate_score_a_categorical_model(self, cohort_dir, tmp_path,
                                                       capsys):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        lines = (cohort / "static.csv").read_text().splitlines()
        units = ["CCU", "MICU", "SICU"]
        (cohort / "static.csv").write_text("".join(
            f"{line},{'unit' if k == 0 else units[k % 3]}\n"
            for k, line in enumerate(lines)))
        run = tmp_path / "run"
        assert main([
            "train", "--cohort-dir", str(cohort), "--out", str(run), "--t", "12",
            "--epochs", "20", "--eval-interval", "10", "--batch-size", "64",
            "--lr", "0.05", "--categorical", "unit",
        ]) == 0
        ckpt = run / "seed_0" / "model.ckpt"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--cohort-dir", str(cohort)]) == 0
        printed = json.loads(capsys.readouterr().out)["auc"]
        assert main(["ablate", "--checkpoint", str(ckpt), "--cohort-dir", str(cohort),
                     "--n-list", "1,5", "--out", str(tmp_path / "abl.tsv")]) == 0

        loaded = load_checkpoint(ckpt)
        assert {"unit=CCU", "unit=MICU", "unit=SICU"} <= set(loaded["static_names"])
        raw = ingest_csv(cohort / "timeseries.csv", cohort / "static.csv",
                         cohort / "labels.csv", 12, categorical_columns=("unit",))
        stats = loaded["stats"]
        batch = apply_normalization(build_batch(raw, stats.population_median), stats)
        scores = predict(batch, loaded["summary_params"], loaded["model_params"],
                         loaded["config"].mode)
        assert printed == auc(scores, batch.y)


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["train", "--out", "/tmp/nowhere"]) == 1

    def test_unknown_flag_is_1(self, capsys):
        assert main(["synth", "--out", "/tmp/x", "--bogus", "1"]) == 1

    def test_data_error_is_2(self, tmp_path, trained_dir):
        (tmp_path / "timeseries.csv").write_text(
            "patient_id,variable,hour,value\np1,hr,oops,1\n"
        )
        (tmp_path / "static.csv").write_text("patient_id,age\np1,50\n")
        (tmp_path / "labels.csv").write_text("patient_id,label\np1,1\n")
        code = main([
            "eval", "--checkpoint", str(trained_dir / "seed_0" / "model.ckpt"),
            "--cohort-dir", str(tmp_path),
        ])
        assert code == 2

    def test_bad_checkpoint_is_2(self, cohort_dir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("{}")
        code = main([
            "eval", "--checkpoint", str(bad), "--cohort-dir", str(cohort_dir),
        ])
        assert code == 2

    def test_non_finite_window_is_3(self, cohort_dir, tmp_path, monkeypatch,
                                    capsys):
        import sumlearn.training as training

        real = training.loss_and_gradients

        def nan_window_grads(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            grads.d_C[:] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "loss_and_gradients", nan_window_grads)
        code = main([
            "train", "--cohort-dir", str(cohort_dir), "--out", str(tmp_path),
            "--t", "12", "--seeds", "0", "--epochs", "2", "--eval-interval", "1",
            "--batch-size", "64",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "block: C" in err
        assert "Traceback" not in err

    def test_gradcheck_passes_with_0(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        assert "max relative error" in capsys.readouterr().out


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "learning_rate = 0.01\n"
            "mode = hard\n"
            "\n"
            "max_epochs = 25\n"
        )
        parsed = read_config(cfg)
        assert parsed == {
            "learning_rate": "0.01", "mode": "hard", "max_epochs": "25",
        }

    def test_cli_flag_overrides_config(self, cohort_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_epochs = 10\nlearning_rate = 0.05\n")
        out = tmp_path / "run"
        code = main([
            "train", "--cohort-dir", str(cohort_dir), "--out", str(out),
            "--t", "12", "--config", str(cfg), "--epochs", "20",
            "--eval-interval", "10", "--batch-size", "64",
        ])
        assert code == 0
        ckpt = json.loads((out / "seed_0" / "model.ckpt").read_text())
        assert ckpt["config"]["max_epochs"] == 20
        assert ckpt["config"]["learning_rate"] == 0.05


class TestDeterminism:
    def test_identical_runs_produce_identical_files(self, cohort_dir, tmp_path):
        args_for = lambda out: [
            "train", "--cohort-dir", str(cohort_dir), "--out", str(out),
            "--t", "12", "--seeds", "3", "--epochs", "30",
            "--eval-interval", "10", "--batch-size", "64",
        ]
        assert main(args_for(tmp_path / "a")) == 0
        assert main(args_for(tmp_path / "b")) == 0
        for name in ("history.jsonl", "metrics.json", "model.ckpt"):
            a = (tmp_path / "a" / "seed_3" / name).read_bytes()
            b = (tmp_path / "b" / "seed_3" / name).read_bytes()
            assert a == b, name


# the loader's message for feature_names that are not the checkpoint's layout
LAYOUT = "feature_names are not the relaxed design columns"


def assert_fails(capsys, code, expected_code, needle):
    """A typed failure: the exit code and one stderr line naming the cause."""
    err = capsys.readouterr().err
    assert code == expected_code, err
    assert needle in err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestConfigSchema:
    def test_every_flag_stores_into_a_field_or_a_command_argument(self):
        common = {"help", "out", "config"}
        cohort = {"cohort_dir", "categorical"}
        commands = {
            "synth": (SynthSpec, common),
            "train": (TrainConfig, common | cohort | {"seeds", "t", "test_fraction"}),
        }
        sub, = (a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        for command, (cls, arguments) in commands.items():
            fields = {f.name for f in dataclasses.fields(cls)}
            for action in sub.choices[command]._actions:
                assert action.dest in fields | arguments, (command, action.dest)
        assert set(FIELD_TYPES.values()) <= {"int", "float", "str"}

    @pytest.mark.parametrize("key", ["epochs", "learning_rat"])
    def test_unknown_key_is_1(self, cohort_dir, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = relaxed\n{key} = 1\n")
        code = main([
            "train", "--cohort-dir", str(cohort_dir), "--out", str(tmp_path / "run"),
            "--t", "12", "--config", str(cfg),
        ])
        assert_fails(capsys, code, 1, f"line 2: unknown key {key!r}")

    def test_one_file_serves_synth_and_train(self, tmp_path):
        cfg = tmp_path / "both.cfg"
        cfg.write_text(
            "n_examples = 200\nn_variables = 3\nT = 8\nseed = 2\n"
            "max_epochs = 3\neval_interval = 3\nbatch_size = 32\n"
        )
        cohort, run = tmp_path / "cohort", tmp_path / "run"
        assert main(["synth", "--out", str(cohort), "--config", str(cfg)]) == 0
        assert main([
            "train", "--cohort-dir", str(cohort), "--out", str(run), "--t", "8",
            "--config", str(cfg),
        ]) == 0
        ckpt = json.loads((run / "seed_0" / "model.ckpt").read_text())
        assert (ckpt["D"], ckpt["T"]) == (3, 8)
        assert ckpt["config"]["max_epochs"] == 3
        assert ckpt["config"]["batch_size"] == 32


def _rename(doc, key, old, new):
    """Rename ``old`` to ``new`` in a checkpoint's ``key`` names and in the
    feature names built from them."""
    norm = doc["normalization"]
    norm[key] = [new if name == old else name for name in norm[key]]
    doc["feature_names"] = [name.replace(old, new) for name in doc["feature_names"]]


class TestTypedFailures:
    @pytest.mark.parametrize("text, needle", [
        (None, "cannot read config file"),
        ("max_epochs = ten\n", "line 1: max_epochs = 'ten' is not int"),
        ("alpha = 1e-5\nlearning_rate = fast\n", "line 2: learning_rate"),
    ], ids=["missing", "int", "float"])
    def test_bad_config_is_1(self, cohort_dir, tmp_path, capsys, text, needle):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        code = main([
            "train", "--cohort-dir", str(cohort_dir), "--out", str(tmp_path / "run"),
            "--config", str(cfg),
        ])
        assert_fails(capsys, code, 1, needle)

    def test_unreadable_config_is_1(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "c"), "--config", str(tmp_path)])
        assert_fails(capsys, code, 1, f"cannot read config file {tmp_path}")

    @pytest.mark.parametrize("args, needle", [
        (["train", "--seeds", "0,x"], "argument --seeds: '0,x' is not"),
        (["ablate", "--n-list", "1,a"], "argument --n-list: '1,a' is not"),
        (["ablate", "--n-list", "-1"], "argument --n-list: '-1' is not"),
        (["train", "--seeds", "0,0"], "argument --seeds: '0,0' repeats a value"),
        (["ablate", "--n-list", "5,5"], "argument --n-list: '5,5' repeats a value"),
    ], ids=["seeds", "n_list", "negative_n", "repeated_seed", "repeated_n"])
    def test_bad_int_list_is_1(self, cohort_dir, trained_dir, tmp_path, capsys,
                               args, needle):
        if args[0] == "ablate":
            args += ["--checkpoint", str(trained_dir / "seed_0" / "model.ckpt")]
        code = main(args + ["--cohort-dir", str(cohort_dir),
                            "--out", str(tmp_path / "out")])
        assert_fails(capsys, code, 1, needle)

    @pytest.mark.parametrize("value", ["-1", "2.5"])
    def test_bad_top_k_is_1(self, trained_dir, capsys, value):
        ckpt = trained_dir / "seed_0" / "model.ckpt"
        code = main(["report", "--checkpoint", str(ckpt), "--top-k", value])
        assert_fails(capsys, code, 1, f"argument --top-k: {value!r} is not")

    @pytest.mark.parametrize("flag", ["--eval-interval", "--epochs"])
    def test_zero_epochs_or_eval_interval_is_2(self, cohort_dir, tmp_path, capsys,
                                               flag):
        code = main([
            "train", "--cohort-dir", str(cohort_dir), "--out", str(tmp_path / "run"),
            "--t", "12", flag, "0",
        ])
        field = {"--eval-interval": "eval_interval", "--epochs": "max_epochs"}[flag]
        assert_fails(capsys, code, 2, f"{field} must be >= 1")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("args, needle", [
        (["train", "--lr", "nan"], "learning_rate = nan is not finite"),
        (["train", "--alpha", "nan"], "alpha = nan is not finite"),
        (["train", "--tau-temp", "inf"], "tau_temp = inf is not finite"),
        (["train", "--lr-summary", "-1"], "lr_summary must be non-negative"),
        (["synth", "--n", "-3"], "n_examples must be >= 1"),
        (["synth", "--n", "0"], "n_examples must be >= 1"),
        (["synth", "--config", "n_static = 0\n"], "n_static must be >= 1"),
        (["synth", "--prevalence", "inf"], "prevalence = inf is not finite"),
        (["synth", "--config", "trend_var = -1\nn_examples = 50\n"],
         "planted variables must be distinct and in range"),
        (["synth", "--seed", "-1"], "seed must be >= 0"),
        (["synth", "--config", "seed = -1\n"], "seed must be >= 0"),
        (["train", "--config", "seed = -1\n"], "seed must be >= 0"),
        # numpy refuses each (4000, 6, T) shape before allocating anything
        (["synth", "--t", str(10**20)],
         f"T = {10**20}: cannot allocate the (4000, 6, {10**20}) series array"),
        (["synth", "--t", str(3 * 10**18)],
         f"T = {3 * 10**18}: cannot allocate the (4000, 6, {3 * 10**18}) "
         "series array"),
    ], ids=["nan_lr", "nan_alpha", "inf_tau_temp", "negative_lr_summary",
            "negative_n", "zero_n", "zero_n_static", "inf_prevalence",
            "negative_trend_var", "negative_seed", "negative_seed_in_config",
            "negative_train_seed_in_config", "synth_T_1e20", "synth_T_3e18"])
    def test_config_value_out_of_range_is_2(self, cohort_dir, tmp_path, capsys,
                                            args, needle):
        if "--config" in args:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(args[-1])
            args = args[:-1] + [str(cfg)]
        if args[0] == "train":
            args += ["--cohort-dir", str(cohort_dir), "--t", "12"]
        code = main(args + ["--out", str(tmp_path / "out")])
        assert_fails(capsys, code, 2, needle)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--epsilon", "0"), ("--epsilon", "-1"), ("--epsilon", "nan"),
        ("--epsilon", "inf"), ("--tolerance", "x"),
    ])
    def test_bad_gradcheck_number_is_1(self, capsys, flag, value):
        code = main(["gradcheck", flag, value])
        assert_fails(capsys, code, 1,
                     f"argument {flag}: {value!r} is not a positive finite number")

    def test_negative_gradcheck_seed_is_1(self, capsys):
        code = main(["gradcheck", "--seed", "-1"])
        assert_fails(capsys, code, 1,
                     "argument --seed: '-1' is not a non-negative integer")

    def test_missing_checkpoint_is_2(self, cohort_dir, tmp_path, capsys):
        missing = tmp_path / "absent.ckpt"
        code = main(["eval", "--checkpoint", str(missing), "--cohort-dir", str(cohort_dir)])
        assert_fails(capsys, code, 2, str(missing))

    @pytest.mark.parametrize("edit, needle", [
        (lambda doc: doc["C"].pop(), "C is not a (4, 12) array"),
        (lambda doc: doc["C"][1].pop(), "C is not a (4, 12) array"),
        (lambda doc: doc["phi_plus"].pop(), "phi_plus is not a (4,) array"),
        (lambda doc: doc["phi_minus"].append(0.0), "phi_minus is not a (4,) array"),
        (lambda doc: doc["config"].update(epochs=1), "unknown ['epochs']"),
        (lambda doc: doc["config"].pop("mode"), "missing ['mode']"),
        (lambda doc: doc["feature_names"].__setitem__(0, "var9:mean"), LAYOUT),
        (lambda doc: doc["feature_names"].__setitem__(1, "var0:median"), LAYOUT),
        (lambda doc: doc["feature_names"].__setitem__(-1, "x:var0@abc"), LAYOUT),
        (lambda doc: doc["coeffs"].__setitem__(3, math.nan), "coeffs is not finite"),
        (lambda doc: doc["C"][2].__setitem__(0, math.nan), "C is not finite"),
        (lambda doc: doc["normalization"]["mean"].__setitem__(1, math.inf),
         "mean is not finite"),
        (lambda doc: doc["normalization"]["std"].__setitem__(0, 0.0),
         "std is not positive"),
        (lambda doc: doc["normalization"]["static_std"].__setitem__(0, -1.0),
         "static_std is not positive"),
        # T too large for the (N, D, T) series array; numpy refuses each of
        # these shapes before allocating anything
        (lambda doc: doc.__setitem__("T", 10**15),
         f"cannot allocate the (300, 4, {10**15}) series array"),
        (lambda doc: doc.__setitem__("T", 10**18),
         f"cannot allocate the (300, 4, {10**18}) series array"),
        (lambda doc: doc.__setitem__("T", 10**20),
         f"cannot allocate the (300, 4, {10**20}) series array"),
        # a repeated name, with the feature names renamed to match, so the
        # layout check alone cannot catch it
        (lambda doc: _rename(doc, "variable_names", "var1", "var0"),
         "variable_names repeats the name 'var0'"),
        (lambda doc: _rename(doc, "static_names", "static1", "static2"),
         "static_names repeats the name 'static2'"),
    ], ids=["short_C", "ragged_C", "short_phi_plus", "long_phi_minus",
            "unknown_config_key", "missing_config_key", "unknown_variable_feature",
            "unknown_summary_feature", "non_integer_hour_feature", "nan_coeff",
            "nan_C", "inf_mean", "zero_std", "negative_static_std", "T_1e15",
            "T_1e18", "T_1e20", "repeated_variable", "repeated_static"])
    def test_malformed_checkpoint_is_2(self, cohort_dir, trained_dir, tmp_path,
                                       capsys, edit, needle):
        doc = json.loads((trained_dir / "seed_0" / "model.ckpt").read_text())
        edit(doc)
        path = tmp_path / "edited.ckpt"
        path.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(path), "--cohort-dir", str(cohort_dir)])
        assert_fails(capsys, code, 2, needle)

    def test_train_t_too_large_for_the_series_array_is_2(self, cohort_dir,
                                                          tmp_path, capsys):
        # numpy refuses this (300, 4, T) shape before allocating anything
        code = main(["train", "--cohort-dir", str(cohort_dir),
                     "--out", str(tmp_path / "run"), "--t", str(10**15)])
        assert_fails(capsys, code, 2,
                     f"cannot allocate the (300, 4, {10**15}) series array")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, needle", [
        (lambda doc: 5, "not a JSON object"),
        (lambda doc: {**doc, "T": "x"}, "T = 'x' is not int"),
        (lambda doc: {**doc, "config": {**doc["config"], "learning_rate": "fast"}},
         "config.learning_rate = 'fast' is not float"),
        (lambda doc: {**doc, "tau_temp": 0}, "tau_temp = 0 is not positive"),
        (lambda doc: {**doc, "feature_names": 7}, "feature_names is not a list"),
        (lambda doc: {**doc, "bias": math.nan}, "bias = nan is not finite"),
        (lambda doc: {**doc, "tau_temp": math.inf}, "tau_temp = inf is not finite"),
        (lambda doc: {**doc, "config": {**doc["config"], "alpha": -math.inf}},
         "config.alpha = -inf is not finite"),
        (lambda doc: {**doc, "D": 5}, "D = 5, expected 4"),
        (lambda doc: {**doc, "seed": "0"}, "seed = '0' is not int"),
    ], ids=["not_an_object", "string_T", "string_learning_rate", "zero_tau_temp",
            "feature_names_not_a_list", "nan_bias", "inf_tau_temp", "inf_alpha",
            "wrong_D", "string_seed"])
    def test_checkpoint_value_of_wrong_type_is_2(self, cohort_dir, trained_dir,
                                                 tmp_path, capsys, edit, needle):
        doc = json.loads((trained_dir / "seed_0" / "model.ckpt").read_text())
        path = tmp_path / "edited.ckpt"
        path.write_text(json.dumps(edit(doc)))
        code = main(["eval", "--checkpoint", str(path), "--cohort-dir", str(cohort_dir)])
        assert_fails(capsys, code, 2, f"{path}: {needle}")

    @pytest.mark.parametrize("name, text, needle", [
        ("static.csv", "", "static.csv: empty file"),
        ("labels.csv", "patient_id,label\np1\n", "line 2: expected 2 fields, got 1"),
        ("timeseries.csv", "patient_id,variable,hour,value\np1,{var},1,inf\n",
         "line 2: bad value 'inf' (not a finite number)"),
        ("static.csv", "patient_id,age{more}\np1,nan{zeros}\n",
         "static value 'nan' for patient p1 column 'age' is not a finite number"),
        ("static.csv", None, "static.csv: cannot read: No such file"),
        ("labels.csv", b"patient_id,label\np1,1\np\xff\xfe,1\n",
         "labels.csv: not UTF-8 text"),
    ], ids=["empty_static", "short_label_row", "inf_value", "nan_static",
            "missing_static", "labels_not_utf8"])
    def test_malformed_cohort_is_2(self, trained_dir, tmp_path, capsys, name,
                                   text, needle):
        ckpt = trained_dir / "seed_0" / "model.ckpt"
        norm = json.loads(ckpt.read_text())["normalization"]
        var, more = norm["variable_names"][0], norm["static_names"][1:]  # after age
        fill = {"var": var, "more": "".join(f",{s}" for s in more),
                "zeros": ",0" * len(more)}
        files = {
            "timeseries.csv": "patient_id,variable,hour,value\np1,{var},1,80\n",
            "static.csv": "patient_id,age{more}\np1,50{zeros}\n",
            "labels.csv": "patient_id,label\np1,1\n",
            name: text,
        }
        for file_name, file_text in files.items():
            if isinstance(file_text, bytes):
                (tmp_path / file_name).write_bytes(file_text)
            elif file_text is not None:
                (tmp_path / file_name).write_text(file_text.format(**fill))
        code = main(["eval", "--checkpoint", str(ckpt), "--cohort-dir", str(tmp_path)])
        assert_fails(capsys, code, 2, needle)

    def test_buffer_no_allocator_grants_is_2(self, tmp_path, capsys):
        # The (1, 1, T) series array is 8 MB, the summary kernel's (T, T)
        # buffer 8 TB.  One patient, one variable and hard windows keep the
        # arrays granted before it small.
        T = 10**6
        config = TrainConfig(mode="hard")
        names = feature_names_for(["var0"], ["age"], T, config.mode)
        save_checkpoint(
            tmp_path / "model.ckpt",
            SummaryParams(np.full((1, N_SUMMARIES), float(T)), np.ones(1),
                          -np.ones(1), config.tau_temp),
            ModelParams(np.zeros(len(names)), 0.0, names),
            NormalizationStats(np.zeros(1), np.ones(1), np.zeros(1), np.ones(1),
                               np.zeros(1)),
            config, ["var0"], ["age"], T, 0)
        (tmp_path / "timeseries.csv").write_text(
            "patient_id,variable,hour,value\np1,var0,1,0.5\n")
        (tmp_path / "static.csv").write_text("patient_id,age\np1,50\n")
        (tmp_path / "labels.csv").write_text("patient_id,label\np1,1\n")
        code = main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--cohort-dir", str(tmp_path)])
        assert_fails(capsys, code, 2, f"shape ({T}, {T})")


# ------------------------------------------- fuzzed configs and checkpoints
#
# Each example makes one edit to a valid config file or checkpoint document;
# every edit must end in a typed failure: exit 1 or 2, one stderr line.

def _paths(doc, at=()):
    """The path (a tuple of keys and indices) of every value in a JSON
    document, parents before children."""
    yield at
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, at + (key,))


def _get(doc, at):
    for key in at:
        doc = doc[key]
    return doc


_WRONG_TYPES = ["x", True, {}, [None]]
_BAD_NAMES = ["var9:mean", "var0:median", "x:var0@abc", "static:bmi", ""]


@st.composite
def checkpoint_edits(draw, doc):
    """``doc`` with one edit: a dropped key, a wrong JSON type, NaN or an
    infinity, a wrong length, a renamed feature or name, or a non-positive
    tau_temp or std."""
    doc = json.loads(json.dumps(doc))
    paths = list(_paths(doc))[1:]
    kind = draw(st.sampled_from(["drop", "type", "nan", "length", "rename",
                                 "positive"]))
    if kind == "drop":
        at = draw(st.sampled_from([p for p in paths
                                   if isinstance(_get(doc, p[:-1]), dict)]))
        del _get(doc, at[:-1])[at[-1]]
    elif kind == "type":
        at = draw(st.sampled_from(paths))
        _get(doc, at[:-1])[at[-1]] = draw(st.sampled_from(_WRONG_TYPES))
    elif kind == "nan":
        at = draw(st.sampled_from([p for p in paths
                                   if type(_get(doc, p)) in (int, float)]))
        _get(doc, at[:-1])[at[-1]] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf]))
    elif kind == "length":
        values = _get(doc, draw(st.sampled_from(
            [p for p in paths if isinstance(_get(doc, p), list)])))
        if draw(st.booleans()):
            values.pop()
        else:
            values.append(values[-1])
    elif kind == "rename":
        key = draw(st.sampled_from(["feature_names", "variable_names",
                                    "static_names"]))
        names = doc[key] if key == "feature_names" else doc["normalization"][key]
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(_BAD_NAMES))
    else:
        key = draw(st.sampled_from(["tau_temp", "std", "static_std"]))
        value = draw(st.sampled_from([0, 0.0, -1e-3, -1]))
        if key == "tau_temp":
            doc[key] = value
        else:
            values = doc["normalization"][key]
            values[draw(st.integers(0, len(values) - 1))] = value
    return doc


_POSITIVE = ["learning_rate", "tau_hs", "tau_temp", "batch_size", "max_epochs",
             "eval_interval", "n_examples", "n_static"]
_BASE = {"train": {"max_epochs": "1", "eval_interval": "1", "batch_size": "64"},
         "synth": {"n_examples": "50", "n_variables": "3", "T": "8"}}


@st.composite
def config_edits(draw):
    """(command, config text) with one bad line: a renamed key, a line without
    '=', a value of the wrong type, NaN or an infinity, or a non-positive
    value of a field that must be positive."""
    kind = draw(st.sampled_from(["rename", "no_equals", "type", "nan", "positive"]))
    key = draw(st.sampled_from(_POSITIVE if kind == "positive"
                               else sorted(FIELD_TYPES)))
    train_keys = {f.name for f in dataclasses.fields(TrainConfig)}
    command = "train" if key in train_keys else "synth"
    lines = dict(_BASE[command])
    if kind == "rename":
        lines[key + "_"] = _BASE[command].get(key, "1")
    elif kind == "no_equals":
        lines[key] = None
    else:
        lines[key] = draw(st.sampled_from({
            "type": {"int": ["1.5", "x", ""], "float": ["x", "1e", ""],
                     "str": ["1", "relaxed hard"]}[FIELD_TYPES[key]],
            "nan": ["nan", "inf", "-inf", "NaN", "-Infinity"],
            "positive": ["0", "-1"],
        }[kind]))
    return command, "".join(f"{key}\n" if value is None else f"{key} = {value}\n"
                            for key, value in lines.items())


def _one_line_failure(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (1, 2), (argv, code, err)
    assert err.count("\n") == 1 and "Traceback" not in err, err


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), command=st.sampled_from(["eval", "ablate", "report"]))
def test_fuzzed_checkpoints_fail_typed(cohort_dir, trained_dir, data, command):
    doc = json.loads((trained_dir / "seed_0" / "model.ckpt").read_text())
    edited = data.draw(checkpoint_edits(doc))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "edited.ckpt"
        path.write_text(json.dumps(edited))
        argv = [command, "--checkpoint", str(path)]
        if command != "report":
            argv += ["--cohort-dir", str(cohort_dir)]
        if command == "ablate":
            argv += ["--n-list", "1,5", "--out", str(Path(directory) / "a.tsv")]
        _one_line_failure(argv)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(edit=config_edits())
def test_fuzzed_configs_fail_typed(cohort_dir, edit):
    command, text = edit
    with tempfile.TemporaryDirectory() as directory:
        cfg = Path(directory) / "run.cfg"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg), "--out", str(Path(directory) / "out")]
        if command == "train":
            argv += ["--cohort-dir", str(cohort_dir), "--t", "12"]
        _one_line_failure(argv)
        assert not (Path(directory) / "out").exists()
