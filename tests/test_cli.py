import argparse
import dataclasses
import json
import shutil

import numpy as np
import pytest

from sumlearn import SynthSpec, TrainConfig
from sumlearn.cli import FIELD_TYPES, build_parser, main, read_config


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


def assert_fails(capsys, code, expected_code, needle):
    """A typed failure: the exit code and one stderr line naming the cause."""
    err = capsys.readouterr().err
    assert code == expected_code, err
    assert needle in err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestConfigSchema:
    def test_every_flag_stores_into_a_field_or_a_command_argument(self):
        common = {"help", "out", "config"}
        cohort = {"cohort_dir", "timeseries", "static", "labels", "categorical"}
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
    ], ids=["seeds", "n_list", "negative_n"])
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
    ], ids=["short_C", "ragged_C", "short_phi_plus", "long_phi_minus",
            "unknown_config_key", "missing_config_key"])
    def test_malformed_checkpoint_is_2(self, cohort_dir, trained_dir, tmp_path,
                                       capsys, edit, needle):
        doc = json.loads((trained_dir / "seed_0" / "model.ckpt").read_text())
        edit(doc)
        path = tmp_path / "edited.ckpt"
        path.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(path), "--cohort-dir", str(cohort_dir)])
        assert_fails(capsys, code, 2, needle)

    @pytest.mark.parametrize("edit, needle", [
        (lambda doc: 5, "not a JSON object"),
        (lambda doc: {**doc, "T": "x"}, "T = 'x' is not int"),
        (lambda doc: {**doc, "config": {**doc["config"], "learning_rate": "fast"}},
         "config.learning_rate = 'fast' is not float"),
        (lambda doc: {**doc, "tau_temp": 0}, "tau_temp = 0 is not positive"),
        (lambda doc: {**doc, "feature_names": 7}, "feature_names is not a list"),
    ], ids=["not_an_object", "string_T", "string_learning_rate", "zero_tau_temp",
            "feature_names_not_a_list"])
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
        ("static.csv", "patient_id,age\np1,nan\n",
         "static value 'nan' for patient p1 column 'age' is not a finite number"),
        ("static.csv", None, "static.csv: cannot read: No such file"),
        ("labels.csv", b"patient_id,label\np1,1\np\xff\xfe,1\n",
         "labels.csv: not UTF-8 text"),
    ], ids=["empty_static", "short_label_row", "inf_value", "nan_static",
            "missing_static", "labels_not_utf8"])
    def test_malformed_cohort_is_2(self, trained_dir, tmp_path, capsys, name,
                                   text, needle):
        ckpt = trained_dir / "seed_0" / "model.ckpt"
        var = json.loads(ckpt.read_text())["normalization"]["variable_names"][0]
        files = {
            "timeseries.csv": "patient_id,variable,hour,value\np1,{var},1,80\n",
            "static.csv": "patient_id,age\np1,50\n",
            "labels.csv": "patient_id,label\np1,1\n",
            name: text,
        }
        for file_name, file_text in files.items():
            if isinstance(file_text, bytes):
                (tmp_path / file_name).write_bytes(file_text)
            elif file_text is not None:
                (tmp_path / file_name).write_text(file_text.format(var=var))
        code = main(["eval", "--checkpoint", str(ckpt), "--cohort-dir", str(tmp_path)])
        assert_fails(capsys, code, 2, needle)
