import json

import numpy as np
import pytest

from sumlearn.cli import main, read_config


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
