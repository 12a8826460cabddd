"""Workload definitions: inputs made from a seed, one operation, its checks.

Set-up runs in a child process so that the parent's peak resident memory
reflects the measured operations rather than cohort generation:

    python3 perfbench/workloads.py <workload> <seed> <out_dir>

writes the workload's inputs and ``meta.json`` into ``out_dir``.
"""

import os

# Fixed before numpy loads BLAS, so numbers do not depend on the host default.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_T_IMPORT = perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import sumlearn  # noqa: E402

if not Path(sumlearn.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"sumlearn was not imported from {ROOT / 'src'}")

from sumlearn import cli, data, evaluate, model, synth, training  # noqa: E402

# The acceptance sweep's relaxed configuration (tests/test_acceptance.py).
SWEEP = dict(learning_rate=0.02, lr_summary=0.15, batch_size=512, alpha=1e-5,
             tau_hs=1.0, tau_temp=0.1)
TEST_FRACTION = 0.25
VAL_FRACTION = 0.15

# One operation is one train() call of max_epochs epochs with an eval every
# eval_interval epochs; patience exceeds the number of evals, so early
# stopping cannot fire and every call does the same work.
WORKLOADS = {
    "fit_relaxed": dict(
        spec=dict(n_examples=4000, n_variables=6, T=24),
        config=dict(SWEEP, mode="relaxed", max_epochs=10, eval_interval=5,
                    patience=3),
    ),
    "fit_hard_wide": dict(
        spec=dict(n_examples=4000, n_variables=30, T=48),
        config=dict(SWEEP, mode="hard", max_epochs=8, eval_interval=4,
                    patience=3),
    ),
    # The checkpoint is trained briefly during set-up; only eval is measured.
    "score_csv": dict(
        spec=dict(n_examples=4000, n_variables=6, T=24),
        config=dict(SWEEP, mode="relaxed", max_epochs=3, eval_interval=3,
                    patience=2),
    ),
}


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def train_config(name, seed):
    return model.TrainConfig(seed=seed, **WORKLOADS[name]["config"])


def _raw_from_batch(batch):
    """The RawCohort that ingesting ``synth.write_cohort(batch)`` yields."""
    return data.RawCohort(
        np.where(batch.M == 1, batch.X, np.nan), batch.S, batch.y,
        list(batch.patient_ids), list(batch.variable_names),
        list(batch.static_names),
    )


def make_inputs(name, seed, out_dir):
    """Generate the workload's inputs from ``seed`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = synth.SynthSpec(seed=seed, **WORKLOADS[name]["spec"])
    config = train_config(name, seed)
    meta = {}
    t = perf_counter()
    cohort, _ = synth.generate(spec)
    meta["generate_s"] = perf_counter() - t

    if name.startswith("fit_"):
        train_part, test_part = data.split_by_patient(cohort, TEST_FRACTION, seed)
        stats = data.fit_normalization(train_part)
        fit_b, val_b = data.split_by_patient(
            data.apply_normalization(train_part, stats), VAL_FRACTION, seed + 1
        )
        parts = {"fit": fit_b, "val": val_b,
                 "test": data.apply_normalization(test_part, stats)}
        np.savez(out / "inputs.npz", **{
            f"{part}_{key}": getattr(b, key)
            for part, b in parts.items() for key in ("X", "M", "S", "y")
        })
        meta["names"] = [fit_b.variable_names, fit_b.static_names]
        meta["patient_ids"] = {part: b.patient_ids for part, b in parts.items()}
        meta["write_cohort_s"] = 0.0
        meta["work_s"] = perf_counter() - _T_IMPORT
    else:
        t = perf_counter()
        synth.write_cohort(cohort, out / "cohort")
        meta["write_cohort_s"] = perf_counter() - t
        # The same steps as `sumlearn train` on this cohort, one seed.
        raw = _raw_from_batch(cohort)
        train_raw, _ = data.split_by_patient(raw, TEST_FRACTION, seed)
        median = data.compute_population_median(train_raw)
        stats = data.fit_normalization(data.build_batch(train_raw, median))
        fit_b, val_b = data.split_by_patient(
            data.apply_normalization(data.build_batch(train_raw, median), stats),
            VAL_FRACTION, seed + 1,
        )
        fit = training.train(fit_b, val_b, config)
        check_fit(fit, config, cohort.T)
        model.save_checkpoint(
            out / "model.ckpt", fit.best_summary_params, fit.best_model_params,
            stats, config, raw.variable_names, raw.static_names, raw.T, seed,
        )
        meta["work_s"] = perf_counter() - _T_IMPORT
        meta["n_rows"] = int(cohort.M.sum())
        meta["n_examples"] = cohort.n_examples
        meta["reference_auc"] = reference_auc(out / "model.ckpt", raw)
    (out / "meta.json").write_text(json.dumps(meta))


def reference_auc(ckpt_path, raw):
    """In-process predict + auc of a checkpoint on a cohort, for checking eval."""
    ckpt = model.load_checkpoint(ckpt_path)
    batch = data.apply_normalization(
        data.build_batch(raw, ckpt["stats"].population_median), ckpt["stats"]
    )
    scores = model.predict(batch, ckpt["summary_params"], ckpt["model_params"],
                           ckpt["config"].mode)
    return evaluate.auc(scores, batch.y)


def load_inputs(name, seed, out_dir):
    """The inputs ``make_inputs`` wrote, as the operation takes them."""
    out = Path(out_dir)
    meta = json.loads((out / "meta.json").read_text())
    inputs = {"meta": meta, "config": train_config(name, seed)}
    if name.startswith("fit_"):
        arrays = np.load(out / "inputs.npz")
        variables, statics = meta["names"]
        for part, ids in meta["patient_ids"].items():
            X, M, S, y = (arrays[f"{part}_{k}"] for k in ("X", "M", "S", "y"))
            inputs[part] = data.ClinicalBatch(X, M, S, y, ids, variables, statics)
    else:
        inputs["argv"] = ["eval", "--checkpoint", str(out / "model.ckpt"),
                          "--cohort-dir", str(out / "cohort")]
    return inputs


def operation(name, inputs):
    """(span name, callable) of one operation, called through module attributes."""
    if name.startswith("fit_"):
        return ("training.train", lambda: training.train(
            inputs["fit"], inputs["val"], inputs["config"]))
    return ("cli.main", lambda: _run_cli(inputs["argv"]))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def work_units(name, inputs):
    """Examples trained (fit_*) or timeseries rows scored (score_csv) per op."""
    if name.startswith("fit_"):
        return inputs["config"].max_epochs * inputs["fit"].n_examples
    return inputs["meta"]["n_rows"]


def check_fit(fit, config, T):
    """A train() call must end finite, with C in [0, T], after all epochs."""
    if fit.stopped_epoch != config.max_epochs:
        raise CheckFailed(f"stopped at epoch {fit.stopped_epoch}")
    for point in fit.history:
        if not (np.isfinite(point.train_loss) and np.isfinite(point.val_loss)):
            raise CheckFailed(f"non-finite loss at epoch {point.epoch}")
    for params in (fit.summary_params, fit.best_summary_params):
        if not (params.C.min() >= 0 and params.C.max() <= T):
            raise CheckFailed("window lengths C left [0, T]")


def check(name, inputs, result):
    """The operation's AUCs after its correctness checks; raises CheckFailed.

    The first is the reported one: for a fit, the test-split AUC of the
    best-by-validation parameters (what the acceptance sweep reports; 1000
    patients, so it varies less between seeds than the 450-patient
    validation AUC), then the best validation AUC.
    """
    if name.startswith("fit_"):
        check_fit(result, inputs["config"], inputs["fit"].T)
        test = inputs["test"]
        scores = model.predict(test, result.best_summary_params,
                               result.best_model_params, inputs["config"].mode)
        return evaluate.auc(scores, test.y), result.best_val_auc
    code, out, err = result
    if code != 0:
        raise CheckFailed(f"eval exited {code}: {err.strip()}")
    printed = json.loads(out)
    if printed["n_examples"] != inputs["meta"]["n_examples"]:
        raise CheckFailed(f"eval scored {printed['n_examples']} examples")
    if printed["auc"] != inputs["meta"]["reference_auc"]:
        raise CheckFailed(
            f"eval AUC {printed['auc']!r} != in-process "
            f"{inputs['meta']['reference_auc']!r}"
        )
    return (printed["auc"],)


if __name__ == "__main__":
    make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
