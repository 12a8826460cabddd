"""Command-line entry point: synth | train | eval | ablate | report | gradcheck.

Exit codes: 0 success, 1 usage or an output path that cannot be written,
2 data error, 3 numerical failure.

Config files are flat ``key = value`` text ('#' comments); command-line
flags override file values.  The keys are the field names of TrainConfig
and SynthSpec (``max_epochs``, not ``epochs``), and each train/synth flag
stores into its field (``--epochs`` into ``max_epochs``).  One file can
serve both commands: each reads its own fields.  A key that is neither
command's field is a usage error.  A field's declaration (``errors.setting``)
gives its type, bounds, choices and flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import data, evaluate, gradients, model, synth, training
from .errors import (
    CheckpointFormatError,
    DataError,
    NumericalError,
    UsageError,
    check_value,
)

# Config-file key -> field type ('int', 'float' or 'str'); ``seed`` is an
# int in both dataclasses.
FIELD_TYPES = {
    f.name: f.type
    for cls in (model.TrainConfig, synth.SynthSpec) for f in dataclasses.fields(cls)
}
_PARSERS = {"int": int, "float": float, "str": str}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text):
    """argparse type of --top-k and gradcheck --seed: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _int_list(text):
    """argparse type of --seeds and --n-list: comma-separated distinct
    integers >= 0."""
    parts = text.split(",")
    if not all(part.strip().isdecimal() for part in parts):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of non-negative integers")
    values = [int(part) for part in parts]
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"{text!r} repeats a value")
    return values


def read_config(path):
    """Parse a flat key = value config file into a dict of values, each key
    checked against FIELD_TYPES and each value parsed as the key's type."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path} line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in FIELD_TYPES:
            raise UsageError(
                f"{path} line {line_no}: unknown key {key!r} "
                "(keys are TrainConfig and SynthSpec field names)"
            )
        try:
            out[key] = _PARSERS[FIELD_TYPES[key]](value)
        except ValueError:
            raise UsageError(
                f"{path} line {line_no}: {key} = {value!r} is not {FIELD_TYPES[key]}"
            ) from None
    return out


def _config(cls, args):
    """``cls`` built from its fields: config-file values, then every flag
    given on the command line (a flag's dest is its field name)."""
    names = {f.name for f in dataclasses.fields(cls)}
    values = read_config(args.config) if args.config else {}
    values.update({name: getattr(args, name) for name in names
                   if getattr(args, name, None) is not None})
    return cls(**{key: values[key] for key in names & values.keys()})


def cmd_synth(args):
    spec = _config(synth.SynthSpec, args)
    batch, descriptor = synth.generate(spec)
    out = Path(args.out)
    synth.write_cohort(batch, out)  # makes the directory
    synth.write_truth(descriptor, out)
    print(f"realized prevalence: {descriptor['prevalence_realized']:.4f}")
    print(f"cohort written to {out}")
    return 0


def _fit_one_seed(raw, config, test_fraction, seed, out_dir):
    """Split, normalize, train and persist one seed's artifacts."""
    train_raw, test_raw = data.split_by_patient(raw, test_fraction, seed)
    batch_train_all = data.build_batch(train_raw)
    stats = data.fit_normalization(batch_train_all)
    for text in stats.warnings:
        print(f"warning: seed {seed}: {text}", file=sys.stderr)
    batch_train_all = data.apply_normalization(batch_train_all, stats)
    batch_test = data.apply_normalization(
        data.build_batch(test_raw, stats.population_median), stats)
    del train_raw, test_raw  # the split's copies of the cohort: not kept through training
    fit_batch, val_batch = data.split_by_patient(
        batch_train_all, config.val_fraction, seed + 1
    )
    config = dataclasses.replace(config, seed=seed)
    fit = training.train(fit_batch, val_batch, config)

    sp, mp = fit.best_summary_params, fit.best_model_params
    train_scores = model.predict(batch_train_all, sp, mp, config.mode)
    test_scores = model.predict(batch_test, sp, mp, config.mode)
    metrics = {
        "seed": seed,
        "train_auc": evaluate.auc(train_scores, batch_train_all.y),
        "test_auc": evaluate.auc(test_scores, batch_test.y),
        "stopped_epoch": fit.stopped_epoch,
        "best_val_auc": fit.best_val_auc,
    }
    model.save_checkpoint(
        out_dir / "model.ckpt", sp, mp, stats, config,
        raw.variable_names, batch_train_all.static_names, raw.T, seed,
    )
    (out_dir / "history.jsonl").write_text(fit.history_jsonl())
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=1, sort_keys=True))
    return metrics


def cmd_train(args):
    config = _config(model.TrainConfig, args)
    seeds = args.seeds
    categorical = args.categorical.split(",") if args.categorical else ()
    T = check_value("--t", args.t, "int", UsageError, low=1)
    if not 0 < args.test_fraction < 1:  # NaN too
        raise UsageError("--test-fraction must be in (0, 1)")
    raw = data.ingest_csv(*data.cohort_paths(args.cohort_dir), T,
                          categorical_columns=categorical)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # and each seed's: before any fit, not after
    for seed in seeds:
        (out / f"seed_{seed}").mkdir(exist_ok=True)
    all_metrics = []
    for seed in seeds:
        metrics = _fit_one_seed(
            raw, config, args.test_fraction, seed, out / f"seed_{seed}"
        )
        print(
            f"seed {seed}: train AUC {metrics['train_auc']:.4f}, "
            f"test AUC {metrics['test_auc']:.4f}"
        )
        all_metrics.append(metrics)

    test_aucs = np.array([m["test_auc"] for m in all_metrics])
    train_aucs = np.array([m["train_auc"] for m in all_metrics])
    se = float(test_aucs.std(ddof=1) / np.sqrt(len(test_aucs))) if len(test_aucs) > 1 else 0.0
    summary = {
        "seeds": seeds,
        "train_auc_mean": float(train_aucs.mean()),
        "test_auc_mean": float(test_aucs.mean()),
        "test_auc_se": se,
        "formatted": f"{test_aucs.mean():.4f} ± {se:.4f}",
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(f"test AUC: {summary['formatted']}")
    return 0


def _load_eval_inputs(args):
    ckpt = model.load_checkpoint(args.checkpoint)
    raw = data.ingest_csv(*data.cohort_paths(args.cohort_dir), ckpt["T"],
                          variables=ckpt["variable_names"],
                          static_names=ckpt["static_names"])
    batch = data.build_batch(raw, ckpt["stats"].population_median)
    batch = data.apply_normalization(batch, ckpt["stats"])
    return ckpt, batch


def cmd_eval(args):
    ckpt, batch = _load_eval_inputs(args)
    scores = model.predict(
        batch, ckpt["summary_params"], ckpt["model_params"], ckpt["config"].mode
    )
    result = json.dumps({"auc": evaluate.auc(scores, batch.y),
                         "n_examples": batch.n_examples}, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(result)
    print(result)
    return 0


def cmd_ablate(args):
    ckpt, batch = _load_eval_inputs(args)
    pairs = evaluate.ablation_curve(
        ckpt["summary_params"], ckpt["model_params"], batch,
        ckpt["config"].mode, args.n_list,
    )
    tsv = evaluate.ablation_tsv(pairs)
    Path(args.out).write_text(tsv)
    print(tsv, end="")
    return 0


def cmd_report(args):
    ckpt = model.load_checkpoint(args.checkpoint)
    rows = evaluate.key_feature_report(
        ckpt["summary_params"], ckpt["model_params"], ckpt["stats"],
        ckpt["variable_names"], ckpt["static_names"], ckpt["T"],
        ckpt["config"].mode, args.top_k,
    )
    tsv = evaluate.report_tsv(rows)
    if args.out:
        Path(args.out).write_text(tsv)
    print(tsv, end="")
    return 0


def cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    N, D, T = 8, 3, 12
    from .data import ClinicalBatch
    from .summaries import N_SUMMARIES, SummaryParams
    M = rng.random((N, D, T)) < 0.7
    M[:, :, -2:] = True  # keep every soft window populated: FD cannot
    X = rng.standard_normal((N, D, T))  # resolve eps-floor-dominated slopes
    S = rng.standard_normal((N, 2))
    y = np.array([0, 1] * (N // 2), dtype=float)
    batch = ClinicalBatch(
        X, M, S, y, [f"p{i}" for i in range(N)],
        [f"var{d}" for d in range(D)], ["s0", "s1"],
    )
    config = model.TrainConfig(mode="relaxed", tau_temp=0.1, alpha=1e-3)
    sp = SummaryParams(
        rng.uniform(2.5, T - 1.5, size=(D, N_SUMMARIES)),
        rng.uniform(0.5, 1.5, size=D),
        rng.uniform(-1.5, -0.5, size=D),
        config.tau_temp,
    )
    names = model.feature_names_for(batch.variable_names, batch.static_names, T,
                                    config.mode)
    mp = model.ModelParams(
        0.5 * rng.standard_normal(len(names)), 0.1, names
    )
    report = gradients.finite_difference_check(sp, mp, batch, config, seed=args.seed)
    status = "PASS" if report.passed() else "FAIL"
    print(
        f"{status}: max relative error {report.max_rel_error:.3e} "
        f"(worst: {report.worst.block}{report.worst.index}, "
        f"analytic {report.worst.analytic:.3e}, numeric {report.worst.numeric:.3e})"
    )
    return 0 if status == "PASS" else 3


def _add_field_flags(parser, cls):
    """The flag of each field of ``cls`` that declares one, storing into the
    field, of its type and choices."""
    for f in dataclasses.fields(cls):
        flag = f.metadata.get("flag")
        if flag:
            parser.add_argument(
                "--" + f.name.replace("_", "-") if flag is True else flag,
                dest=f.name, type=_PARSERS[f.type], choices=f.metadata["choices"])


def build_parser():
    parser = _Parser(prog="sumlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    cohort = _Parser(add_help=False)  # the input of train, eval and ablate
    cohort.add_argument("--cohort-dir", required=True,
                        help=f"directory with {', '.join(data.COHORT_FILES)}")

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    _add_field_flags(p, synth.SynthSpec)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[cohort], help="train across one or more seeds")
    p.add_argument("--categorical", help="comma-separated categorical static columns")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seeds", type=_int_list, default="0",
                   help="comma-separated seed list")
    p.add_argument("--t", type=int, default=24, help="hours per example")
    p.add_argument("--test-fraction", type=float, default=0.25)
    _add_field_flags(p, model.TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[cohort], help="AUC of a checkpoint on a cohort")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[cohort],
                       help="top-N coefficient ablation curve")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="key-feature interpretability report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--top-k", type=_count, default=15)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=_count, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _print_failure(kind, exc):
    """The one stderr line of a failure, even when a quoted patient id put a
    line break into the message."""
    text = str(exc).replace("\r", "\\r").replace("\n", "\\n")
    print(f"{kind}: {text}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a non-finite result fails a typed check; numpy's warnings would repeat it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        _print_failure("usage error", exc)
        return 1
    except OSError as exc:  # every read raises a typed error, so this is a write
        _print_failure("usage error", f"cannot write {exc.filename}: {exc.strerror}")
        return 1
    except (DataError, CheckpointFormatError) as exc:
        _print_failure("data error", exc)
        return 2
    except MemoryError as exc:  # an array sized by the input that cannot be had
        _print_failure("data error", f"out of memory: {exc}")
        return 2
    except NumericalError as exc:
        _print_failure("numerical failure", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
