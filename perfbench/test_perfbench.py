"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracing import PER_LAYER, SHIMS, RedundancyCounter, Tracer, \
    layer_metrics, self_times, tail_percentile
from sumlearn import data, model, synth, training
from sumlearn.summaries import SummaryParams

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text())


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 3.0, 0, 1],
        ["b", 2.0, 5.0, 0, 1],  # overlaps a: children cover [1, 5]
        ["a.child", 1.5, 2.0, 1, 1],
        ["other_run", 20.0, 21.0, -1, 2],
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 3.0, 0.5, 1.0])


@pytest.mark.parametrize("n, percentile, rank", [
    (19, 0.0, None),  # even the median has fewer than ten samples above it
    (20, 50.0, 10),
    (99, 75.0, 75),  # p90 would leave only nine beyond
    (100, 90.0, 90),
    (1000, 99.0, 990),
    (10000, 99.9, 9990),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, rank):
    samples = list(np.random.default_rng(0).permutation(n) + 1.0)
    p, value = tail_percentile(samples)
    assert p == percentile
    assert value == (rank if rank else 0.0)
    if rank:
        assert sum(s > value for s in samples) >= 10


def _params(C=1.0):
    return SummaryParams(np.full((2, 12), C), np.zeros(2), np.zeros(2), 0.1)


def test_redundant_forward_needs_same_batch_and_parameters_since_update():
    counter = RedundancyCounter()
    X, M = np.zeros((3, 2, 4)), np.ones((3, 2, 4))
    counter.observe(X, M, _params(), "relaxed")
    counter.observe(X, M, _params(), "relaxed")  # repeat: redundant
    counter.observe(X.copy(), M, _params(), "relaxed")  # other batch
    counter.observe(X, M, _params(2.0), "relaxed")  # other parameters
    counter.observe(X, M, _params(), "hard")  # other mode
    counter.update()
    counter.observe(X, M, _params(), "relaxed")  # first since the update
    assert (counter.calls, counter.redundant) == (6, 1)


def _lookup(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _traced_fit(mode):
    batch, _ = synth.generate(synth.SynthSpec(n_examples=300, T=12, seed=3))
    stats = data.fit_normalization(batch)
    fit_b, val_b = data.split_by_patient(data.apply_normalization(batch, stats),
                                         0.3, 1)
    config = model.TrainConfig(**dict(workloads.SWEEP, mode=mode, batch_size=64,
                                      max_epochs=2, eval_interval=1, patience=5))
    originals = [_lookup(module, path) for module, path, _ in SHIMS]
    tracer = Tracer()
    tracer.begin_run(1)
    with tracer.installed():
        assert _lookup("sumlearn.data", "ClinicalBatch.take") is not originals[-1]
        tracer.call("training.train", training.train, fit_b, val_b, config)
    assert [_lookup(module, path) for module, path, _ in SHIMS] == originals
    return layer_metrics(tracer, [1.0], [1.0], [{"generate_s": 0.0,
                                                 "write_cohort_s": 0.0}])


@pytest.mark.parametrize("mode, backward", [("relaxed", True), ("hard", False)])
def test_traced_fit_counts_calls_per_layer(mode, backward):
    metrics = _traced_fit(mode)
    steps = 2 * 4  # 2 epochs of ceil(210 / 64) minibatches
    evals = 2
    assert metrics["training.steps"] == steps
    assert metrics["data.take_calls"] == steps
    assert metrics["training.adam_calls"] == 5 * steps
    assert metrics["gradients.backward_calls"] == (steps if backward else 0)
    # each eval summarizes train, val, then val again inside predict
    assert metrics["summaries.forward_calls"] == steps + 3 * evals
    assert metrics["summaries.forward_redundant_ratio"] == pytest.approx(
        evals / (steps + 3 * evals))
    assert metrics["evaluate.auc_calls"] == evals
    assert 0.9 < metrics["trace.coverage"] <= 1.0


def test_benchmark_json_matches_the_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
