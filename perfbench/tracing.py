"""In-memory spans around calls into sumlearn, and the per-layer metrics.

Shims are installed on the module attribute each caller looks up at call
time (``sumlearn.training.loss_and_gradients``, ``ClinicalBatch.take``, ...)
and restored afterwards; nothing in ``src/`` is changed.  A span is
``[name, start, end, parent index, run id]``; one run id per operation.
"""

import contextlib
import functools
import importlib
import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  A function imported into several
# modules is shimmed in each, because each caller looks up its own binding.
SHIMS = (
    ("sumlearn.training", "loss_and_gradients", "gradients.step"),
    ("sumlearn.training", "adam_step", "training.adam"),
    ("sumlearn.training", "total_loss", "model.loss"),
    ("sumlearn.training", "predict", "model.predict"),
    ("sumlearn.training", "auc", "evaluate.auc"),
    ("sumlearn.gradients", "compute_summary_tensor", "summaries.forward"),
    ("sumlearn.gradients", "assemble_features", "model.assemble"),
    ("sumlearn.gradients", "backprop_summaries", "gradients.backward"),
    ("sumlearn.model", "compute_summary_tensor", "summaries.forward"),
    ("sumlearn.model", "assemble_features", "model.assemble"),
    ("sumlearn.model", "predict", "model.predict"),
    ("sumlearn.model", "load_checkpoint", "model.checkpoint_load"),
    ("sumlearn.evaluate", "auc", "evaluate.auc"),
    ("sumlearn.data", "ingest_csv", "data.ingest"),
    ("sumlearn.data", "compute_population_median", "data.impute"),
    ("sumlearn.data", "build_batch", "data.impute"),
    ("sumlearn.data", "apply_normalization", "data.normalize"),
    ("sumlearn.data", "ClinicalBatch.take", "data.take"),
)

N_SUMMARIES = 12  # summaries per (example, variable): cells = N * D * T * 12
EVAL_SPANS = ("model.loss", "model.predict", "evaluate.auc")
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    ("data.ingest_s", "s", "lower"),
    ("data.ingest_rows_per_s", "1/s", "higher"),
    ("data.impute_s", "s", "lower"),
    ("data.normalize_s", "s", "lower"),
    ("data.take_s", "s", "lower"),
    ("data.take_calls", "count", "lower"),
    ("summaries.forward_s", "s", "lower"),
    ("summaries.forward_calls", "count", "lower"),
    ("summaries.forward_cells_per_s", "1/s", "higher"),
    ("summaries.forward_peak_mb", "MB", "lower"),
    ("summaries.forward_redundant_ratio", "1", "lower"),
    ("gradients.backward_s", "s", "lower"),
    ("gradients.backward_calls", "count", "lower"),
    ("gradients.backward_cells_per_s", "1/s", "higher"),
    ("gradients.backward_peak_mb", "MB", "lower"),
    ("gradients.step_self_s", "s", "lower"),
    ("model.assemble_s", "s", "lower"),
    ("model.loss_self_s", "s", "lower"),
    ("model.predict_self_s", "s", "lower"),
    ("model.checkpoint_load_s", "s", "lower"),
    ("training.steps", "count", "higher"),
    ("training.step_ms_p50", "ms", "lower"),
    ("training.step_ms_tail", "ms", "lower"),
    ("training.step_ms_tail_pct", "%", "higher"),
    ("training.step_samples", "count", "higher"),
    ("training.adam_s", "s", "lower"),
    ("training.adam_calls", "count", "lower"),
    ("training.eval_s", "s", "lower"),
    ("training.self_s", "s", "lower"),
    ("evaluate.auc_s", "s", "lower"),
    ("evaluate.auc_calls", "count", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("synth.write_cohort_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.coverage", "1", "higher"),
)


class RedundancyCounter:
    """Counts summary forwards on a (batch, parameter values) pair already
    summarized since the last parameter update.

    Batches are compared by identity; each seen batch is held until the
    next update so that its id cannot be reused by a new array.
    """

    def __init__(self):
        self.calls = 0
        self.redundant = 0
        self._seen = {}

    def observe(self, X, M, params, mode):
        key = (id(X), id(M), mode, params.C.tobytes(), params.phi_plus.tobytes(),
               params.phi_minus.tobytes(), params.tau_temp)
        self.calls += 1
        if key in self._seen:
            self.redundant += 1
        self._seen[key] = (X, M)

    def update(self):
        self._seen.clear()


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = None
        self.counts = defaultdict(int)  # (run, key) -> cells or rows processed
        self.peak_mb = defaultdict(float)  # span name -> tracemalloc peak
        self.forwards = RedundancyCounter()
        self._stack = []
        self._peak_measured = set()

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def begin_run(self, run):
        self.run = run
        self.forwards.update()

    def _measure_peak(self, name, fn, args, kwargs):
        # tracemalloc slows numpy code by about a fifth, so only the first
        # call on each input shape runs under it; per-operation medians
        # keep that call's extra time out of the timings.
        key = (name, args[0].shape)
        if key in self._peak_measured:
            return self.call(name, fn, *args, **kwargs)
        self._peak_measured.add(key)
        tracemalloc.start()
        try:
            return self.call(name, fn, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            self.peak_mb[name] = max(self.peak_mb[name], peak)

    def _shim(self, name, fn):
        if name == "summaries.forward":
            def shim(X, M, params, *args, **kwargs):
                mode = args[0] if args else kwargs.get("mode", "relaxed")
                self.forwards.observe(X, M, params, mode)
                self.counts[self.run, name + ".cells"] += X.size * N_SUMMARIES
                return self._measure_peak(name, fn, (X, M, params) + args, kwargs)
        elif name == "gradients.backward":
            def shim(X, *args, **kwargs):
                self.counts[self.run, name + ".cells"] += X.size * N_SUMMARIES
                return self._measure_peak(name, fn, (X,) + args, kwargs)
        elif name == "training.adam":
            def shim(*args, **kwargs):
                self.forwards.update()
                return self.call(name, fn, *args, **kwargs)
        elif name == "data.ingest":
            def shim(*args, **kwargs):
                raw = self.call(name, fn, *args, **kwargs)
                self.counts[self.run, name + ".rows"] += int(
                    np.count_nonzero(~np.isnan(raw.values)))
                return raw
        else:
            def shim(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return functools.wraps(fn)(shim)

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, name in SHIMS:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._shim(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def tail_percentile(samples):
    """(p, value): the highest p in TAIL_PERCENTILES with at least ten samples
    beyond its nearest-rank value; (0.0, 0.0) when no p qualifies."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = int(np.ceil(round(p / 100.0 * n, 9)))  # 99.9% of 10000 is 9990
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return 0.0, 0.0


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, untraced_walls, traced_walls, setup_phases):
    """Per-layer metrics: per-operation medians of times, counts and rates;
    synth phases as medians over set-ups."""
    spans = tracer.spans
    selfs = self_times(spans)
    per_run = defaultdict(lambda: defaultdict(float))
    steps_ms = []
    for span, self_s in zip(spans, selfs):
        name, start, end, parent, run = span
        totals = per_run[run]
        totals[name + ".self"] += self_s
        totals[name + ".calls"] += 1
        if parent < 0:
            totals["op"] += end - start
            totals["covered"] += end - start - self_s
        elif name in EVAL_SPANS and spans[parent][0] == "training.train":
            totals["eval"] += end - start
        if name == "gradients.step":
            steps_ms.append(1e3 * (end - start))
    for (run, key), value in tracer.counts.items():
        per_run[run][key] += value
    runs = list(per_run.values())

    def med(key):
        return statistics.median(r[key] for r in runs) if runs else 0.0

    def rate(num, den):
        return statistics.median(_ratio(r[num], r[den]) for r in runs) if runs else 0.0

    tail_pct, tail_ms = tail_percentile(steps_ms)
    return {
        "data.ingest_s": med("data.ingest.self"),
        "data.ingest_rows_per_s": rate("data.ingest.rows", "data.ingest.self"),
        "data.impute_s": med("data.impute.self"),
        "data.normalize_s": med("data.normalize.self"),
        "data.take_s": med("data.take.self"),
        "data.take_calls": med("data.take.calls"),
        "summaries.forward_s": med("summaries.forward.self"),
        "summaries.forward_calls": med("summaries.forward.calls"),
        "summaries.forward_cells_per_s": rate("summaries.forward.cells",
                                              "summaries.forward.self"),
        "summaries.forward_peak_mb": tracer.peak_mb["summaries.forward"],
        "summaries.forward_redundant_ratio": _ratio(
            tracer.forwards.redundant, tracer.forwards.calls),
        "gradients.backward_s": med("gradients.backward.self"),
        "gradients.backward_calls": med("gradients.backward.calls"),
        "gradients.backward_cells_per_s": rate("gradients.backward.cells",
                                               "gradients.backward.self"),
        "gradients.backward_peak_mb": tracer.peak_mb["gradients.backward"],
        "gradients.step_self_s": med("gradients.step.self"),
        "model.assemble_s": med("model.assemble.self"),
        "model.loss_self_s": med("model.loss.self"),
        "model.predict_self_s": med("model.predict.self"),
        "model.checkpoint_load_s": med("model.checkpoint_load.self"),
        "training.steps": med("gradients.step.calls"),
        "training.step_ms_p50": statistics.median(steps_ms) if steps_ms else 0.0,
        "training.step_ms_tail": tail_ms,
        "training.step_ms_tail_pct": tail_pct,
        "training.step_samples": len(steps_ms),
        "training.adam_s": med("training.adam.self"),
        "training.adam_calls": med("training.adam.calls"),
        "training.eval_s": med("eval"),
        "training.self_s": med("training.train.self"),
        "evaluate.auc_s": med("evaluate.auc.self"),
        "evaluate.auc_calls": med("evaluate.auc.calls"),
        "synth.generate_s": statistics.median(p["generate_s"] for p in setup_phases),
        "synth.write_cohort_s": statistics.median(
            p["write_cohort_s"] for p in setup_phases),
        "cli.self_s": med("cli.main.self"),
        "trace.overhead_ratio": _ratio(statistics.median(traced_walls),
                                       statistics.median(untraced_walls)),
        "trace.coverage": rate("covered", "op"),
    }
