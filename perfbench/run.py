"""sumlearn benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload fit_relaxed --seed 0 --seconds 20 --trace 0

Set-up (cohort generation, CSV write, checkpoint training) runs SETUPS times
in child processes and is reported as the median ``setup_s``.  Then
operations (one ``train()`` call, or one ``sumlearn eval``) repeat for
``--seconds``; each is checked for correctness, and a failed check counts
as a failed operation.  ``--trace 0`` prints the end-to-end metrics with
no shims installed; ``--trace 1`` alternates untraced and traced operations
and prints the per-layer metrics, writing the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import ctypes
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads  # pins the BLAS thread count before numpy loads
import numpy as np
from tracing import PER_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
OUT = workloads.ROOT / ".perfbench"
SETUPS = 3
MIN_OPS = 2  # two repeats of a fit must agree on val_auc

# (name, unit): the end-to-end metrics printed with --trace 0.
END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("auc", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def host_record():
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size").strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cache_per_core_l2": caches.get("L2", "unknown"),
        "cache_l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": workloads.BLAS_THREADS,
    }


def set_up(name, seed, work):
    """Run set-up SETUPS times; (inputs of the last, set-up seconds, phases)."""
    times, phases = [], []
    inputs = None
    for k in range(SETUPS):
        out = work / f"setup{k}"
        subprocess.run([sys.executable, str(HERE / "workloads.py"), name, str(seed),
                        str(out)], check=True, timeout=170)
        inputs = None  # free the previous set-up's arrays before loading
        start = perf_counter()
        inputs = workloads.load_inputs(name, seed, out)
        times.append(inputs["meta"]["work_s"] + perf_counter() - start)
        phases.append(inputs["meta"])
    return inputs, times, phases


def run_op(name, inputs, op, first_aucs):
    """(wall seconds, aucs) of one checked operation; raises on any failure."""
    start = perf_counter()
    result = op()
    wall = perf_counter() - start
    aucs = workloads.check(name, inputs, result)
    if first_aucs is not None and aucs != first_aucs:
        raise workloads.CheckFailed(f"AUCs {aucs!r} differ from first op {first_aucs!r}")
    return wall, aucs


def _traced(tracer, span_name, op):
    """The operation alone under the shims, so its checks leave no spans."""
    with tracer.installed():
        return tracer.call(span_name, op)


def measure(name, inputs, seconds, tracer):
    """Repeat operations for ``seconds``; with a tracer, alternate untraced
    and traced ones.  Returns (walls by mode, aucs, attempted, failed)."""
    span_name, op = workloads.operation(name, inputs)
    modes = ("untraced", "traced") if tracer else ("untraced",)
    walls = {mode: [] for mode in modes}
    aucs, attempted, failed = [], 0, 0
    start = perf_counter()
    # Start no operation that would end, at the median pace, after `seconds`.
    while attempted < MIN_OPS * len(modes) or (
            perf_counter() - start + len(modes) * statistics.median(
                walls["untraced"] or [0.0]) <= seconds):
        for mode in modes:
            attempted += 1
            call = op
            if mode == "traced":
                tracer.begin_run(attempted)
                call = functools.partial(_traced, tracer, span_name, op)
            try:
                wall, op_aucs = run_op(name, inputs, call, aucs[0] if aucs else None)
            except Exception:  # an operation that fails is counted, not fatal
                failed += 1
                traceback.print_exc()
                continue
            walls[mode].append(wall)
            aucs.append(op_aucs)
    return walls, aucs, attempted, failed


def run_workload(args):
    host = host_record()
    if host["blas_threads"] not in (None, workloads.BLAS_THREADS):
        sys.exit(f"BLAS runs {host['blas_threads']} threads, "
                 f"not the requested {workloads.BLAS_THREADS}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        inputs, setup_times, phases = set_up(args.workload, args.seed, Path(tmp))
        tracer = Tracer() if args.trace else None
        walls, aucs, attempted, failed = measure(
            args.workload, inputs, args.seconds, tracer)
    units = workloads.work_units(args.workload, inputs)
    untraced = walls["untraced"]
    print(f"# host {json.dumps(host)}")
    print(f"# {args.workload} seed {args.seed}: {attempted} operations, "
          f"{failed} failed, failed_ratio {failed / attempted:.4g}")
    if untraced:
        print(f"# operation seconds: median {statistics.median(untraced):.4f} "
              f"over {len(untraced)} untraced samples")
    if args.trace:
        values = layer_metrics(tracer, untraced or [0.0], walls["traced"] or [0.0],
                               phases)
        table = [(name, unit) for name, unit, _ in PER_LAYER]
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"host": host, "metrics": values, "spans": tracer.spans}))
        print(f"# spans written to {trace_file}")
    else:
        values = {
            "throughput_per_s": statistics.median(units / w for w in untraced)
            if untraced else 0.0,
            "auc": statistics.median(a[0] for a in aucs) if aucs else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        table = END_TO_END
    metrics = {}
    for metric, unit in table:
        print(f"# {args.workload} {metric} = {values[metric]:.6g} {unit}")
        metrics[metric] = {"value": float(values[metric]), "unit": unit}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
