"""uniprompt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed in a child process, then, with
``--trace 0``, sets up once untimed, then repeats the measured pass until
``--seconds`` have been measured and the workload's minimum pass count is
reached, timing a set-up before each pass, after the last one and between
tuning runs; it reports the end-to-end metrics listed in BENCHMARK.json,
set-up time as the median of the timed set-ups.
With ``--trace 1`` it sets up once under the tracer, runs an untraced, a traced
and another untraced pass, and reports the per-layer metrics and the tracing
overhead. Either way it checks the
outputs: identical CSV bytes and pretraining loss histories across passes,
prediction vectors that cover the test ids, and failed operations counted
against those attempted. The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
# Set-up is timed at points spread over the run: before each pass, after the
# last, and after a tuning run while the set-ups inside the pass have taken
# less than SETUP_SHARE of its measured time. So its median spans the run as
# cell_s does. On a shared host the CPU speed can swing by half for seconds
# to minutes, and set-ups timed back to back sample just one of those spells.
SETUP_SHARE = 0.05
FIXTURE_TIMEOUT_S = 120
PASS_DEADLINE_S = 140   # no further pass starts if it would end after this


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _openblas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy as np
    import scipy

    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def matmul_peak_gflops(size=1024, repeats=5):
    """Best-of-N float64 square matmul rate, the reference for computed rates."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((size, size))
    a @ a
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        a @ a
        best = min(best, time.perf_counter() - start)
    return 2 * size**3 / best / 1e9


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def make_fixtures(name, tiny, seed, out_dir):
    subprocess.run(
        [sys.executable, str(HERE / "make_fixtures.py"), name,
         "tiny" if tiny else "full", str(seed), str(out_dir)],
        check=True, timeout=FIXTURE_TIMEOUT_S)


def setup_timer(workloads, workload, fixture_dir, times):
    """Returns ``timed_setup()``, which sets up once, appends the time to
    ``times`` and drops the inputs, and ``between(p)``, which does so while
    the set-ups inside pass ``p`` stay under SETUP_SHARE of its measured time."""

    def timed_setup():
        start = time.perf_counter()
        workloads.set_up(workload, fixture_dir)
        times.append(time.perf_counter() - start)

    def between(p):
        if p.paused_s < SETUP_SHARE * (time.perf_counter() - p.started - p.paused_s):
            timed_setup()

    return timed_setup, between


def consistency_problems(workloads, passes, dirs):
    """Per-pass checks, then identical CSV bytes and loss histories across passes."""
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes)
                for msg in workloads.check_pass(p)]
    for name in passes[0].tables:
        blobs = [(d / f"{name}.csv").read_bytes() for d in dirs]
        if any(b != blobs[0] for b in blobs[1:]):
            problems.append(f"{name}.csv differs between passes")
    for objective, history in passes[0].histories.items():
        if any(p.histories.get(objective) != history for p in passes[1:]):
            problems.append(f"{objective} loss history differs between passes")
    return problems


def cell_metrics(workload, passes):
    """The per-method and per-objective figures of the workload, as medians
    over passes. Printed in the report; the bounded metrics are in BENCHMARK.json."""
    runs = workload.knobs.get("runs", 1)
    out = {}
    for key in passes[0].times:
        values = [p.times[key] for p in passes if key in p.times]
        if key.startswith("run_s."):
            out[key] = statistics.median(values) / runs
        elif key.startswith("pretrain_s."):
            out["pretrain_epoch_ms." + key.split(".", 1)[1]] = (
                1000 * statistics.median(values) / workload.knobs["epochs"])
    by_method = {}
    for table_name, table in passes[0].tables.items():
        for r in table.records:
            method = "uniprompt-noisy" if table_name == "noise" else r.method
            by_method.setdefault(f"acc.{spans.method_key(method)}", []).append(r.accuracy)
    out.update({k: statistics.fmean(v) for k, v in sorted(by_method.items())})
    if by_method:
        out["acc.mean"] = statistics.fmean(a for v in by_method.values() for a in v)
    for cell, method, n_epochs, _ in passes[0].runs:
        key = "epochs." + spans.method_key(
            cell.split(".", 1)[1] if cell.startswith("run_s.") else method)
        out[key] = out.get(key, 0) + n_epochs
    return out


def layer_metrics(tracer):
    """Every per-layer figure the traced spans give; BENCHMARK.json picks."""
    out = {}
    for name, (calls, incl, self_s) in tracer.summary().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
        out[f"{name}.self_s"] = self_s
    out.update(tracer.counts)
    out["prompt.run_method.self_s"] = sum(
        v for k, v in out.items() if k.startswith("prompt.run_method.") and k.endswith(".self_s"))
    for key, epochs in tracer.epochs.items():
        out[f"prompt.epochs.{key}"] = epochs
    spent = tracer.run_time_less("prompt.run_method.", spans.PER_RUN_SETUP)
    for name, seconds in spent.items():
        key = name.rsplit(".", 1)[1]
        if tracer.epochs[key]:
            out[f"prompt.ms_per_epoch.{key}"] = 1000 * seconds / tracer.epochs[key]
    for objective in ("dgi", "graphmae", "grace"):
        base = f"pretrain.pretrain_with_history.{objective}"
        if out.get(f"{base}.epochs"):
            out[f"pretrain.epoch_ms.{objective}"] = 1000 * out[f"{base}.s"] / out[f"{base}.epochs"]
    for op in ("spmm", "matmul"):
        if out.get(f"autodiff.{op}.s"):
            out[f"autodiff.{op}.gflops_per_s_computed"] = (
                out[f"autodiff.{op}.flops"] / out[f"autodiff.{op}.s"] / 1e9)
    out["trace.spans"] = len(tracer.names)
    return out


def run_benchmark(name, seed, seconds, trace, tiny=False, work_dir=WORK_DIR):
    """Returns (result, report): the result object of the last output line
    (correct, attempted, failed, metrics) and everything else measured, for
    the report line and file."""
    import workloads

    started = time.perf_counter()
    workload = workloads.get(name, tiny)
    spec = load_spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    work_dir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_dir))
    report = {"workload": name, "seed": seed, "trace": trace, "tiny": tiny,
              "env": environment()}
    try:
        make_fixtures(name, tiny, seed, run_dir / "fixtures")
        tracer = spans.Tracer() if trace else None
        if trace:
            tracer.install(workloads.uniprompt)
        try:
            # Untimed when not traced: a process's first load also grows its heap.
            inputs = workloads.set_up(workload, run_dir / "fixtures")
        finally:
            if trace:
                tracer.uninstall()
        setup_times = []
        timed_setup, between = setup_timer(workloads, workload, run_dir / "fixtures",
                                           setup_times)

        passes, dirs = [], []

        def one_pass(traced):
            out = run_dir / f"pass{len(passes)}"
            if traced:
                tracer.install(workloads.uniprompt)
            try:
                passes.append(workloads.run_pass(workload, inputs, seed, out,
                                                 None if trace else between))
            finally:
                if traced:
                    tracer.uninstall()
            dirs.append(out)

        def time_left():
            return time.perf_counter() - started + passes[-1].cell_s <= PASS_DEADLINE_S

        if trace:
            # untraced passes on both sides, so warm-up and drift cancel in the overhead
            one_pass(False)
            one_pass(True)
            if time_left():
                one_pass(False)
        else:
            timed_setup()
            one_pass(False)
            while ((len(passes) < workload.min_passes or sum(p.cell_s for p in passes) < seconds)
                   and time_left()):
                timed_setup()
                one_pass(False)
            timed_setup()
            report["setup_s"] = setup_times

        problems = consistency_problems(workloads, passes, dirs)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        report.update(
            passes=[{"cell_s": p.cell_s, "times": p.times} for p in passes],
            cells=cell_metrics(workload, passes),
            problems=problems,
        )
        if trace:
            metrics = layer_metrics(tracer)
            untraced = statistics.fmean(p.cell_s for i, p in enumerate(passes) if i != 1)
            metrics["trace.overhead_s"] = passes[1].cell_s - untraced
            metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
            metrics["bench.matmul_peak_gflops_per_s"] = matmul_peak_gflops()
            report["layers"] = metrics
            tracer.dump(work_dir / f"{name}-seed{seed}-spans.tsv")
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "cell_s": statistics.median(p.cell_s for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        result = {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                        for m in listed},
        }
        return result, report
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    result, report = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    report["result"] = result
    text = json.dumps(report, sort_keys=True)
    (WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
