"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q

They use the workloads at tiny size, so they finish in seconds and never
gate on a timing.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT_STATS = (".calls", ".flops", ".nnz", ".epochs", ".bytes")


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# -- spans -------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    t = spans.Tracer(clock=scripted_clock(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    outer = t.open("a")
    first = t.open("b")
    t.close(first)
    second = t.open("b")
    t.close(second)
    t.close(outer)
    summary = t.summary()
    assert summary["a"] == (1, 10.0, 6.0)
    assert summary["b"] == (2, 4.0, 4.0)
    assert t.parents == [-1, 0, 0]


def test_nested_same_name_counts_inclusive_time_once():
    t = spans.Tracer(clock=scripted_clock(0.0, 2.0, 5.0, 9.0))
    outer = t.open("f")
    inner = t.open("f")
    t.close(inner)
    t.close(outer)
    calls, incl, self_s = t.summary()["f"]
    assert (calls, incl, self_s) == (2, 9.0, 9.0)


def test_operations_get_their_own_run_id():
    t = spans.Tracer(clock=scripted_clock(*range(10)))
    first = t.open("prompt.run_method.gpf", operation=True)
    op = t.open("autodiff.matmul")
    t.close(op)
    t.close(first)
    second = t.open("prompt.run_method.gpf", operation=True)
    t.close(second)
    between = t.open("harness.ResultTable.to_csv")
    t.close(between)
    assert t.runs == [1, 1, 2, 0]


def test_run_time_less_subtracts_topmost_excluded_spans():
    t = spans.Tracer(clock=scripted_clock(0.0, 1.0, 2.0, 4.0, 5.0, 10.0))
    run_span = t.open("prompt.run_method.uniprompt")
    knn = t.open("graphs.knn_prompt_init")
    nested = t.open("autodiff.matmul")
    t.close(nested)
    t.close(knn)
    t.close(run_span)
    spent = t.run_time_less("prompt.run_method.", spans.PER_RUN_SETUP)
    assert spent == {"prompt.run_method.uniprompt": 6.0}


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_file_is_well_formed():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(Path(run.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# -- tiny runs ---------------------------------------------------------------


def tiny(name, trace, tmp_path, seed=3):
    return run.run_benchmark(name, seed, 0.0, trace, tiny=True, work_dir=tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_listed_metric(name, trace, tmp_path):
    result, report = tiny(name, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = run.load_spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        # a timed set-up before each pass, after the last and between tuning runs
        assert len(report["setup_s"]) > len(report["passes"]) + 1
    json.dumps(result)


def test_every_per_layer_metric_is_produced_by_some_workload(tmp_path):
    produced = set()
    for name in workloads.WORKLOADS:
        produced |= set(tiny(name, 1, tmp_path)[1]["layers"])
    missing = {m["name"] for m in run.load_spec()["per_layer"]} - produced
    assert not missing


def test_exact_counts_repeat_across_runs(tmp_path):
    first = tiny("small-converge", 1, tmp_path)[1]["layers"]
    second = tiny("small-converge", 1, tmp_path)[1]["layers"]
    exact = {k for k in first if k.endswith(EXACT_STATS) or k.startswith("prompt.epochs.")}
    assert exact and {k: first[k] for k in exact} == {k: second.get(k) for k in exact}


def _bindings():
    """Identity of every attribute of every loaded uniprompt module, and of
    the patched class attributes."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "uniprompt" or mod_name.startswith("uniprompt."):
            for key, value in vars(mod).items():
                out[(mod_name, key)] = id(value)
    for cls in (workloads.graphs.SparseAdj, workloads.harness.ResultTable):
        for key, value in vars(cls).items():
            out[(cls.__name__, key)] = id(value)
    return out


def test_wrappers_are_restored_after_the_traced_run(tmp_path):
    before = _bindings()
    for name in workloads.WORKLOADS:
        tiny(name, 1, tmp_path)
    assert _bindings() == before


def test_traced_run_patches_every_namespace_that_imported_a_name():
    package = workloads.uniprompt
    modules = [m for n, m in sys.modules.items() if n.startswith("uniprompt.")]
    binders = [m for m in modules if "rng_stream" in vars(m)]
    assert len(binders) >= 4
    tracer = spans.Tracer()
    tracer.install(package)
    try:
        assert all(hasattr(m.rng_stream, "__wrapped__") for m in binders)
        assert package.harness.run_method is package.prompt.run_method
        assert package.pretrain.encode is package.encoder.encode
        assert hasattr(package.prompt.knn_prompt_init, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not any(hasattr(m.rng_stream, "__wrapped__") for m in binders)


def test_a_failing_cell_counts_all_its_runs_as_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(workloads.harness, "noise_robustness", broken)
    result, report = tiny("cora-tune", 0, tmp_path)
    runs = workloads.TINY["cora-tune"].knobs["runs"]
    passes = len(report["passes"])
    assert result["failed"] == runs * passes
    assert result["attempted"] == 4 * runs * passes
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-converge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
