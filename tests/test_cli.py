"""CLI smoke tests: make-sbm -> pretrain -> tune / eval / sweep (over tau, k,
alpha or the feature-noise level), plus inspect and verify-theory, through
dispatch, and the verb set itself."""

import argparse
import csv
import json
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from uniprompt import cli, harness
from uniprompt.autodiff import save_checkpoint
from uniprompt.cli import dispatch
from uniprompt.encoder import load_encoder
from uniprompt.graphs import edge_homophily, load_graph_bundle
from uniprompt.harness import run_seed, sample_k_shot
from uniprompt.hyperparams import TUNING_TABLE, get_tuning_config
from uniprompt.prompt import METHODS, TuneConfig, run_method

TUNE_OVERRIDES = {"k": 3, "max_epochs": 5, "clf_hidden": 6}
MISSING_KEYS = ("dataset", "encoder", "methods")  # required in an experiment spec


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    bundle, checkpoint, config = root / "sbm", root / "enc.ckpt", root / "tune.json"
    assert dispatch(["make-sbm", "--n", "24", "--classes", "3", "--p-in", "0.4",
                     "--p-out", "0.05", "--feature-dim", "6", "--seed", "1",
                     "--out", str(bundle)]) == 0
    assert dispatch(["pretrain", "--dataset", str(bundle), "--objective", "dgi",
                     "--epochs", "2", "--hidden", "6", "--embed", "6",
                     "--out", str(checkpoint)]) == 0
    config.write_text(json.dumps(TUNE_OVERRIDES))
    # a misspelled tune key, in a tune config and in an experiment spec
    (root / "typo-tune.json").write_text(json.dumps({"tua": 0.5}))
    (root / "typo-eval.json").write_text(json.dumps({
        "dataset": str(bundle), "encoder": str(checkpoint), "methods": ["gpf"],
        "tune": {"default": {"tua": 0.5}},
    }))
    # malformed experiment specs: a tune config that is not a JSON object, a
    # shot or seed given as a string, a fractional run count, a misspelled
    # tune section, empty seed, shot and method lists, one method name
    # given as a string instead of a list, and repeated entries
    (root / "list-tune.json").write_text(json.dumps([1, 2]))
    experiment = {"dataset": str(bundle), "encoder": str(checkpoint), "methods": ["gpf"]}
    for name, extra in (("list-eval", {"tune": [1, 2]}),
                        ("section-list-eval", {"tune": {"gpf": [1, 2]}}),
                        ("shots-eval", {"shots": ["1"]}),
                        ("zero-shots-eval", {"shots": [0]}),
                        ("seeds-eval", {"seeds": ["1"]}),
                        ("bool-seeds-eval", {"seeds": [True]}),
                        ("runs-eval", {"runs": 2.7}),
                        ("zero-runs-eval", {"runs": 0}),
                        ("section-eval", {"tune": {"dfault": {"max_epochs": 2}}}),
                        ("empty-seeds-eval", {"seeds": []}),
                        ("empty-shots-eval", {"shots": []}),
                        ("empty-methods-eval", {"methods": []}),
                        ("string-methods-eval", {"methods": "gpf"}),
                        ("repeated-methods-eval", {"methods": ["gpf", "gpf"]}),
                        ("repeated-shots-eval", {"shots": [1, 3, 1]}),
                        ("repeated-seeds-eval", {"seeds": [2, 2]})):
        (root / f"{name}.json").write_text(json.dumps({**experiment, **extra}))
    # an experiment spec without each of its required keys
    for key in MISSING_KEYS:
        (root / f"no-{key}-eval.json").write_text(json.dumps(
            {k: v for k, v in experiment.items() if k != key}))
    return bundle, checkpoint, config


def strict_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def run_json(argv, capsys):
    capsys.readouterr()
    assert dispatch(argv) == 0
    return json.loads(capsys.readouterr().out, parse_constant=strict_constant)


def direct_run(workspace, method, shot, seed):
    """epochs and final loss of run_method on what the CLI loads, seeded as
    the harness seeds run 0."""
    bundle, checkpoint, _ = workspace
    graph = load_graph_bundle(bundle)
    enc, meta = load_encoder(checkpoint)
    cfg = get_tuning_config(meta["pretrain"], graph.name, shot, **TUNE_OVERRIDES)
    task = sample_k_shot(graph, shot, seed, 0)
    result = run_method(method, graph, enc, task.train_ids, replace(cfg, seed=run_seed(seed, 0)))
    return result.epochs_run, result.final_loss


@pytest.mark.parametrize("method", METHODS)
def test_tune_every_method(workspace, capsys, method):
    bundle, checkpoint, config = workspace
    record = run_json(["tune", "--method", method, "--encoder", str(checkpoint),
                       "--dataset", str(bundle), "--shot", "1", "--seed", "3",
                       "--config", str(config)], capsys)
    assert record["method"] == method
    assert (record["epochs"], record["final_loss"]) == direct_run(workspace, method, 1, 3)


def test_unknown_method_exits_one(workspace):
    bundle, checkpoint, _ = workspace
    assert dispatch(["tune", "--method", "prompting", "--encoder", str(checkpoint),
                     "--dataset", str(bundle), "--shot", "1"]) == 1


def test_tune_reproduces_eval_rows(workspace, capsys, tmp_path):
    bundle, checkpoint, config = workspace
    spec = tmp_path / "eval.json"
    spec.write_text(json.dumps({
        "dataset": str(bundle), "encoder": str(checkpoint),
        "methods": ["uniprompt", "gpf"], "shots": [1], "seeds": [3], "runs": 2,
        "tune": {"default": TUNE_OVERRIDES},
    }))
    assert dispatch(["eval", "--config", str(spec), "--jobs", "1",
                     "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        record = run_json(["tune", "--method", row["method"], "--encoder", str(checkpoint),
                           "--dataset", str(bundle), "--shot", row["shot"],
                           "--seed", row["seed"], "--run", row["run"],
                           "--config", str(config)], capsys)
        assert record["accuracy"] == float(row["accuracy"])


def test_tune_section_names_a_listed_method_or_default(workspace, capsys, tmp_path):
    bundle, checkpoint, _ = workspace
    spec = tmp_path / "eval.json"
    base = {"dataset": str(bundle), "encoder": str(checkpoint), "methods": ["gpf"],
            "seeds": [3], "runs": 1}
    argv = ["eval", "--config", str(spec), "--jobs", "1", "--out", str(tmp_path / "out")]
    spec.write_text(json.dumps({**base, "tune": {"gpf": TUNE_OVERRIDES}}))
    assert dispatch(argv) == 0
    spec.write_text(json.dumps({**base, "tune": {"dfault": TUNE_OVERRIDES}}))
    capsys.readouterr()
    assert dispatch(argv) == 1
    assert "tune section 'dfault'" in capsys.readouterr().err


def test_eval_runs_large_and_negative_seeds(workspace, tmp_path):
    # every seed the harness runs today stays accepted, 2**32 / 100000 and up
    bundle, checkpoint, _ = workspace
    spec = tmp_path / "eval.json"
    spec.write_text(json.dumps({
        "dataset": str(bundle), "encoder": str(checkpoint), "methods": ["linear-probe"],
        "seeds": [50000, -3], "runs": 1, "tune": {"default": TUNE_OVERRIDES},
    }))
    assert dispatch(["eval", "--config", str(spec), "--jobs", "1",
                     "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        assert sorted(row["seed"] for row in csv.DictReader(fh)) == ["-3", "50000"]


def test_zero_epochs_writes_null_loss(workspace, capsys):
    bundle, checkpoint, config = workspace
    record = run_json(["tune", "--method", "gpf", "--encoder", str(checkpoint),
                       "--dataset", str(bundle), "--shot", "1", "--config", str(config),
                       "--max-epochs", "0"], capsys)
    assert record["epochs"] == 0
    assert record["final_loss"] is None


@pytest.mark.parametrize("damage, message", [("trailing-bytes", "trailing bytes"),
                                             ("sidecar-dims", "sidecar hidden_dim"),
                                             ("flipped-byte", "sha256")])
def test_damaged_checkpoint_exits_one(workspace, capsys, tmp_path, damage, message):
    bundle, checkpoint, config = workspace
    copy = tmp_path / "enc.ckpt"
    payload = checkpoint.read_bytes()
    sidecar = json.loads(Path(str(checkpoint) + ".json").read_text())
    if damage == "trailing-bytes":
        payload += b"garbage"
    elif damage == "flipped-byte":
        # a low mantissa byte of the last weight: same length, finite value
        payload = payload[:-3] + bytes([payload[-3] ^ 1]) + payload[-2:]
    else:
        sidecar["hidden_dim"] += 1
    copy.write_bytes(payload)
    Path(str(copy) + ".json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert dispatch(["tune", "--method", "gpf", "--encoder", str(copy), "--dataset",
                     str(bundle), "--shot", "1", "--config", str(config)]) == 1
    assert message in capsys.readouterr().err


def exit_code_and_err(argv, capsys):
    capsys.readouterr()
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def damage_bundle(bundle, damage):
    """Damage a copy of a make-sbm bundle, which holds edges.npy, labels.npy
    and features.npy. A damage named "edges-npy-..." or "labels-npy-..."
    hits that array and a plain "npy-..." the features; "no-<name>" deletes
    <name>.npy, and "csv-empty" or "csv-blank" replaces it with a CSV form
    holding no row."""
    name, kind = damage.split("-", 1) if damage.startswith(("edges-", "labels-")) else (
        "features", damage)
    npy = bundle / f"{name}.npy"
    arr = np.load(npy)
    if kind == "features-cell":
        # the hand-written CSV form of the features, with a bad cell
        npy.unlink()
        lines = [",".join(repr(float(v)) for v in row) for row in arr]
        lines[1] = "abc" + lines[1][lines[1].index(","):]
        (bundle / "features.csv").write_text("\n".join(lines) + "\n")
    elif kind == "npy-truncated":
        npy.write_bytes(npy.read_bytes()[:-8])
    elif kind == "npy-float32":
        np.save(npy, arr.astype(np.float32))
    elif kind == "npy-int32":
        np.save(npy, arr.astype(np.int32))
    elif kind in ("npy-1d", "npy-2d"):
        np.save(npy, arr.ravel() if kind == "npy-1d" else arr.reshape(-1, 1))
    elif kind == "npy-object":
        np.save(npy, arr.astype(object), allow_pickle=True)
    elif kind == "npy-archive":
        with open(npy, "wb") as fh:
            np.savez(fh, **{name: arr})
    elif kind == "npy-rows":
        np.save(npy, arr[:-1])
    elif kind == "npy-columns":
        np.save(npy, arr[:, :-1] if name == "features" else np.column_stack([arr, arr[:, 0]]))
    elif kind == "npy-and-csv":
        np.savetxt(bundle / f"{name}.csv", arr, delimiter=",", comments="",
                   header="src,dst" if name == "edges" else "")
    elif kind in ("csv-empty", "csv-blank"):
        # the hand-written CSV form, holding no row
        npy.unlink()
        (bundle / f"{name}.csv").write_text("" if kind == "csv-empty" else " \n\n  \n")
    elif kind.startswith("no-"):
        (bundle / f"{kind[3:]}.npy").unlink()
    else:
        meta = json.loads((bundle / "meta.json").read_text())
        if kind == "meta-num-nodes":
            del meta["num_nodes"]
        else:
            key, value = kind.split(":")
            meta[key] = json.loads(value)
        (bundle / "meta.json").write_text(json.dumps(meta))


@pytest.mark.parametrize("damage, message", [
    ("features-cell", "features.csv: non-numeric"),
    ("npy-truncated", "features.npy: unreadable"),
    ("npy-float32", "features.npy: expected a 2-D float64 array"),
    ("npy-1d", "features.npy: expected a 2-D float64 array"),
    ("npy-object", "features.npy: unreadable"),
    ("npy-archive", "features.npy: not a single .npy array"),
    ("npy-rows", "row count mismatch: features.npy"),
    ("npy-columns", "column count mismatch: features.npy"),
    ("npy-and-csv", "holds both features.npy and features.csv"),
    ("no-features", "features.npy (or features.csv)"),
    ("csv-empty", "row count mismatch: features.csv has 0 rows, meta says"),
    ("csv-blank", "row count mismatch: features.csv has 0 rows, meta says"),
    ("edges-npy-truncated", "edges.npy: unreadable"),
    ("edges-npy-int32", "edges.npy: expected a 2-D int64 array"),
    ("edges-npy-1d", "edges.npy: expected a 2-D int64 array"),
    ("edges-npy-columns", "edges.npy: expected 2 columns (src, dst), got 3"),
    ("edges-npy-object", "edges.npy: unreadable"),
    ("edges-npy-archive", "edges.npy: not a single .npy array"),
    ("edges-npy-and-csv", "holds both edges.npy and edges.csv"),
    ("no-edges", "edges.npy (or edges.csv)"),
    ("labels-npy-truncated", "labels.npy: unreadable"),
    ("labels-npy-int32", "labels.npy: expected a 1-D int64 array"),
    ("labels-npy-2d", "labels.npy: expected a 1-D int64 array"),
    ("labels-npy-rows", "row count mismatch: labels.npy"),
    ("labels-npy-object", "labels.npy: unreadable"),
    ("labels-npy-archive", "labels.npy: not a single .npy array"),
    ("labels-npy-and-csv", "holds both labels.npy and labels.csv"),
    ("no-labels", "labels.npy (or labels.csv)"),
    ("labels-csv-empty", "row count mismatch: labels.csv has 0 rows, meta says"),
    ("labels-csv-blank", "row count mismatch: labels.csv has 0 rows, meta says"),
    ("meta-num-nodes", "missing key 'num_nodes'"),
    ("num_nodes:24.0", "num_nodes must be an integer"),
    ("num_features:true", "num_features must be an integer"),
    ("num_classes:\"3\"", "num_classes must be an integer"),
    ("num_nodes:0", "meta.json: num_nodes must be at least 1, got 0"),
    ("num_features:0", "meta.json: num_features must be at least 1, got 0")])
def test_malformed_bundle_exits_one(workspace, capsys, tmp_path, damage, message):
    bundle, _, _ = workspace
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    damage_bundle(copy, damage)
    code, err = exit_code_and_err(["inspect", "--dataset", str(copy)], capsys)
    assert code == 1
    assert err.startswith("error:") and message in err


def test_sidecar_without_activation_exits_one(workspace, capsys, tmp_path):
    bundle, checkpoint, config = workspace
    copy = tmp_path / "enc.ckpt"
    shutil.copyfile(checkpoint, copy)
    sidecar = json.loads(Path(str(checkpoint) + ".json").read_text())
    del sidecar["activation"]
    Path(str(copy) + ".json").write_text(json.dumps(sidecar))
    code, err = exit_code_and_err(["tune", "--method", "gpf", "--encoder", str(copy),
                                   "--dataset", str(bundle), "--shot", "1",
                                   "--config", str(config)], capsys)
    assert code == 1
    assert err == "error: sidecar: missing key 'activation'\n"


def verb_parsers():
    """Each verb's subparser, by name, as ``build_parser`` builds them."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_tune_flags_are_the_tune_config_fields_but_the_seed():
    flags = {a.dest: (a.option_strings, a.type) for a in verb_parsers()["tune"]._actions}
    for own in ("help", "out", "seed", "data_dir", "method", "encoder", "dataset", "shot",
                "run", "config"):
        del flags[own]
    # annotations are strings under ``from __future__ import annotations``
    assert flags == {f.name: ([f"--{f.name.replace('_', '-')}"],
                              int if f.type.startswith("int") else float)
                     for f in fields(TuneConfig) if f.name != "seed"}


def test_sidecar_naming_another_activation_exits_one(workspace, capsys, tmp_path):
    bundle, checkpoint, config = workspace
    copy = tmp_path / "enc.ckpt"
    shutil.copyfile(checkpoint, copy)
    sidecar = json.loads(Path(str(checkpoint) + ".json").read_text())
    Path(str(copy) + ".json").write_text(json.dumps({**sidecar, "activation": "relu"}))
    code, err = exit_code_and_err(["tune", "--method", "gpf", "--encoder", str(copy),
                                   "--dataset", str(bundle), "--shot", "1",
                                   "--config", str(config)], capsys)
    assert code == 1
    assert err == ("error: sidecar: activation 'relu' is not 'prelu', "
                   "the only encoder this package builds\n")


def test_checkpoint_without_a_slope_exits_one(workspace, capsys, tmp_path):
    bundle, checkpoint, config = workspace
    enc, meta = load_encoder(checkpoint)
    state = {name: p.data for name, p in enc.named_parameters().items()
             if name != "layer2.prelu_slope"}
    copy = tmp_path / "enc.ckpt"
    save_checkpoint(copy, state)
    shutil.copyfile(str(checkpoint) + ".json", str(copy) + ".json")
    code, err = exit_code_and_err(["tune", "--method", "gpf", "--encoder", str(copy),
                                   "--dataset", str(bundle), "--shot", "1",
                                   "--config", str(config)], capsys)
    assert code == 1
    assert err == "error: checkpoint: missing tensor layer2.prelu_slope\n"


def test_runtime_abort_exits_two(workspace, capsys, monkeypatch):
    bundle, checkpoint, config = workspace

    def abort(*args, **kwargs):
        raise RuntimeError("non-finite training loss at epoch 0")

    monkeypatch.setattr(cli, "run_method", abort)
    code, err = exit_code_and_err(["tune", "--method", "gpf", "--encoder", str(checkpoint),
                                   "--dataset", str(bundle), "--shot", "1",
                                   "--config", str(config)], capsys)
    assert code == 2
    assert err == "aborted: non-finite training loss at epoch 0\n"


def test_eval_tunes_each_shot_with_its_table_row(tmp_path, monkeypatch):
    bundle, checkpoint, spec = tmp_path / "cora", tmp_path / "enc.ckpt", tmp_path / "eval.json"
    assert dispatch(["make-sbm", "--n", "60", "--classes", "3", "--p-in", "0.3",
                     "--p-out", "0.05", "--name", "cora", "--out", str(bundle)]) == 0
    assert dispatch(["pretrain", "--dataset", str(bundle), "--objective", "dgi",
                     "--epochs", "1", "--hidden", "6", "--embed", "6",
                     "--out", str(checkpoint)]) == 0
    spec.write_text(json.dumps({
        "dataset": str(bundle), "encoder": str(checkpoint), "methods": ["linear-probe"],
        "shots": [1, 3], "seeds": [3], "runs": 1, "tune": {"default": {"max_epochs": 2}},
    }))
    seen = {}
    real = harness.run_method

    def recording(method, graph, encoder, train_ids, cfg):
        seen[len(train_ids) // graph.num_classes] = cfg
        return real(method, graph, encoder, train_ids, cfg)

    monkeypatch.setattr(harness, "run_method", recording)
    assert dispatch(["eval", "--config", str(spec), "--jobs", "1",
                     "--out", str(tmp_path / "out")]) == 0
    assert TUNING_TABLE["dgi"]["cora"][3][:3] == (0.0005, 0.05, 10)
    for shot in (1, 3):
        cfg = seen[shot]
        assert (cfg.up_lr, cfg.down_lr, cfg.k, cfg.tau) == TUNING_TABLE["dgi"]["cora"][shot]
        assert cfg.max_epochs == 2


# The report's line prefixes, in order; only the printed digits may vary.
VERIFY_REPORT_PREFIXES = (
    "cases: 20, eta: 0.0001",
    "function equivalence: max deviation ",
    "prediction agreement: ",
    "gradient paths (per-parameter vs direct step): max deviation ",
    "second-order remainder: ",
    "note: simultaneous two-parameter step moves the merged classifier by ~2x",
    "overall: ",
)


def verify_theory_report(argv, capsys, code):
    capsys.readouterr()
    assert dispatch(["verify-theory", "--trials", "20", *argv]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(VERIFY_REPORT_PREFIXES)
    for line, prefix in zip(lines, VERIFY_REPORT_PREFIXES):
        assert line.startswith(prefix), (line, prefix)
    return lines


def test_verify_theory_passes(capsys, tmp_path):
    report = tmp_path / "report.txt"
    lines = verify_theory_report(["--out", str(report)], capsys, 0)
    assert all(line.endswith("-> PASS") for line in lines[1:5])
    assert lines[-1] == "overall: PASS"
    assert report.read_text().splitlines() == lines


def test_verify_theory_failure_exits_two(capsys, monkeypatch):
    real = cli.run_verification
    monkeypatch.setattr(cli, "run_verification",
                        lambda **kw: replace(real(**kw), prediction_agreement=0.5))
    lines = verify_theory_report([], capsys, 2)
    assert lines[2] == "prediction agreement: 50.00% -> FAIL"
    assert lines[-1] == "overall: FAIL"


def test_inspect_prints_statistics(workspace, capsys, tmp_path):
    bundle, _, _ = workspace
    out = tmp_path / "stats.txt"
    capsys.readouterr()
    assert dispatch(["inspect", "--dataset", str(bundle), "--out", str(out)]) == 0
    graph = load_graph_bundle(bundle)
    line = (f"{graph.num_nodes} {graph.num_undirected_edges} {graph.num_features} "
            f"{graph.num_classes} {edge_homophily(graph):.2f}")
    assert capsys.readouterr().out == line + "\n"
    assert out.read_text() == line + "\n"


def experiment_rows(workspace, tmp_path, verb, *argv, methods=("uniprompt",)):
    """The results.csv rows a sweep or eval run writes from a one-seed spec."""
    bundle, checkpoint, _ = workspace
    spec = tmp_path / f"{verb}.json"
    spec.write_text(json.dumps({
        "dataset": str(bundle), "encoder": str(checkpoint), "methods": list(methods),
        "shots": [1], "seeds": [3], "runs": 2, "tune": {"default": TUNE_OVERRIDES},
    }))
    out = tmp_path / verb
    assert dispatch([verb, "--config", str(spec), "--jobs", "1", "--out", str(out), *argv]) == 0
    assert (out / "results.md").exists()
    with open(out / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_tau_writes_rows(workspace, tmp_path):
    rows = experiment_rows(workspace, tmp_path, "sweep", "--param", "tau", "--grid", "0.5,1")
    assert [(r["tau"], r["method"], r["seed"], r["run"]) for r in rows] == [
        (tau, "uniprompt", "3", run) for tau in ("0.5", "1.0") for run in ("0", "1")]
    assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)


def test_sweep_noise_writes_rows(workspace, tmp_path):
    # level 0 reproduces the plain experiment's rows
    rows = experiment_rows(workspace, tmp_path, "sweep", "--param", "noise", "--grid", "0,0.1",
                           methods=("linear-probe",))
    assert [(r["noise"], r["method"], r["seed"], r["run"]) for r in rows] == [
        (level, "linear-probe", "3", run) for level in ("0.0", "0.1") for run in ("0", "1")]
    plain = experiment_rows(workspace, tmp_path, "eval", methods=("linear-probe",))
    assert [r["accuracy"] for r in rows[:2]] == [r["accuracy"] for r in plain]


def misuses(bundle, checkpoint, config):
    """Argument lists each verb must reject: a missing --out where the verb
    writes a file, shared flags the verb does not read, tune keys and flags
    that name no TuneConfig field, and the removed ``ablate`` and ``noise``
    verbs (``tune --method ablate:<variant>`` runs a variant, ``sweep --param
    noise`` a noise experiment)."""
    graph = ["--dataset", str(bundle)]
    tune = graph + ["--encoder", str(checkpoint), "--shot", "1"]
    experiment = ["--config", str(config)]
    sbm = ["--n", "24", "--classes", "3", "--p-in", "0.4", "--p-out", "0.05"]
    out = ["--out", str(bundle.parent / "unused")]
    return {
        "pretrain-no-out": ["pretrain", *graph, "--objective", "dgi"],
        "make-sbm-no-out": ["make-sbm", *sbm],
        "eval-no-out": ["eval", *experiment],
        "sweep-no-out": ["sweep", *experiment, "--param", "tau", "--grid", "0.5"],
        "eval-seed": ["eval", *experiment, *out, "--seed", "7"],
        "sweep-seed": ["sweep", *experiment, *out, "--param", "tau", "--grid", "0.5",
                       "--seed", "7"],
        "pretrain-jobs": ["pretrain", *graph, "--objective", "dgi", *out, "--jobs", "2"],
        "tune-jobs": ["tune", *tune, "--method", "gpf", "--jobs", "2"],
        "ablate-verb": ["ablate", *tune, "--variant", "simple_add", *experiment],
        "noise-verb": ["noise", *experiment, *out, "--levels", "0"],
        "verify-theory-jobs": ["verify-theory", "--jobs", "2"],
        "make-sbm-jobs": ["make-sbm", *sbm, *out, "--jobs", "2"],
        "inspect-jobs": ["inspect", *graph, "--jobs", "2"],
        "inspect-seed": ["inspect", *graph, "--seed", "7"],
        "make-sbm-data-dir": ["make-sbm", *sbm, *out, "--data-dir", str(bundle.parent)],
        "verify-theory-data-dir": ["verify-theory", "--data-dir", str(bundle.parent)],
        "tune-unknown-config-key": ["tune", *tune, "--method", "gpf",
                                    "--config", str(config.parent / "typo-tune.json")],
        "tune-knn-sample-flag": ["tune", *tune, "--method", "gpf", "--knn-sample", "20"],
        "eval-unknown-tune-key": ["eval", "--config", str(config.parent / "typo-eval.json"),
                                  *out],
        "tune-config-not-object": ["tune", *tune, "--method", "gpf",
                                   "--config", str(config.parent / "list-tune.json")],
        "experiment-not-object": ["eval", "--config", str(config.parent / "list-tune.json"),
                                  *out],
        **{f"eval-{name}": ["eval", "--config", str(config.parent / f"{name}-eval.json"), *out]
           for name in ("list", "section-list", "shots", "zero-shots", "seeds", "bool-seeds",
                        "runs", "zero-runs", "section", "empty-seeds", "empty-shots",
                        "empty-methods", "string-methods", "repeated-methods",
                        "repeated-shots", "repeated-seeds",
                        *(f"no-{key}" for key in MISSING_KEYS))},
    }


MISUSES = tuple(misuses(Path("."), Path("."), Path(".")))  # the case names


@pytest.mark.parametrize("case", MISUSES)
def test_misuse_exits_one_without_traceback(workspace, capsys, case):
    capsys.readouterr()
    assert dispatch(misuses(*workspace)[case]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err


@pytest.mark.parametrize("key", MISSING_KEYS)
def test_missing_experiment_key_is_named(workspace, capsys, key):
    capsys.readouterr()
    assert dispatch(misuses(*workspace)[f"eval-no-{key}"]) == 1
    assert capsys.readouterr().err == f"error: experiment config: missing key '{key}'\n"


def bad_values(workspace, root):
    """Argument lists whose tune values or feature width are wrong, with the
    message each must print: a string k in an experiment spec, fractional k
    and max_epochs in a tune config, a fractional k in a sweep grid, a graph
    wider than the encoder's input, a NaN learning rate in a tune config or
    flag and in pretraining, a theorem sweep of no cases or no step, a width
    or a worker count below 1, a noise level that is not finite, an empty
    sweep grid, and a sweep grid that repeats a value once it is converted
    to the parameter's type; a tune config file or an eval tune section that sets
    the seed or names the removed ``knn_sample`` key; an eval whose second
    method's tune section is invalid, and sweep grids with a bad tau or a k
    of at least the node count, each behind a valid first value; a shot
    above the 8 nodes of each class, a shot of 8 that leaves no test node,
    and uniprompt's default k of at least the node count, each behind a
    valid probe method or shot, in an eval and in a sweep over tau or the
    noise level; a checkpoint whose header line is
    not a JSON object, or gives a shape that is not a list of non-negative
    integers, and a sidecar that is not a JSON object."""
    bundle, checkpoint, _ = workspace
    experiment = {"dataset": str(bundle), "encoder": str(checkpoint), "methods": ["gpf"],
                  "seeds": [3], "runs": 1}
    (root / "string-k.json").write_text(json.dumps({**experiment,
                                                     "tune": {"default": {"k": "4"}}}))
    (root / "experiment.json").write_text(json.dumps(experiment))
    (root / "second-bad.json").write_text(json.dumps(
        {**experiment, "methods": ["linear-probe", "gpf"],
         "tune": {"linear-probe": {"max_epochs": 2}, "gpf": {"up_lr": -1}}}))
    (root / "uniprompt.json").write_text(json.dumps(
        {**experiment, "methods": ["uniprompt"], "tune": {"default": {"max_epochs": 2}}}))
    (root / "big-shot.json").write_text(json.dumps(
        {**experiment, "methods": ["linear-probe"], "shots": [1, 20], "runs": 2}))
    (root / "all-shot.json").write_text(json.dumps(
        {**experiment, "methods": ["linear-probe"], "shots": [1, 8], "runs": 2}))
    (root / "default-k.json").write_text(json.dumps(
        {**experiment, "methods": ["linear-probe", "uniprompt"], "runs": 2}))
    (root / "fractional.json").write_text(json.dumps({"k": 4.7, "max_epochs": 2.5}))
    (root / "nan.json").write_text(json.dumps({"up_lr": float("nan")}))  # a NaN literal
    for key, value in (("seed", 7), ("knn_sample", 20)):
        (root / f"{key}-tune.json").write_text(json.dumps({key: value, "max_epochs": 2}))
        (root / f"{key}-eval.json").write_text(json.dumps(
            {**experiment, "tune": {"default": {key: value}}}))
    payload = checkpoint.read_bytes()
    sidecar = Path(str(checkpoint) + ".json").read_text()
    for tag, header, side in (("list-header", [1, 2], sidecar),
                              ("string-dim", {"layer1.weight": ["a"]}, sidecar),
                              ("negative-dim", {"layer1.weight": [-1, 8]}, sidecar),
                              ("list-sidecar", None, "[1]")):
        head = payload[:payload.index(b"\n")] if header is None else json.dumps(header).encode()
        (root / f"{tag}.ckpt").write_bytes(head + payload[payload.index(b"\n"):])
        (root / f"{tag}.ckpt.json").write_text(side)
    wide = root / "wide"
    assert dispatch(["make-sbm", "--n", "24", "--classes", "3", "--p-in", "0.4",
                     "--p-out", "0.05", "--feature-dim", "7", "--seed", "1",
                     "--out", str(wide)]) == 0
    out = ["--out", str(root / "unused"), "--jobs", "1"]
    tune = ["tune", "--method", "gpf", "--encoder", str(checkpoint), "--shot", "1"]
    damaged = ["tune", "--method", "gpf", "--dataset", str(bundle), "--shot", "1", "--encoder"]
    return {
        "tune-checkpoint-header-list": ([*damaged, str(root / "list-header.ckpt")],
                                        "checkpoint: header must be a JSON object, got list"),
        "tune-checkpoint-string-dim": ([*damaged, str(root / "string-dim.ckpt")],
                                       "checkpoint: shape of 'layer1.weight' must be a list of "
                                       "non-negative integers, got ['a']"),
        "tune-checkpoint-negative-dim": ([*damaged, str(root / "negative-dim.ckpt")],
                                         "checkpoint: shape of 'layer1.weight' must be a list of "
                                         "non-negative integers, got [-1, 8]"),
        "tune-sidecar-list": ([*damaged, str(root / "list-sidecar.ckpt")],
                              "sidecar must be a JSON object, got list"),
        "eval-string-k": (["eval", "--config", str(root / "string-k.json"), *out],
                          "k must be an integer, got '4'"),
        "tune-fractional-config": ([*tune, "--dataset", str(bundle),
                                    "--config", str(root / "fractional.json")],
                                   "k must be an integer, got 4.7"),
        "sweep-fractional-k": (["sweep", "--config", str(root / "experiment.json"), *out,
                                "--param", "k", "--grid", "2.5,3"],
                               "sweep grid: k must be integers, got [2.5, 3.0]"),
        "tune-feature-width": ([*tune, "--dataset", str(wide)],
                               "feature width 7 != encoder input width 6"),
        "tune-nan-config": ([*tune, "--dataset", str(bundle), "--config", str(root / "nan.json")],
                            "up_lr must be finite, got nan"),
        "tune-nan-flag": ([*tune, "--dataset", str(bundle), "--up-lr", "nan"],
                          "up_lr must be finite, got nan"),
        "pretrain-nan-lr": (["pretrain", "--dataset", str(bundle), "--objective", "dgi",
                             "--lr", "nan", *out[:2]], "lr must be finite, got nan"),
        "verify-theory-no-trials": (["verify-theory", "--trials", "0", *out[:2]],
                                    "trials must be at least 1, got 0"),
        "verify-theory-negative-trials": (["verify-theory", "--trials", "-3", *out[:2]],
                                          "trials must be at least 1, got -3"),
        "verify-theory-zero-eta": (["verify-theory", "--eta", "0", *out[:2]],
                                   "eta must be finite and positive, got 0.0"),
        "verify-theory-nan-eta": (["verify-theory", "--eta", "nan", *out[:2]],
                                  "eta must be finite and positive, got nan"),
        "tune-zero-clf-hidden": ([*tune, "--dataset", str(bundle), "--clf-hidden", "0"],
                                 "clf_hidden must be at least 1, got 0"),
        "pretrain-zero-hidden": (["pretrain", "--dataset", str(bundle), "--objective", "dgi",
                                  "--hidden", "0", *out[:2]], "hidden_dim must be at least 1, got 0"),
        "pretrain-negative-embed": (["pretrain", "--dataset", str(bundle), "--objective", "dgi",
                                     "--embed", "-3", *out[:2]],
                                    "embed_dim must be at least 1, got -3"),
        "eval-negative-jobs": (["eval", "--config", str(root / "experiment.json"), *out[:2],
                                "--jobs", "-4"], "workers must be at least 1, got -4"),
        "sweep-nan-noise": (["sweep", "--config", str(root / "experiment.json"), *out,
                             "--param", "noise", "--grid", "nan"],
                            "noise_sigma must be finite and non-negative, got nan"),
        "sweep-inf-noise": (["sweep", "--config", str(root / "experiment.json"), *out,
                             "--param", "noise", "--grid", "0,inf"],
                            "noise_sigma must be finite and non-negative, got inf"),
        "sweep-empty-noise-grid": (["sweep", "--config", str(root / "experiment.json"), *out,
                                    "--param", "noise", "--grid", ","], "sweep grid is empty"),
        "sweep-repeated-tau": (["sweep", "--config", str(root / "experiment.json"), *out,
                                "--param", "tau", "--grid", "0.5,0.5"],
                               "sweep grid must not repeat a value, got [0.5, 0.5]"),
        "sweep-repeated-k": (["sweep", "--config", str(root / "experiment.json"), *out,
                              "--param", "k", "--grid", "4,4.0"],
                             "sweep grid must not repeat a value, got [4, 4]"),
        "sweep-repeated-noise": (["sweep", "--config", str(root / "experiment.json"), *out,
                                  "--param", "noise", "--grid", "0,0.0"],
                                 "sweep grid must not repeat a value, got [0.0, 0.0]"),
        "tune-seed-config": ([*tune, "--dataset", str(bundle),
                              "--config", str(root / "seed-tune.json")],
                             "a tune config cannot set seed: it comes from --seed and --run"),
        "eval-seed-section": (["eval", "--config", str(root / "seed-eval.json"), *out],
                              "tune section 'default' cannot set seed: it comes from the "
                              "experiment's seeds and runs"),
        "tune-knn-sample-config": ([*tune, "--dataset", str(bundle),
                                    "--config", str(root / "knn_sample-tune.json")],
                                   "unknown tune config keys: knn_sample"),
        "eval-knn-sample-section": (["eval", "--config", str(root / "knn_sample-eval.json"),
                                     *out], "unknown tune config keys: knn_sample"),
        "eval-second-section-bad": (["eval", "--config", str(root / "second-bad.json"), *out],
                                    "learning rates must be positive"),
        "sweep-second-tau-bad": (["sweep", "--config", str(root / "experiment.json"), *out,
                                  "--param", "tau", "--grid", "0.5,2"],
                                 "tau must be in [0, 1], got 2.0"),
        "sweep-k-not-below-n": (["sweep", "--config", str(root / "uniprompt.json"), *out,
                                 "--param", "k", "--grid", "5,500"],
                                "sweep grid: k must be below the 24 nodes, got 500"),
        "eval-shot-above-class": (["eval", "--config", str(root / "big-shot.json"), *out],
                                  "class 0 has 8 nodes, fewer than k=20"),
        "sweep-noise-shot-above-class": (["sweep", "--config", str(root / "big-shot.json"),
                                          *out, "--param", "noise", "--grid", "0,0.1"],
                                         "class 0 has 8 nodes, fewer than k=20"),
        "eval-shot-leaves-no-test-node": (["eval", "--config", str(root / "all-shot.json"),
                                           *out], "empty test split"),
        "sweep-shot-leaves-no-test-node": (["sweep", "--config", str(root / "all-shot.json"),
                                            *out, "--param", "tau", "--grid", "0.5"],
                                           "empty test split"),
        "eval-default-k-not-below-n": (["eval", "--config", str(root / "default-k.json"), *out],
                                       "k out of range"),
        "sweep-default-k-not-below-n": (["sweep", "--config", str(root / "default-k.json"),
                                         *out, "--param", "tau", "--grid", "0.5"],
                                        "k out of range"),
    }


@pytest.mark.parametrize("case", ["eval-string-k", "tune-fractional-config",
                                  "sweep-fractional-k", "tune-feature-width",
                                  "tune-nan-config", "tune-nan-flag", "pretrain-nan-lr",
                                  "verify-theory-no-trials", "verify-theory-negative-trials",
                                  "verify-theory-zero-eta", "verify-theory-nan-eta",
                                  "tune-zero-clf-hidden", "pretrain-zero-hidden",
                                  "pretrain-negative-embed", "eval-negative-jobs",
                                  "sweep-nan-noise", "sweep-inf-noise",
                                  "sweep-empty-noise-grid", "sweep-repeated-tau",
                                  "sweep-repeated-k", "sweep-repeated-noise",
                                  "tune-seed-config",
                                  "eval-seed-section", "tune-knn-sample-config",
                                  "eval-knn-sample-section", "eval-second-section-bad",
                                  "sweep-second-tau-bad", "sweep-k-not-below-n",
                                  "eval-shot-above-class", "sweep-noise-shot-above-class",
                                  "eval-shot-leaves-no-test-node",
                                  "sweep-shot-leaves-no-test-node",
                                  "eval-default-k-not-below-n",
                                  "sweep-default-k-not-below-n",
                                  "tune-checkpoint-header-list", "tune-checkpoint-string-dim",
                                  "tune-checkpoint-negative-dim", "tune-sidecar-list"])
def test_bad_value_exits_one_with_its_message(workspace, capsys, tmp_path, monkeypatch, case):
    argv, message = bad_values(workspace, tmp_path)[case]
    runs = []
    real = harness.run_method
    monkeypatch.setattr(harness, "run_method", lambda *a: runs.append(a) or real(*a))
    capsys.readouterr()
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "unused").exists()
    assert runs == []  # failed before its first run


VERBS = ("pretrain", "tune", "eval", "sweep", "verify-theory", "make-sbm", "inspect")


def test_verb_set_is_fixed(capsys):
    # one experiment driver: a grid of tune values or noise levels is a sweep
    parsers = verb_parsers()
    assert tuple(parsers) == VERBS
    for verb in VERBS:
        capsys.readouterr()
        assert dispatch([verb, "--help"]) == 0, verb
        assert capsys.readouterr().out.startswith(f"usage: uniprompt {verb} "), verb
    param = next(a for a in parsers["sweep"]._actions if a.dest == "param")
    assert tuple(param.choices) == harness.SWEEP_PARAMS


def test_tune_shot_leaving_no_test_node_fails_before_the_run(workspace, capsys, monkeypatch):
    # 8 shots of each 8-node class train every node: the sampled task is
    # checked before run_method, not after it by evaluate
    bundle, checkpoint, config = workspace
    runs = []
    monkeypatch.setattr(cli, "run_method", lambda *a: runs.append(a))
    capsys.readouterr()
    assert dispatch(["tune", "--method", "linear-probe", "--encoder", str(checkpoint),
                     "--dataset", str(bundle), "--shot", "8", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: empty test split\n"
    assert runs == []
