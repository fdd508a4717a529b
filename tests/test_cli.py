"""CLI smoke tests: make-sbm -> pretrain -> tune / ablate through dispatch."""

import json
from dataclasses import replace

import pytest

from uniprompt.cli import dispatch
from uniprompt.encoder import load_encoder
from uniprompt.graphs import load_graph_bundle
from uniprompt.harness import sample_k_shot
from uniprompt.hyperparams import get_tuning_config
from uniprompt.prompt import ABLATION_VARIANTS, METHODS, run_method

TUNE_OVERRIDES = {"k": 3, "max_epochs": 5, "clf_hidden": 6}


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
    return bundle, checkpoint, config


def run_json(argv, capsys):
    capsys.readouterr()
    assert dispatch(argv) == 0
    return json.loads(capsys.readouterr().out)


def direct_run(workspace, method, shot, seed):
    """epochs and final loss of run_method on what the CLI loads."""
    bundle, checkpoint, _ = workspace
    graph = load_graph_bundle(bundle)
    enc, meta = load_encoder(checkpoint)
    cfg = get_tuning_config(meta["pretrain"], graph.name, shot, **TUNE_OVERRIDES)
    task = sample_k_shot(graph, shot, seed, 0)
    result = run_method(method, graph, enc, task.train_ids, replace(cfg, seed=seed))
    return result.epochs_run, result.final_loss


@pytest.mark.parametrize("method", METHODS)
def test_tune_every_method(workspace, capsys, method):
    bundle, checkpoint, config = workspace
    record = run_json(["tune", "--method", method, "--encoder", str(checkpoint),
                       "--dataset", str(bundle), "--shot", "1", "--seed", "3",
                       "--config", str(config)], capsys)
    assert record["method"] == method
    assert (record["epochs"], record["final_loss"]) == direct_run(workspace, method, 1, 3)


@pytest.mark.parametrize("variant", ABLATION_VARIANTS)
def test_ablate_every_variant(workspace, capsys, variant):
    bundle, checkpoint, config = workspace
    record = run_json(["ablate", "--variant", variant, "--encoder", str(checkpoint),
                       "--dataset", str(bundle), "--shot", "1", "--seed", "3",
                       "--config", str(config)], capsys)
    assert record["method"] == f"ablate:{variant}"
    assert (record["epochs"], record["final_loss"]) == direct_run(
        workspace, f"ablate:{variant}", 1, 3)


def test_unknown_method_exits_one(workspace):
    bundle, checkpoint, _ = workspace
    assert dispatch(["tune", "--method", "prompting", "--encoder", str(checkpoint),
                     "--dataset", str(bundle), "--shot", "1"]) == 1
