"""The benchmark's workloads: generated fixtures, set-up and the measured pass.

Every input is generated from the workload seed; the program only sees the
resulting bundle and checkpoint. Each workload drives the library the way the
CLI verbs do: load the bundle (and checkpoint), then ``run_experiment`` /
``noise_robustness`` / ``pretrain``, then ``ResultTable.to_csv``.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import uniprompt  # noqa: E402

if Path(uniprompt.__file__).resolve().parent != SRC / "uniprompt":
    raise ImportError(f"uniprompt was imported from {uniprompt.__file__}, not from {SRC}")

from uniprompt import encoder as encoder_mod  # noqa: E402
from uniprompt import graphs, harness  # noqa: E402
from uniprompt import pretrain as pretrain_mod  # noqa: E402
from uniprompt.hyperparams import get_tuning_config  # noqa: E402
from uniprompt.prompt import METHODS, TuneConfig  # noqa: E402

# Cora-scale SBM: 2708 nodes, 5 classes, 1433 features, about 21.6k edges.
CORA_GRAPH = dict(n=2708, classes=5, p_in=40 / 2708, p_out=10 / 2708,
                  feature_dim=1433, feature_sep=3.0, name="cora")
# Heterophilous SBM (edge homophily about 0.03) with separable features.
SMALL_GRAPH = dict(n=300, classes=4, p_in=0.01, p_out=0.10,
                   feature_dim=16, feature_sep=2.5, name="small")
NOISE_LEVEL = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    graph: dict            # generate_sbm arguments other than the seed
    encoder: dict | None   # fixture DGI PretrainConfig fields; None: no checkpoint
    knobs: dict            # keyword arguments of ``measure``
    min_passes: int        # passes per untraced run, however short --seconds is
    measure: object        # measure(pass_, graph, encoder, meta, seed, **knobs)


@dataclass
class Pass:
    """Outcome of one measured pass: cell timings, result tables, pretraining
    loss histories and the per-run checks made on each tuning result."""

    started: float = 0.0    # perf_counter() at the start of the pass
    cell_s: float = 0.0     # wall time less ``paused_s``
    paused_s: float = 0.0   # spent in timed set-ups between tuning runs
    times: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    histories: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)    # (cell, method, epochs, predictions ok)
    current: str = ""
    attempted: int = 0
    failed: int = 0
    expected_records: int = 0

    def cell(self, name, ops, fn, records=0):
        """Run one cell; a cell that raises counts all of its ops as failed."""
        self.attempted += ops
        self.expected_records += records
        self.current = name
        start, paused = time.perf_counter(), self.paused_s
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a failing cell is counted, not fatal
            traceback.print_exc()
            self.failed += ops
            return None
        finally:
            self.times[name] = time.perf_counter() - start - (self.paused_s - paused)

    def records(self):
        return [r for table in self.tables.values() for r in table.records]


def _spec(graph, encoder, pretrain, method, cfg, seed, runs):
    return harness.ExperimentSpec(
        dataset=graph.name, pretrain=pretrain, graph=graph, encoder=encoder,
        methods=(method,) if isinstance(method, str) else tuple(method),
        shots=(1,), tune={"default": cfg}, seeds=(seed,), runs=runs, workers=1)


def measure_cora_tune(p, graph, encoder, meta, seed, *, tune, runs, noisy_epochs):
    """uniprompt, gpf and linear-probe cells on the shipped dgi/cora/1-shot row,
    then uniprompt under feature noise, which rebuilds its kNN every run."""
    cfg = get_tuning_config(meta["pretrain"], graph.name, 1, **tune)
    clean = harness.ResultTable()
    for method in ("uniprompt", "gpf", "linear-probe"):
        spec = _spec(graph, encoder, meta["pretrain"], method, cfg, seed, runs)
        table = p.cell(f"run_s.{method}", runs, lambda: harness.run_experiment(spec), runs)
        if table is not None:
            clean.extend(table.records)
    p.tables["results"] = clean
    spec = _spec(graph, encoder, meta["pretrain"], "uniprompt",
                 replace(cfg, max_epochs=noisy_epochs), seed, runs)
    noisy = p.cell("run_s.uniprompt-noisy", runs,
                   lambda: harness.noise_robustness([NOISE_LEVEL], spec), runs)
    p.tables["noise"] = noisy if noisy is not None else harness.ResultTable(param_name="noise")


def measure_small_converge(p, graph, encoder, meta, seed, *, tune, runs):
    """All seven methods in one experiment, with early stopping live."""
    spec = _spec(graph, encoder, meta["pretrain"], METHODS, TuneConfig(**tune), seed, runs)
    ops = runs * len(METHODS)
    table = p.cell("cell", ops, lambda: harness.run_experiment(spec), ops)
    p.tables["results"] = table if table is not None else harness.ResultTable()


def measure_cora_pretrain(p, graph, encoder, meta, seed, *, dims, epochs, probe, runs):
    """Pretrain each objective for a fixed number of epochs, then score the
    encoder with a linear probe, as ``pretrain`` followed by ``eval`` does."""
    probed = harness.ResultTable()
    for objective in ("dgi", "graphmae", "grace"):
        cfg = pretrain_mod.PretrainConfig(objective, epochs=epochs, seed=seed, **dims)

        def pretrain_and_probe():
            start = time.perf_counter()
            enc, history, _ = pretrain_mod.pretrain_with_history(graph, cfg)
            p.times[f"pretrain_s.{objective}"] = time.perf_counter() - start
            p.histories[objective] = history
            tune = get_tuning_config(objective, graph.name, 1, **probe)
            spec = _spec(graph, enc, objective, "linear-probe", tune, seed, runs)
            return harness.run_experiment(spec)

        table = p.cell(f"cell.{objective}", 1 + runs, pretrain_and_probe, runs)
        if table is not None:
            probed.extend(table.records)
    p.tables["results"] = probed


CORA_TUNE = dict(max_epochs=20, patience=20)
WORKLOADS = {
    "cora-tune": Workload(
        "cora-tune", CORA_GRAPH,
        dict(epochs=5, hidden_dim=256, embed_dim=256),
        dict(tune=CORA_TUNE, runs=2, noisy_epochs=5),
        min_passes=1, measure=measure_cora_tune),
    "small-converge": Workload(
        "small-converge", SMALL_GRAPH,
        dict(epochs=150, hidden_dim=32, embed_dim=32),
        dict(tune=dict(up_lr=0.01, down_lr=0.01, k=10, tau=0.999, max_epochs=600,
                       patience=20, min_delta=1e-5, clf_hidden=32), runs=3),
        min_passes=1, measure=measure_small_converge),
    "cora-pretrain": Workload(
        "cora-pretrain", CORA_GRAPH, None,
        dict(dims=dict(hidden_dim=256, embed_dim=256), epochs=2, probe=CORA_TUNE, runs=1),
        min_passes=2, measure=measure_cora_pretrain),
}

# The same workloads at a size that runs in about a second, for self-tests.
_TINY_GRAPH = dict(n=60, classes=4, p_in=0.2, p_out=0.05, feature_dim=12,
                   feature_sep=3.0)
_TINY_TUNE = dict(max_epochs=3, patience=3, k=4, clf_hidden=8)
TINY = {
    "cora-tune": replace(
        WORKLOADS["cora-tune"], graph=dict(_TINY_GRAPH, name="cora"),
        encoder=dict(epochs=1, hidden_dim=8, embed_dim=8),
        knobs=dict(tune=_TINY_TUNE, runs=1, noisy_epochs=2)),
    "small-converge": replace(
        WORKLOADS["small-converge"], graph=dict(_TINY_GRAPH, name="small"),
        encoder=dict(epochs=2, hidden_dim=8, embed_dim=8),
        knobs=dict(tune=dict(_TINY_TUNE, max_epochs=30, min_delta=1e-5), runs=1)),
    "cora-pretrain": replace(
        WORKLOADS["cora-pretrain"], graph=dict(_TINY_GRAPH, name="cora"),
        knobs=dict(dims=dict(hidden_dim=8, embed_dim=8), epochs=2,
                   probe=_TINY_TUNE, runs=1)),
}


def get(name, tiny=False):
    return (TINY if tiny else WORKLOADS)[name]


def make_fixtures(workload, seed, out_dir):
    """Write the graph bundle and, if the workload tunes, a DGI checkpoint
    pretrained by the code under test. Not timed."""
    out_dir = Path(out_dir)
    graph = harness.generate_sbm(seed=seed, **workload.graph)
    graphs.save_graph_bundle(graph, out_dir / "graph")
    if workload.encoder is not None:
        cfg = pretrain_mod.PretrainConfig("dgi", seed=seed, **workload.encoder)
        enc = pretrain_mod.pretrain(graph, cfg)
        encoder_mod.save_encoder(enc, out_dir / "encoder.bin",
                                 meta={"pretrain": "dgi", "dataset": graph.name, "seed": seed})


def set_up(workload, fixture_dir):
    """What each CLI verb does first: load the bundle and the checkpoint."""
    fixture_dir = Path(fixture_dir)
    graph = graphs.load_graph_bundle(fixture_dir / "graph")
    if workload.encoder is None:
        return graph, None, {"pretrain": None}
    encoder, meta = encoder_mod.load_encoder(fixture_dir / "encoder.bin")
    return graph, encoder, meta


def run_pass(workload, inputs, seed, out_dir, between=None):
    """One timed pass of the workload, including writing its CSV files.
    ``between(p)``, if given, is called after each tuning run; the time it
    takes is left out of the pass's timings."""
    graph, encoder, meta = inputs
    p = Pass()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p.started = start = time.perf_counter()
    with RunCheck(p, between):
        workload.measure(p, graph, encoder, meta, seed, **workload.knobs)
    for name, table in p.tables.items():
        table.to_csv(out_dir / f"{name}.csv")
    p.cell_s = time.perf_counter() - start - p.paused_s
    return p


class RunCheck:
    """Sees every tuning result the harness gets back, to check that its
    prediction vector covers every node with a valid class, and to count the
    epochs it ran. One call per tuning run, so its cost is negligible. Then
    it calls ``between``, if given, and books its time as paused."""

    def __init__(self, p, between=None):
        self.p = p
        self.between = between
        self.original = None

    def __enter__(self):
        self.original = original = harness.run_method

        def checked(method, graph, encoder, train_ids, cfg):
            result = original(method, graph, encoder, train_ids, cfg)
            preds = np.asarray(result.predictions)
            ok = (preds.ndim == 1 and preds.shape[0] == graph.num_nodes
                  and np.issubdtype(preds.dtype, np.integer)
                  and bool((preds >= 0).all() and (preds < graph.num_classes).all()))
            self.p.runs.append((self.p.current, method, result.epochs_run, ok))
            if self.between is not None:
                start = time.perf_counter()
                self.between(self.p)
                self.p.paused_s += time.perf_counter() - start
            return result

        harness.run_method = checked
        return self

    def __exit__(self, *exc):
        harness.run_method = self.original


def check_pass(p):
    """Problems with one pass's outputs (empty when it is correct)."""
    problems = []
    records = p.records()
    if len(records) != p.expected_records:
        problems.append(f"{len(records)} result records, expected {p.expected_records}")
    if len(p.runs) != len(records):
        problems.append(f"{len(p.runs)} tuning runs seen for {len(records)} records")
    if not all(ok for *_, ok in p.runs):
        problems.append("a prediction vector does not cover the test ids")
    if not all(math.isfinite(r.accuracy) and 0.0 <= r.accuracy <= 1.0 for r in records):
        problems.append("accuracy outside [0, 1]")
    for objective, history in p.histories.items():
        if not all(math.isfinite(v) for v in history):
            problems.append(f"non-finite {objective} pretraining loss")
    return problems
