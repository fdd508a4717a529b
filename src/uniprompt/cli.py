"""Command-line entry point binding all modules into reproducible commands."""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .encoder import load_encoder, save_encoder
from .graphs import BUNDLE_FILES, edge_homophily, load_graph_bundle, save_graph_bundle
from .harness import (
    DEFAULT_RUNS,
    DEFAULT_SEEDS,
    SWEEP_PARAMS,
    ExperimentSpec,
    evaluate,
    generate_sbm,
    run_experiment,
    run_seed,
    sample_k_shot,
    sweep,
)
from .hyperparams import get_tuning_config
from .prompt import INTEGER_FIELDS, METHODS, TuneConfig, run_method
from .pretrain import OBJECTIVES, PretrainConfig, pretrain
from .theory import format_report, run_verification

# a ``tune`` flag per TuneConfig field; the seed comes from --seed and --run
TUNE_FIELDS = tuple(f.name for f in fields(TuneConfig) if f.name != "seed")


def _data_dir(args):
    return Path(args.data_dir or os.environ.get("UNIPROMPT_DATA_DIR", "."))


def _resolve_dataset(args, name):
    """A bundle directory given by path, else by name under the data dir."""
    path = Path(name)
    return load_graph_bundle(path if path.is_dir() else _data_dir(args) / name)


def _check_out(out, *paths, make_dirs=False):
    """Refuse ``out``, the value of --out, before the verb's work unless each
    of ``paths``, the files the verb writes or replaces, can be written: it
    is no directory and no symbolic link that cannot be written through (a
    loop, or a link into a missing directory), and its nearest existing
    ancestor is a writable directory, which must be its own directory
    unless the verb makes the directories it needs (``make_dirs``). A path
    of None, an --out not given, is skipped. Nothing is created, so a
    refused value leaves nothing behind."""
    for path in map(Path, filter(None, paths)):
        where = f"--out {out}" if path == Path(out) else f"--out {out}: {path}"
        if path.is_dir():
            raise ValueError(f"{where} is a directory")
        parent = path.parent
        if path.is_symlink():
            try:
                os.stat(path)
            except OSError as exc:
                if exc.errno == errno.ELOOP:
                    raise ValueError(f"{where} is a symbolic link loop") from None
                # written through, to a file in a directory no verb makes
                parent = Path(os.path.realpath(path)).parent
        elif make_dirs:
            parent = next(p for p in (parent, *parent.parents) if os.path.lexists(p))
            if not parent.is_dir():
                raise ValueError(f"--out {out}: {parent} is not a directory")
        if not parent.is_dir():
            raise ValueError(f"--out {out}: no directory {parent}")
        if not os.access(parent, os.W_OK):
            raise ValueError(f"--out {out}: {parent} is not writable")


def _emit(text, out):
    """Print ``text``, and write it to ``out`` when --out is given."""
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _json_object(value, what):
    """``value`` if it is a JSON object, else a ValueError naming ``what``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _nonempty_list(value, item_ok):
    return isinstance(value, list) and bool(value) and all(item_ok(v) for v in value)


def _required(config, key):
    if key not in config:
        raise ValueError(f"experiment config: missing key '{key}'")
    return config[key]


def _entry_list(config, key, item_ok, what, default=None):
    """``config[key]`` as a non-empty list of distinct ``what``, else a
    ValueError naming ``key``; the key may be absent when a ``default`` is
    given."""
    value = _required(config, key) if default is None else config.get(key, default)
    if not _nonempty_list(value, item_ok):
        raise ValueError(f"{key} must be a non-empty list of {what}, got {value!r}")
    if len(set(value)) != len(value):
        raise ValueError(f"{key} must not repeat an entry, got {value!r}")
    return value


def _tune_config(args, pretrain_name, dataset_name):
    """Shipped table < config file < explicit flags, seeded as the harness
    seeds run ``args.run`` of seed ``args.seed``."""
    overrides = {}
    if args.config:
        overrides = _json_object(_load_json(args.config), f"tune config {args.config}")
        if "seed" in overrides:
            raise ValueError("a tune config cannot set seed: it comes from --seed and --run")
    for name in TUNE_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    cfg = get_tuning_config(pretrain_name or "", dataset_name or "", args.shot, **overrides)
    return replace(cfg, seed=run_seed(args.seed, args.run)).validate()


def _cmd_pretrain(args):
    _check_out(args.out, args.out, args.out + ".json")
    graph = _resolve_dataset(args, args.dataset)
    cfg = PretrainConfig(
        objective=args.objective,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        hidden_dim=args.hidden,
        embed_dim=args.embed,
    )
    enc = pretrain(graph, cfg)
    save_encoder(enc, args.out, meta={
        "pretrain": args.objective,
        "dataset": graph.name,
        "seed": args.seed,
    })
    print(f"wrote encoder checkpoint to {args.out}")
    return 0


def _cmd_tune(args):
    _check_out(args.out, args.out)
    graph = _resolve_dataset(args, args.dataset)
    enc, meta = load_encoder(args.encoder)
    cfg = _tune_config(args, meta.get("pretrain"), graph.name)
    task = sample_k_shot(graph, args.shot, args.seed, args.run)
    if task.test_ids.size == 0:  # evaluate's check, before the run
        raise ValueError("empty test split")
    result = run_method(args.method, graph, enc, task.train_ids, cfg)
    record = {
        "method": args.method,
        "dataset": graph.name,
        "seed": args.seed,
        "run": args.run,
        "shot": args.shot,
        "accuracy": evaluate(result.predictions, task),
        "epochs": result.epochs_run,
        "final_loss": result.final_loss,
    }
    _emit(json.dumps(record, sort_keys=True, allow_nan=False), args.out)
    return 0


def _experiment_spec(args):
    config = _json_object(_load_json(args.config), f"experiment config {args.config}")
    dataset, encoder = _required(config, "dataset"), _required(config, "encoder")
    methods = _entry_list(config, "methods", lambda m: isinstance(m, str), "method names")
    shots = _entry_list(config, "shots", lambda s: _is_int(s) and s >= 1,
                        "positive integers", default=[1])
    seeds = _entry_list(config, "seeds", _is_int, "integers", default=list(DEFAULT_SEEDS))
    runs = config.get("runs", DEFAULT_RUNS)
    if not _is_int(runs) or runs < 1:
        raise ValueError(f"runs must be a positive integer, got {runs!r}")
    overrides = _json_object(config.get("tune", {}), "the tune section")
    for key, section in overrides.items():
        if key != "default" and key not in methods:
            raise ValueError(f"tune section '{key}' is neither a listed method nor 'default'")
        if "seed" in _json_object(section, f"tune section '{key}'"):
            raise ValueError(f"tune section '{key}' cannot set seed: it comes from the "
                             "experiment's seeds and runs")
    graph = _resolve_dataset(args, dataset)
    enc, meta = load_encoder(encoder)
    pretrain_name = meta.get("pretrain", "unknown")
    tune = {(m, shot): get_tuning_config(pretrain_name, graph.name, shot,
                                         **overrides.get(m, overrides.get("default", {})))
            for m in methods for shot in shots}
    return ExperimentSpec(
        dataset=graph.name,
        pretrain=pretrain_name,
        graph=graph,
        encoder=enc,
        methods=tuple(methods),
        shots=tuple(shots),
        tune=tune,
        seeds=tuple(seeds),
        runs=runs,
        workers=args.jobs,
    )


def _table_files(out_dir):
    """The files eval and sweep write under --out."""
    return Path(out_dir) / "results.csv", Path(out_dir) / "results.md"


def _write_table(table, out_dir):
    csv_path, md_path = _table_files(out_dir)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    table.to_csv(csv_path)
    table.to_markdown(md_path)
    print(f"wrote {csv_path} and {md_path}")
    return 0


def _cmd_eval(args):
    _check_out(args.out, *_table_files(args.out), make_dirs=True)
    return _write_table(run_experiment(_experiment_spec(args)), args.out)


def _cmd_sweep(args):
    _check_out(args.out, *_table_files(args.out), make_dirs=True)
    grid = [float(v) for v in args.grid.split(",") if v]
    return _write_table(sweep(args.param, grid, _experiment_spec(args)), args.out)


def _cmd_verify_theory(args):
    _check_out(args.out, args.out)
    summary = run_verification(trials=args.trials, eta=args.eta, seed=args.seed)
    _emit(format_report(summary), args.out)
    return 0 if summary.passed else 2


def _cmd_make_sbm(args):
    _check_out(args.out, *(Path(args.out) / name for name in BUNDLE_FILES), make_dirs=True)
    graph = generate_sbm(
        n=args.n,
        classes=args.classes,
        p_in=args.p_in,
        p_out=args.p_out,
        feature_dim=args.feature_dim,
        feature_sep=args.sep,
        seed=args.seed,
        name=args.name,
    )
    save_graph_bundle(graph, args.out)
    print(f"wrote SBM bundle to {args.out} "
          f"(N={graph.num_nodes}, E={graph.num_undirected_edges}, "
          f"homophily={edge_homophily(graph):.2f})")
    return 0


def _cmd_inspect(args):
    _check_out(args.out, args.out)
    graph = _resolve_dataset(args, args.dataset)
    hom = edge_homophily(graph)
    hom_text = "n/a" if np.isnan(hom) else f"{hom:.2f}"
    _emit(f"{graph.num_nodes} {graph.num_undirected_edges} "
          f"{graph.num_features} {graph.num_classes} {hom_text}", args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="uniprompt")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, *flags, out_required=False):
        """--out plus each of the shared ``flags`` the verb reads."""
        p.add_argument("--out", required=out_required, default=None)
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=0)
        if "jobs" in flags:
            p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        if "data-dir" in flags:
            p.add_argument("--data-dir", default=None)

    p = sub.add_parser("pretrain", help="train a self-supervised encoder")
    common(p, "seed", "data-dir", out_required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--embed", type=int, default=256)
    p.set_defaults(handler=_cmd_pretrain)

    p = sub.add_parser("tune", help="run one downstream tuning run")
    common(p, "seed", "data-dir")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--encoder", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--shot", type=int, required=True)
    p.add_argument("--run", type=int, default=0)
    p.add_argument("--config", default=None)
    for name in TUNE_FIELDS:
        p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                       type=int if name in INTEGER_FIELDS else float)
    p.set_defaults(handler=_cmd_tune)

    p = sub.add_parser("eval", help="full repeated-run experiment")
    common(p, "jobs", "data-dir", out_required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("sweep", help="hyperparameter or feature-noise sweep")
    common(p, "jobs", "data-dir", out_required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--grid", required=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify-theory", help="prompt/classifier equivalence checks")
    common(p, "seed")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--eta", type=float, default=1e-4)
    p.set_defaults(handler=_cmd_verify_theory)

    p = sub.add_parser("make-sbm", help="write a synthetic SBM bundle into the directory "
                       "--out, made if missing (meta.json, edges.npy, labels.npy and "
                       "features.npy; loaders also accept the .csv forms)")
    common(p, "seed", out_required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--p-in", dest="p_in", type=float, required=True)
    p.add_argument("--p-out", dest="p_out", type=float, required=True)
    p.add_argument("--sep", type=float, default=3.0)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=16)
    p.add_argument("--name", default="sbm")
    p.set_defaults(handler=_cmd_make_sbm)

    p = sub.add_parser("inspect", help="print dataset statistics")
    common(p, "data-dir")
    p.add_argument("--dataset", required=True)
    p.set_defaults(handler=_cmd_inspect)

    return parser


def dispatch(argv):
    """0 on success, 1 on validation error, 2 on runtime abort."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        # an OSError comes from a path the user named: a missing file, a
        # directory where a file is read, a file where a directory is needed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
