"""Few-shot task sampling, repeated-run evaluation, sweeps, synthetic graph
generation, and result reporting. Each driver returns its ``ResultTable``
and writes no file; the caller writes the table where it chooses.

``sweep`` is the one driver that repeats an experiment over a grid: of a
tune field (tau, k, alpha) or of the feature-noise level (noise), whose
level 0 reproduces the baseline exactly."""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from .graphs import Graph, add_gaussian_noise
from .prompt import KNN_METHODS, METHODS, run_method
from .seeds import rng_stream

DEFAULT_SEEDS = (42, 12345, 23344, 38108, 39788)
DEFAULT_RUNS = 20
SWEEP_PARAMS = ("tau", "k", "alpha", "noise")


@dataclass(frozen=True)
class FewShotTask:
    shot: int
    train_ids: np.ndarray
    test_ids: np.ndarray
    test_labels: np.ndarray
    seed: int
    run: int


def sample_k_shot(graph, k, seed, run):
    """Stratified uniform draw of k labeled nodes per class from a stream
    keyed by (seed, run); every remaining labeled node becomes test."""
    if graph.labels is None:
        raise ValueError("missing labels")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng_stream("sampling", seed, run)
    picked = []
    for cls in range(graph.num_classes):
        ids = np.flatnonzero(graph.labels == cls)
        if ids.size < k:
            raise ValueError(f"class {cls} has {ids.size} nodes, fewer than k={k}")
        picked.append(rng.choice(ids, size=k, replace=False))
    train = np.sort(np.concatenate(picked))
    test = np.setdiff1d(np.arange(graph.num_nodes), train)
    return FewShotTask(
        shot=k,
        train_ids=train,
        test_ids=test,
        test_labels=graph.labels[test],
        seed=seed,
        run=run,
    )


def evaluate(predictions, task):
    """Fraction correct on the test ids only."""
    if task.test_ids.size == 0:
        raise ValueError("empty test split")
    preds = np.asarray(predictions)
    if preds.ndim != 1 or preds.shape[0] <= int(task.test_ids.max()):
        raise ValueError("missing prediction: vector does not cover test ids")
    return float((preds[task.test_ids] == task.test_labels).mean())


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    dataset: str
    pretrain: str
    method: str
    shot: int
    seed: int
    run: int
    accuracy: float
    param: float | None = None  # a sweep's leading column


class ResultTable:
    """Per-run accuracy records with mean +- population-std aggregation."""

    def __init__(self, records=(), param_name=None):
        self.records = list(records)
        self.param_name = param_name

    def extend(self, records):
        self.records.extend(records)

    def cells(self):
        """Group records by (param?, dataset, pretrain, method, shot)."""
        groups = {}
        for r in self.records:
            key = (r.param, r.dataset, r.pretrain, r.method, r.shot)
            groups.setdefault(key, []).append(r.accuracy)
        return groups

    def aggregate(self):
        """Rows of (key..., count, mean, population std), sorted."""
        cells = self.cells()
        rows = []
        for key in sorted(cells, key=lambda k: (str(k[0]), k[1:])):
            accs = np.asarray(cells[key])
            rows.append(key + (accs.size, float(accs.mean()), float(accs.std())))
        return rows

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            lead = f"{self.param_name}," if self.param_name else ""
            fh.write(lead + "dataset,pretrain,method,shot,seed,run,accuracy\n")
            key = lambda r: (str(r.param), r.dataset, r.pretrain, r.method,
                             r.shot, r.seed, r.run)
            for r in sorted(self.records, key=key):
                lead = f"{r.param!r}," if self.param_name else ""
                fh.write(
                    f"{lead}{r.dataset},{r.pretrain},{r.method},{r.shot},"
                    f"{r.seed},{r.run},{r.accuracy!r}\n"
                )

    def to_markdown(self, path):
        """One table per (param, dataset, pretrain): methods as rows, shots as
        columns, the best mean per column in bold. Std is population std."""
        rows = self.aggregate()
        scopes = sorted({(r[0], r[1], r[2]) for r in rows}, key=lambda s: str(s))
        lines = []
        for param, dataset, pretrain in scopes:
            scoped = [r for r in rows if r[:3] == (param, dataset, pretrain)]
            shots = sorted({r[4] for r in scoped})
            methods = sorted({r[3] for r in scoped})
            cell = {(r[3], r[4]): (r[6], r[7]) for r in scoped}
            best = {
                s: max((m for m in methods if (m, s) in cell),
                       key=lambda m: cell[(m, s)][0])
                for s in shots
            }
            title = f"## {dataset} / {pretrain}"
            if self.param_name is not None:
                title += f" ({self.param_name}={param})"
            lines.append(title)
            lines.append("")
            lines.append("| method | " + " | ".join(f"{s}-shot" for s in shots) + " |")
            lines.append("|---" * (len(shots) + 1) + "|")
            for m in methods:
                row = [m]
                for s in shots:
                    if (m, s) not in cell:
                        row.append("-")
                        continue
                    mean, std = cell[(m, s)]
                    text = f"{100 * mean:.2f} ± {100 * std:.2f}"
                    row.append(f"**{text}**" if best[s] == m else text)
                lines.append("| " + " | ".join(row) + " |")
            lines.append("")
        with open(path, "w") as fh:
            fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentSpec:
    dataset: str
    pretrain: str
    graph: Graph
    encoder: object
    methods: tuple
    shots: tuple
    tune: dict                      # (method, shot) or "default" -> TuneConfig
    seeds: tuple = DEFAULT_SEEDS
    runs: int = DEFAULT_RUNS
    noise_sigma: float = 0.0
    workers: int = 1

    def config_for(self, method, shot):
        """The (method, shot) entry, else the "default" one."""
        for key in ((method, shot), "default"):
            if key in self.tune:
                return self.tune[key]
        raise KeyError(f"no tune config for method '{method}' at {shot} shots")


def run_seed(seed, run):
    """The TuneConfig seed of run ``run`` under harness seed ``seed``."""
    return seed * 100000 + run


def _run_one(spec, method, shot, seed, run):
    graph = spec.graph
    if spec.noise_sigma > 0.0:
        noise_rng = rng_stream("noise", int(round(spec.noise_sigma * 1e9)), seed, run)
        noisy = add_gaussian_noise(graph.features, spec.noise_sigma,
                                   int(noise_rng.integers(2**31)))
        graph = graph.with_features(noisy)
    task = sample_k_shot(graph, shot, seed, run)
    cfg = replace(spec.config_for(method, shot), seed=run_seed(seed, run))
    result = run_method(method, graph, spec.encoder, task.train_ids, cfg)
    return RunRecord(spec.dataset, spec.pretrain, method, shot, seed, run,
                     evaluate(result.predictions, task))


_WORKER_SPEC = None


def _pool_init(spec):
    global _WORKER_SPEC
    _WORKER_SPEC = spec


def _pool_run(args):
    return _run_one(_WORKER_SPEC, *args)


def _checked(spec):
    """``spec`` once its methods, noise level, worker count, every (method,
    shot) tune config, every shot against each class and the test split, and
    k against the nodes (where a kNN support is built) are valid, so a bad
    value fails before any run, with a run's message."""
    for m in spec.methods:
        if m not in METHODS:
            raise ValueError(f"unknown method '{m}'")
    if not 0.0 <= spec.noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and non-negative, got {spec.noise_sigma!r}")
    if spec.noise_sigma * 1e9 >= 2**63:  # the noise stream's key must fit 64 bits
        raise ValueError(f"noise_sigma must be below 2**63 / 1e9, got {spec.noise_sigma!r}")
    if spec.workers < 1:
        raise ValueError(f"workers must be at least 1, got {spec.workers}")
    for m in spec.methods:
        for shot in spec.shots:
            spec.config_for(m, shot).validate()
    graph = spec.graph
    sizes = [] if graph.labels is None else np.bincount(graph.labels, minlength=graph.num_classes)
    for shot in spec.shots:
        short = np.flatnonzero(np.less(sizes, shot))
        if short.size:  # the first class sample_k_shot rejects
            raise ValueError(f"class {short[0]} has {sizes[short[0]]} nodes, fewer than k={shot}")
        if shot * len(sizes) == graph.num_nodes:  # every node trains: evaluate's check
            raise ValueError("empty test split")
    if any(spec.config_for(m, shot).k >= graph.num_nodes
           for m in spec.methods if m in KNN_METHODS for shot in spec.shots):
        raise ValueError("k out of range")
    return spec


def run_experiment(spec):
    """Every (method, shot, seed, run) combination, the spec checked before
    the first run; exactly len(seeds) * runs records per (method, shot)
    cell."""
    _checked(spec)
    keys = [
        (method, shot, seed, run)
        for method in spec.methods
        for shot in spec.shots
        for seed in spec.seeds
        for run in range(spec.runs)
    ]
    if spec.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=spec.workers, initializer=_pool_init, initargs=(spec,)
        ) as pool:
            records = list(pool.map(_pool_run, keys, chunksize=8))
    else:
        records = [_run_one(spec, *key) for key in keys]
    records.sort(key=lambda r: (r.method, r.shot, r.seed, r.run))
    return ResultTable(records)


def sweep(param, grid, base_spec):
    """One experiment per grid value of a ``SWEEP_PARAMS`` name, every spec
    checked before any run. 'noise' sets the feature-noise level ``noise_sigma`` (kNN recomputed on
    the noisy features inside each tuning run; level 0 reproduces the
    baseline exactly); the others set that field of every tune config."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter '{param}'")
    if not grid:
        raise ValueError("sweep grid is empty")
    if param == "k" and not all(float(v).is_integer() for v in grid):
        raise ValueError(f"sweep grid: k must be integers, got {list(grid)!r}")
    n = base_spec.graph.num_nodes
    if param == "k" and max(grid) >= n:
        raise ValueError(f"sweep grid: k must be below the {n} nodes, got {max(grid):g}")
    values = [int(v) if param == "k" else float(v) for v in grid]
    if len(set(values)) != len(values):
        raise ValueError(f"sweep grid must not repeat a value, got {values!r}")
    specs = []
    for value in values:
        if param == "noise":
            spec = replace(base_spec, noise_sigma=value)
        else:
            spec = replace(base_spec, tune={key: replace(c, **{param: value})
                                            for key, c in base_spec.tune.items()})
        specs.append(_checked(spec))
    table = ResultTable(param_name=param)
    for value, spec in zip(values, specs):
        table.extend(replace(r, param=value) for r in run_experiment(spec).records)
    return table


def noise_robustness(levels, base_spec):
    """``sweep("noise", levels, base_spec)``, kept under its own name because
    the benchmark's cora-tune workload and its tracer call it by name."""
    return sweep("noise", levels, base_spec)


# ---------------------------------------------------------------------------
# synthetic graphs
# ---------------------------------------------------------------------------


SBM_BLOCK_PAIRS = 1 << 18  # node pairs ``generate_sbm`` draws per block, at most


def generate_sbm(n, classes, p_in, p_out, feature_dim, feature_sep, seed, name="sbm"):
    """Stochastic block model with balanced classes and class-Gaussian
    features whose means are pairwise ``feature_sep`` apart. Memory is
    O(n + edges + ``SBM_BLOCK_PAIRS``), not O(n^2)."""
    if not np.isfinite(feature_sep):
        raise ValueError(f"feature_sep must be finite, got {feature_sep}")
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must be in [0, 1]")
    if feature_dim < classes:
        raise ValueError("feature_dim must be >= classes")
    if n < classes:
        raise ValueError("need at least one node per class")
    rng = np.random.default_rng(seed)

    sizes = np.full(classes, n // classes)
    sizes[: n % classes] += 1
    labels = np.repeat(np.arange(classes), sizes)

    # the pairs i < j in row-major order, drawn a block of rows at a time:
    # consecutive rng.random calls give the bits of one call over all pairs
    rows_per_block = max(1, SBM_BLOCK_PAIRS // n)
    kept_i, kept_j = [], []
    for start in range(0, n - 1, rows_per_block):
        rows = np.arange(start, min(start + rows_per_block, n - 1))
        counts = n - 1 - rows
        i = np.repeat(rows, counts)
        j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = rng.random(i.size) < np.where(labels[i] == labels[j], p_in, p_out)
        kept_i.append(i[keep])
        kept_j.append(j[keep])
    iu, ju = np.concatenate(kept_i), np.concatenate(kept_j)
    src = np.concatenate([iu, ju])
    dst = np.concatenate([ju, iu])

    means = np.zeros((classes, feature_dim))
    means[np.arange(classes), np.arange(classes)] = feature_sep / np.sqrt(2.0)
    features = means[labels] + rng.standard_normal((n, feature_dim))

    return Graph(n, src, dst, features, labels, classes, name=name)
