"""Learnable prompt topology and the one tuning engine.

Every method here trains a set of "upstream" parameters jointly with a
downstream MLP classifier on a pretrained encoder. ``METHOD_TABLE`` maps each
``METHODS`` name to a builder that takes a run's labeled ids and returns
those parameters and a ``represent(training)`` function for the node
representations: the gate weights of a kNN prompt topology fused into the
graph by bootstrapping (uniprompt) and of its three component-replacement
ablations, one vector added to every feature row (gpf), the weights of a
thawed encoder clone (fine-tune), or nothing (linear probe). ``run_method``
owns everything else.

The frozen layer 1 is linear before its bias, so the graph prompts and gpf
build its ``X W1`` once per run and reuse it every epoch. gpf's feature
prompt enters through the identity ``(X + 1·p) W1 = X W1 + 1·(p W1)``, as a
(1, hidden) shift of that constant product.

The loss reads only the labeled rows, so ``represent(True)`` computes the
representations of those rows alone, from their 2-hop receptive field; the
linear probe indexes its constant representations. ``represent(False)``,
prediction, computes every row. A run's labeled ids are fixed when its
method is built, so its ``ReceptiveField`` is built at the first training
call and reused: the slices of the operator each layer reads, their
positions, and layer 1's constant input at the rows the field reads. No
later epoch slices anything, and a run of 0 epochs slices nothing.

Every method encodes through the one symmetric normalization of ``graphs``:
the graph prompts run ``NormContext`` on their learned values, each training
epoch on the tape through ``normalize_field``, which scales only the entries
the field's slices read, and prediction through ``normalize``, on constant
values; the other methods use the graph's cached ``normalized_adjacency()``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import (
    Classifier,
    classify,
    clone_encoder,
    encode,
    encoder_checkpoint_hash,
    init_classifier,
    predictions_from_logits,
    thaw,
)
from .graphs import NormContext, ReceptiveField, SparseAdj, knn_prompt_init
from .seeds import rng_stream

# glibc's malloc_trim(size_t pad) hands the heap's free pages back to the OS
_malloc_trim = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "malloc_trim",
                       lambda pad: 0)

# TuneConfig's fields by type; knn_sample may also be None
INTEGER_FIELDS = ("k", "max_epochs", "patience", "clf_hidden", "seed", "knn_sample")
NUMBER_FIELDS = ("up_lr", "down_lr", "tau", "alpha", "min_delta")


def check_types(config, integer_fields, number_fields):
    """ValueError naming the first field of ``config`` that is not an
    integer (of ``integer_fields``) or a number (of ``number_fields``), or
    is not finite."""
    for fields, kind, cls in ((integer_fields, "an integer", numbers.Integral),
                              (number_fields, "a number", numbers.Real)):
        for field in fields:
            value = getattr(config, field)
            if isinstance(value, bool) or not isinstance(value, cls):
                raise ValueError(f"{field} must be {kind}, got {value!r}")
            if not -math.inf < value < math.inf:  # unlike math.isfinite, any int passes
                raise ValueError(f"{field} must be finite, got {value!r}")


@dataclass
class TuneConfig:
    up_lr: float = 0.001
    down_lr: float = 0.05
    k: int = 50
    tau: float = 0.9999
    alpha: float = 10.0
    max_epochs: int = 2000
    patience: int = 20
    min_delta: float = 1e-6
    seed: int = 0
    clf_hidden: int = 256
    knn_sample: int | None = None  # sampled-kNN approximation (candidate count)

    def validate(self):
        check_types(self, [f for f in INTEGER_FIELDS
                           if f != "knn_sample" or self.knn_sample is not None], NUMBER_FIELDS)
        if self.up_lr <= 0 or self.down_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.k < 1:
            raise ValueError("k out of range")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.clf_hidden < 1:
            raise ValueError(f"clf_hidden must be at least 1, got {self.clf_hidden}")
        if self.max_epochs < 0 or self.min_delta < 0:
            raise ValueError("max_epochs and min_delta must be non-negative")
        return self


def gate_values(w, alpha):
    """ELU(w * alpha - alpha) + 1 per entry of a (nnz, 1) weight tensor:
    smooth, non-negative and non-decreasing in w, exactly 1 at w = 1.
    Deeply negative weights give exactly 0.0 (expm1 rounds to -1)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    z = ad.add(ad.scalar_scale(w, alpha), ad.constant(np.array([[-alpha]])))
    return ad.add(ad.elu(z), ad.constant(np.array([[1.0]])))


def _union_with_graph(adj, support):
    """Union support with the graph's values (zero on prompt-only entries),
    plus the positions of the prompt entries inside the union."""
    n = adj.n
    rows = np.concatenate([adj.row_ids(), support.row_ids()])
    cols = np.concatenate([adj.indices, support.indices])
    vals = np.concatenate([adj.data, np.zeros(support.nnz)])
    union = SparseAdj.from_coo(n, rows, cols, vals)
    union_keys = union.row_ids() * n + union.indices
    support_keys = support.row_ids() * n + support.indices
    pos = np.searchsorted(union_keys, support_keys)
    return union, pos


def bootstrap_fuse(previous, gates, positions, union, tau):
    """A_hat^(t) = tau * stop_grad(A_hat^(t-1)) + (1 - tau) * A_tilde over the
    union support. ``previous`` holds the (union nnz, 1) values of
    A_hat^(t-1), ``gates`` the prompt values and ``positions`` their entries
    in ``union``; only the prompt term carries gradient."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    scattered = ad.segment_sum(gates, positions, union.nnz)
    fused = ad.add(
        ad.scalar_scale(ad.constant(previous), tau),
        ad.scalar_scale(scattered, 1.0 - tau),
    )
    return ad.SparseTensor(union, fused)


def random_support_like(knn_support, n, rng):
    """Seeded random symmetric support with exactly as many entries as the
    kNN support (the topology-replacement ablation)."""
    if knn_support.nnz % 2 != 0:
        raise ValueError("prompt support must be symmetric")
    m = knn_support.nnz // 2
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError("graph too small for the requested edge count")
    flat = rng.choice(total, size=m, replace=False)
    # invert the row-major upper-triangle enumeration; the float solve can be
    # off by one at row boundaries, so nudge afterwards
    i = ((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * flat)) // 2).astype(np.int64)
    offset = lambda r: r * (2 * n - 1 - r) // 2
    i = np.where(offset(i) > flat, i - 1, i)
    i = np.where(offset(i + 1) <= flat, i + 1, i)
    j = (flat - offset(i) + i + 1).astype(np.int64)
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    return SparseAdj.from_coo(n, rows, cols, np.ones(rows.size))


@dataclass
class TuneResult:
    method: str
    predictions: np.ndarray
    loss_history: list
    classifier: Classifier
    upstream: list  # trained upstream parameters; empty for the linear probe

    @property
    def epochs_run(self):
        return len(self.loss_history)

    @property
    def final_loss(self):
        return self.loss_history[-1] if self.loss_history else None


def _validate_labeled(graph, train_ids):
    ids = np.asarray(train_ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("no labeled nodes")
    if np.unique(ids).size != ids.size:
        raise ValueError("labeled ids must be distinct")
    if ids.min() < 0 or ids.max() >= graph.num_nodes:
        raise ValueError("labeled id out of range")
    if graph.labels is None:
        raise ValueError("missing labels")
    return ids


def _train_loop(cfg, step_fn):
    """Shared early-stopping loop: stop at max_epochs or after ``patience``
    epochs without the training loss improving by more than min_delta."""
    history = []
    best, bad = math.inf, 0
    for epoch in range(cfg.max_epochs):
        loss = step_fn(epoch)
        if not math.isfinite(loss):
            raise RuntimeError(f"non-finite training loss at epoch {epoch}")
        history.append(loss)
        if best - loss > cfg.min_delta:
            best = loss
            bad = 0
        else:
            bad += 1
            if bad >= cfg.patience:
                break
    return history


def _prompt_support(graph, cfg, topology):
    """The run's prompt support: the graph's cached exact kNN support, a
    sampled kNN drawn for this run, or a random support with as many entries
    as the exact kNN."""
    if topology == "random":
        knn = graph.knn_support(cfg.k)
        return random_support_like(knn, graph.num_nodes, rng_stream("prompt-init", cfg.seed))
    if cfg.knn_sample is not None:
        sample_seed = int(rng_stream("prompt-init", cfg.seed).integers(2**31))
        return knn_prompt_init(
            graph.features, cfg.k, sample_size=cfg.knn_sample, seed=sample_seed
        )
    return graph.knn_support(cfg.k)


def _graph_prompt(topology, integration):
    """Builder of a gated prompt over a ``knn`` or ``random`` support, merged
    with the graph by ``bootstrap`` fusion, by ``simple_add`` or not at all
    (``discard``). The upstream parameters are the gate weights."""

    def build(graph, encoder, cfg, ids):
        support = _prompt_support(graph, cfg, topology)
        union, positions = _union_with_graph(graph.adjacency(), support)
        w = ad.parameter(np.ones((support.nnz, 1)), name="prompt.gate_weights")
        if integration == "discard":
            ctx = NormContext(support, add_self_loops=False)
        else:
            ctx = NormContext(union, add_self_loops=True)
        a_union = ad.constant(union.data.reshape(-1, 1))
        # X and the frozen W1 never change, so layer 1's product is built once
        xw1 = ad.matmul(ad.constant(graph.features), encoder.layer1.weight)
        field = functools.cache(lambda: ctx.receptive_field(ids, xw1))
        fused = union.data.reshape(-1, 1)  # A_hat^(t) of the bootstrap path

        def represent(training):
            nonlocal fused
            if integration == "bootstrap" and not training:
                # predict with the last fused adjacency of training
                return encode(encoder, ctx.normalize(fused), xw1=xw1)
            gates = gate_values(w if training else w.detach(), cfg.alpha)
            if integration == "bootstrap":
                values = bootstrap_fuse(fused, gates, positions, union, cfg.tau).values
                fused = values.data
            elif integration == "simple_add":
                values = ad.add(a_union, ad.segment_sum(gates, positions, union.nnz))
            else:
                values = gates
            if not training:
                return encode(encoder, ctx.normalize(values.data), xw1=xw1)
            f = field()
            return encode(encoder, ctx.normalize_field(values, f), xw1=f.inputs)

        return [w], represent

    return build


def _linear_probe(graph, encoder, cfg, ids):
    """Representations from a single encoder forward on the original
    normalized adjacency; only the classifier trains."""
    h = encode(encoder, graph.normalized_adjacency(), ad.constant(graph.features))
    return [], lambda training: ad.gather_rows(h, ids) if training else h


def _thawed_encoder(graph, encoder, cfg, ids):
    """The weights of a thawed clone of the encoder train; the shared encoder
    is left as it was."""
    clone = thaw(clone_encoder(encoder))
    adj = graph.normalized_adjacency()
    x = ad.constant(graph.features)
    field = functools.cache(lambda: ReceptiveField(adj, ids, x))

    def represent(training):
        if not training:
            return encode(clone, adj, x)
        f = field()
        return encode(clone, f.layers, f.inputs)

    return clone.parameters(), represent


def _feature_prompt(graph, encoder, cfg, ids):
    """One learnable vector p added to every feature row (gpf), on the original
    normalized adjacency.

    Layer 1 is linear before its bias, so ``(X + 1·p) W1 = X W1 + 1·(p W1)``:
    the prompt is a learned shift of layer 1's ``X W1``, which is built once
    per run. No epoch forms ``X + 1·p`` or any n x F product or gradient; p's
    gradient is the column sum of the shift's gradient times ``W1ᵀ``."""
    adj = graph.normalized_adjacency()
    w1 = encoder.layer1.weight
    xw1 = ad.matmul(ad.constant(graph.features), w1)
    field = functools.cache(lambda: ReceptiveField(adj, ids, xw1))
    p = ad.parameter(np.zeros((1, graph.num_features)), name="gpf.prompt")

    def represent(training):
        shift = ad.matmul(p if training else p.detach(), w1)
        if not training:
            return encode(encoder, adj, xw1=ad.add(xw1, shift))
        f = field()
        return encode(encoder, f.layers, xw1=ad.add(f.inputs, shift))

    return [p], represent


# (topology, integration) row of each component-replacement ablation
_ABLATIONS = {
    "random_topo": ("random", "bootstrap"),
    "simple_add": ("knn", "simple_add"),
    "discard_topo": ("knn", "discard"),
}
ABLATION_VARIANTS = tuple(_ABLATIONS)

# method name -> builder(graph, encoder, cfg, ids) -> (upstream parameters,
# represent(training)): the training representations are the rows of the
# run's labeled ``ids`` through their receptive field, built at the first
# training call; prediction's are every node's
METHOD_TABLE = {
    "uniprompt": _graph_prompt("knn", "bootstrap"),
    "linear-probe": _linear_probe,
    "fine-tune": _thawed_encoder,
    "gpf": _feature_prompt,
    **{f"ablate:{v}": _graph_prompt(*row) for v, row in _ABLATIONS.items()},
}
METHODS = tuple(METHOD_TABLE)


def run_method(method, graph, encoder, train_ids, cfg):
    """Tune one ``METHODS`` entry on the labeled ``train_ids``.

    ``METHOD_TABLE[method]``, built for the labeled ids, gives the method's
    upstream parameters and its ``represent(training)``, the node
    representations that feed a fresh MLP classifier. Each epoch runs one
    forward and backward pass over ``represent(True)``, the labeled rows
    through their receptive field (built at the first epoch, reused by the
    later ones), then steps one Adam state for the upstream parameters at
    ``cfg.up_lr`` (when there are any) and one for the classifier at
    ``cfg.down_lr``. Training stops at ``cfg.max_epochs`` or after
    ``cfg.patience`` epochs without improvement; predictions use
    ``represent(False)`` over every node. The graph's feature width must be
    the encoder's input width. The shared ``encoder`` must be frozen, and
    its checkpoint hash is asserted unchanged at the end.

    Before and after the run the heap's free pages go back to the OS, so
    neither the run nor its caller grows around the other's freed holes.
    """
    _malloc_trim(ctypes.c_size_t(0))
    try:
        return _tune(method, graph, encoder, train_ids, cfg)
    finally:
        _malloc_trim(ctypes.c_size_t(0))


def _tune(method, graph, encoder, train_ids, cfg):
    if method not in METHOD_TABLE:
        raise ValueError(f"unknown method '{method}'")
    cfg.validate()
    if not encoder.frozen:
        raise ValueError("tuning requires a frozen encoder")
    if graph.num_features != encoder.in_dim:
        raise ValueError(f"feature width {graph.num_features} != encoder input width "
                         f"{encoder.in_dim}")
    ids = _validate_labeled(graph, train_ids)
    targets = graph.labels[ids]
    hash_before = encoder_checkpoint_hash(encoder)

    upstream, represent = METHOD_TABLE[method](graph, encoder, cfg, ids)
    clf = init_classifier(encoder.out_dim, cfg.clf_hidden, graph.num_classes,
                          rng_stream("classifier-init", cfg.seed))
    optimizers = [ad.AdamState(upstream, lr=cfg.up_lr)] if upstream else []
    optimizers.append(ad.AdamState(clf.parameters(), lr=cfg.down_lr))

    def step(epoch):
        loss = ad.cross_entropy(classify(clf, represent(True)), targets)
        ad.backward(loss)
        for opt in optimizers:
            ad.adam_step(opt)
        return loss.item()

    history = _train_loop(cfg, step)
    preds = predictions_from_logits(classify(clf, represent(False)))
    if encoder_checkpoint_hash(encoder) != hash_before:
        raise RuntimeError("frozen encoder parameters changed during tuning")
    return TuneResult(method, preds, history, clf, upstream)
