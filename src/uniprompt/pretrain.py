"""Self-supervised pretraining: one engine, three objective builders.

``pretrain_with_history`` owns everything the objectives share: it validates
the config, initializes the encoder from the ``encoder-init`` stream, runs the
Adam loop over the encoder and the objective's own parameters, and returns
the encoder frozen. ``OBJECTIVE_TABLE`` maps each ``OBJECTIVES`` name to a
builder ``(graph, cfg, encoder) -> (loss_fn, extra parameters, epoch stream
name)``: local-global mutual information with a corrupted negative graph
(dgi), two-view InfoNCE contrast with edge dropping and feature masking
(grace), or masked-feature reconstruction with a scaled cosine error
(graphmae). ``loss_fn(rng)`` draws one corruption/view/mask instance from
``rng`` and returns the objective on it.

GRACE and GraphMAE form no n x F array besides the features X:
- GRACE masks a view's feature columns on W1's rows, (X*m) W1 = X (m*W1)
  for a 0/1 column mask m: the same products in the same GEMM, so the same
  bits as the masked copy of X it replaces.
- GraphMAE works at hidden width wherever it can. Its mask token t enters
  as a shift of layer 1's product, (X*keep + 1_M t) W1 = keep*(X W1) +
  1_M (t W1), and its decoder aggregates the masked rows M before
  projecting them, (A (H*keep) W_d)[M] = (A[M] (H*keep)) W_d. The
  projection and the cosine to X's rows are one ``ad.decoded_cosine``
  node, which reads X's rows by id, takes their scales from one pass over
  X per run, and holds a tile of ``ad.COSINE_BLOCK_ROWS`` masked rows at
  width F at a time.
- DGI forms its corrupted copy X[perm] for the product X[perm] W1 and frees
  it as soon as that product is formed; W1's rule regathers it from X and
  perm in backward. Permuting the rows of X W1 instead would change DGI's
  bits, and every tuning pin is taken on a DGI encoder.

An epoch's tape keeps only the arrays its backward rules read (see
``autodiff``). A value that no rule reads is freed while forward still runs:
every objective's layer products X W1 and H W2, which only constants
multiply, and GRACE's unit projections, which ``ad.info_nce`` copies into
one scaled stack. A value that a rule reads but backward can rebuild
cheaply from arrays the tape keeps anyway is kept as its recipe
(``ad.with_recipe``) and freed too, with the same bits:
- a PReLU activation that a trainable product reads (layer 1's, by W2; the
  encoder output, by DGI's discriminator or GRACE's head), from the
  pre-activation its rule keeps: four n x d arrays of a DGI or GRACE epoch
  and one of a GraphMAE epoch;
- DGI's X[perm], one n x F array, from X and perm;
- GRACE's projection head, six n x d arrays: per view the pre-activation
  z0 = h W0 + b0 from the encoder output's recipe, the ELU output ``hidden``
  from z0's recipe (``ad.elu`` gives it one), and the pre-normalization
  rows u = hidden W + b from hidden's. Each uses that forward's weight and
  bias, which ``ad.adam_step`` rebinds but never writes. A GRACE epoch's
  tape then keeps, of its n x d arrays, only the encoder's two PReLU
  inputs per view.

Per-epoch training losses are noisy because every epoch draws a fresh
instance. With a ``probe_seed`` the engine also evaluates the live objective
on one fixed instance before training and after every epoch; a probe that
fails to shrink over the first epochs flags a bad configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import _glorot, encode, freeze, init_encoder
from .graphs import SparseAdj, symmetric_normalize
from .prompt import check_types
from .seeds import rng_stream


@dataclass
class PretrainConfig:
    objective: str
    epochs: int = 300
    lr: float = 0.001
    seed: int = 0
    hidden_dim: int = 256
    embed_dim: int = 256

    def validate(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective '{self.objective}'")
        check_types(self, ("epochs", "seed", "hidden_dim", "embed_dim"), ("lr",))
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        for name in ("hidden_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        return self


def pretrain(graph, cfg):
    return pretrain_with_history(graph, cfg)[0]


def pretrain_with_history(graph, cfg, probe_seed=None):
    """Returns (frozen encoder, per-epoch training losses, probe losses).

    Each epoch evaluates the objective on a fresh instance from its epoch
    stream and takes one Adam step. The probe list (empty unless
    ``probe_seed`` is given) holds the objective evaluated on one fixed
    instance before training and after every epoch.
    """
    cfg.validate()
    enc = init_encoder(graph.num_features, cfg.hidden_dim, cfg.embed_dim,
                       rng_stream("encoder-init", cfg.seed))
    loss_fn, extra, stream = OBJECTIVE_TABLE[cfg.objective](graph, cfg, enc)
    opt = ad.AdamState(enc.parameters() + extra, lr=cfg.lr)
    epoch_rng = rng_stream(stream, cfg.seed)
    history, probes = [], []

    def probe():
        if probe_seed is not None:
            probes.append(loss_fn(np.random.default_rng(probe_seed)).item())

    probe()
    for epoch in range(cfg.epochs):
        loss = loss_fn(epoch_rng)
        if not np.isfinite(loss.item()):
            raise RuntimeError(f"non-finite pretraining loss at epoch {epoch}")
        history.append(loss.item())
        ad.backward(loss)
        ad.adam_step(opt)
        probe()
    return freeze(enc), history, probes


# ---------------------------------------------------------------------------
# DGI: local-global mutual information
# ---------------------------------------------------------------------------


def _dgi(graph, cfg, enc):
    adj = graph.normalized_adjacency()
    x = ad.constant(graph.features)
    disc = ad.parameter(np.eye(cfg.embed_dim), name="dgi.discriminator")

    def corrupted_xw1(perm):
        """X[perm] W1. W1's rule regathers X[perm] in backward, so the copy
        is freed as soon as this returns."""
        x_perm = ad.constant(graph.features[perm])
        return ad.matmul(ad.with_recipe(x_perm, lambda: graph.features[perm]),
                         enc.layer1.weight)

    def loss_fn(rng):
        perm = rng.permutation(graph.num_nodes)
        h_pos = encode(enc, adj, x)
        h_neg = encode(enc, adj, xw1=corrupted_xw1(perm))
        summary = ad.sigmoid(ad.row_mean(h_pos))                  # (1, d)
        weighted = ad.matmul(disc, ad.transpose(summary))         # (d, 1)
        score_pos = ad.matmul(h_pos, weighted)                    # (n, 1)
        score_neg = ad.matmul(h_neg, weighted)
        return ad.scalar_scale(
            ad.add(ad.row_mean(ad.softplus(ad.scalar_scale(score_pos, -1.0))),
                   ad.row_mean(ad.softplus(score_neg))),
            0.5,
        )

    return loss_fn, [disc], "corruption"


# ---------------------------------------------------------------------------
# GRACE: two-view InfoNCE
# ---------------------------------------------------------------------------


EDGE_DROP = 0.2      # share of undirected edges each view drops
FEATURE_MASK = 0.2   # share of feature columns each view masks
TEMPERATURE = 0.5    # InfoNCE temperature


def _drop_edges(graph, rate, rng):
    mask = graph.src < graph.dst
    pairs = np.stack([graph.src[mask], graph.dst[mask]], axis=1)
    keep = rng.random(pairs.shape[0]) >= rate
    if pairs.shape[0] and not keep.any():
        raise RuntimeError("edge-drop rate left zero edges")
    kept = pairs[keep]
    rows = np.concatenate([kept[:, 0], kept[:, 1]])
    cols = np.concatenate([kept[:, 1], kept[:, 0]])
    return SparseAdj.from_coo(graph.num_nodes, rows, cols, np.ones(rows.size))


def infonce_loss(z1, z2, temperature):
    """Symmetric InfoNCE: positives are the same node across views, negatives
    are all other nodes in both views. One ``ad.info_nce`` tape node, which
    works in tiles and holds no n x n matrix."""
    return ad.info_nce(z1, z2, temperature)


def _grace(graph, cfg, enc):
    init_rng = rng_stream("encoder-init", cfg.seed, 1)
    d = cfg.embed_dim
    head = [
        ad.parameter(_glorot(init_rng, d, d), name="grace.proj.w1"),
        ad.parameter(np.zeros((1, d)), name="grace.proj.b1"),
        ad.parameter(_glorot(init_rng, d, d), name="grace.proj.w2"),
        ad.parameter(np.zeros((1, d)), name="grace.proj.b2"),
    ]

    def affine(rows, weight, bias):
        """rows W + b, with a recipe that remakes it from the recipe (or the
        value) of ``rows`` and this forward's W and b."""
        rows_value, w, b = ad._kept(rows), weight.data, bias.data
        out = ad.add(ad.matmul(rows, weight), bias)

        def remake():
            value = rows_value() @ w
            value += b
            return value

        return ad.with_recipe(out, remake)

    def project(h):
        # the head's rules remake z0, hidden and u from the encoder output's
        # recipe, so the head keeps no n x d array on the tape
        hidden = ad.elu(affine(h, head[0], head[1]))
        return ad.l2_normalize_rows(affine(hidden, head[2], head[3]))

    x = ad.constant(graph.features)

    def masked_xw1(rng):
        """(X*keep) W1 for a fresh 0/1 column mask, as X (keep*W1): the mask
        falls on W1's rows, and no masked copy of X is formed."""
        keep = ad.constant(rng.random((graph.num_features, 1)) >= FEATURE_MASK)
        return ad.matmul(x, ad.hadamard(enc.layer1.weight, keep))

    def loss_fn(rng):
        adj1 = symmetric_normalize(_drop_edges(graph, EDGE_DROP, rng))
        adj2 = symmetric_normalize(_drop_edges(graph, EDGE_DROP, rng))
        z1 = project(encode(enc, adj1, xw1=masked_xw1(rng)))
        z2 = project(encode(enc, adj2, xw1=masked_xw1(rng)))
        return infonce_loss(z1, z2, TEMPERATURE)

    return loss_fn, head, "views"


# ---------------------------------------------------------------------------
# GraphMAE: masked-feature reconstruction with scaled cosine error
# ---------------------------------------------------------------------------


MASK_RATE = 0.5   # share of nodes whose features are masked, at least one
SCE_GAMMA = 2.0   # the scaled cosine error's exponent


def scaled_cosine_error(cos, gamma):
    """Mean over rows of (1 - cos)^gamma for an (m, 1) column of cosines
    between the masked rows' features and their reconstructions."""
    one = ad.constant(np.ones_like(cos.data))
    return ad.row_mean(ad.power(ad.sub(one, cos), gamma))


def _graphmae(graph, cfg, enc):
    """Masked-feature reconstruction: the masked rows M take a learned token,
    the encoder runs, H is re-masked at M, and a GCN layer decodes M's rows
    back to features. Two identities keep every per-epoch array at hidden
    width or at M's rows:

    - the token shifts layer 1's product: (X*keep + 1_M t) W1 equals
      keep*(X W1) + 1_M (t W1), so layer 1 reads the constant features and
      backward forms no input gradient;
    - the decoder aggregates before it projects: (A (H*keep) W_d + b_d)[M]
      equals (A[M] (H*keep)) W_d + b_d, with A[M] the masked rows of the
      operator, so only |M| rows are ever F wide, and those a tile at a
      time inside ``ad.decoded_cosine``.

    Besides its constant inputs, an epoch forms no n x F array. The objective
    is the n x F composition's in exact arithmetic, not in its bits; that
    composition is the tests' oracle (``composed_graphmae_loss`` in
    ``tests/test_pretrain.py``).
    """
    adj = graph.normalized_adjacency()
    n, f = graph.features.shape
    init_rng = rng_stream("encoder-init", cfg.seed, 1)
    mask_token = ad.parameter(np.zeros((1, f)), name="graphmae.mask_token")
    dec_w = ad.parameter(_glorot(init_rng, cfg.embed_dim, f), name="graphmae.decoder.weight")
    dec_b = ad.parameter(np.zeros((1, f)), name="graphmae.decoder.bias")
    n_mask = max(1, int(round(MASK_RATE * n)))
    x = ad.constant(graph.features)
    x_scale = ad.unit_row_scales(graph.features)

    def loss_fn(rng):
        masked = np.sort(rng.choice(n, size=n_mask, replace=False))
        keep = np.ones((n, 1))
        keep[masked] = 0.0
        w1 = enc.layer1.weight
        token = ad.matmul(ad.constant(1.0 - keep), ad.matmul(mask_token, w1))
        xw1 = ad.add(ad.hadamard(ad.matmul(x, w1), ad.constant(keep)), token)
        h = encode(enc, adj, xw1=xw1)
        adj_masked, _, support = adj.restrict(masked)
        h_read = ad.hadamard(ad.gather_rows(h, support), ad.constant(keep[support]))
        cos = ad.decoded_cosine(ad.spmm(adj_masked, h_read), dec_w, dec_b,
                                graph.features, x_scale, masked)
        return scaled_cosine_error(cos, SCE_GAMMA)

    return loss_fn, [mask_token, dec_w, dec_b], "mask"


# objective name -> builder(graph, cfg, encoder) -> (loss_fn(rng), the
# objective's own parameters, the name of its epoch stream)
OBJECTIVE_TABLE = {"dgi": _dgi, "grace": _grace, "graphmae": _graphmae}
OBJECTIVES = tuple(OBJECTIVE_TABLE)
