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
    # grace
    edge_drop: float = 0.2
    feature_mask: float = 0.2
    temperature: float = 0.5
    # graphmae
    mask_rate: float = 0.5
    sce_gamma: float = 2.0

    def validate(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective '{self.objective}'")
        check_types(self, ("epochs", "seed", "hidden_dim", "embed_dim"),
                    ("lr", "temperature", "sce_gamma", "edge_drop", "feature_mask", "mask_rate"))
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        for name in ("hidden_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        for name in ("edge_drop", "feature_mask", "mask_rate"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.sce_gamma < 1.0:
            raise ValueError("sce_gamma must be >= 1")
        if self.objective == "graphmae" and self.mask_rate == 0:
            raise ValueError("mask rate 0 gives no training signal")
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

    def loss_fn(rng):
        perm = rng.permutation(graph.num_nodes)
        h_pos = encode(enc, adj, x)
        h_neg = encode(enc, adj, ad.constant(graph.features[perm]))
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


def _mask_feature_columns(x, rate, rng):
    keep = (rng.random(x.shape[1]) >= rate).astype(np.float64)
    return x * keep


def infonce_loss(z1, z2, temperature):
    """Symmetric InfoNCE: positives are the same node across views, negatives
    are all other nodes in both views. One ``ad.info_nce`` tape node, which
    holds three n x n matrices where the composed ops held ten and gives the
    same bits as them."""
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

    def project(h):
        hidden = ad.elu(ad.add(ad.matmul(h, head[0]), head[1]))
        return ad.l2_normalize_rows(ad.add(ad.matmul(hidden, head[2]), head[3]))

    def loss_fn(rng):
        adj1 = symmetric_normalize(_drop_edges(graph, cfg.edge_drop, rng))
        adj2 = symmetric_normalize(_drop_edges(graph, cfg.edge_drop, rng))
        x1 = ad.constant(_mask_feature_columns(graph.features, cfg.feature_mask, rng))
        x2 = ad.constant(_mask_feature_columns(graph.features, cfg.feature_mask, rng))
        z1 = project(encode(enc, adj1, x1))
        z2 = project(encode(enc, adj2, x2))
        return infonce_loss(z1, z2, cfg.temperature)

    return loss_fn, head, "views"


# ---------------------------------------------------------------------------
# GraphMAE: masked-feature reconstruction with scaled cosine error
# ---------------------------------------------------------------------------


def scaled_cosine_error(x_true, x_hat, gamma):
    """Mean over rows of (1 - cos(x, x_hat))^gamma."""
    xn = ad.l2_normalize_rows(x_true)
    hn = ad.l2_normalize_rows(x_hat)
    cos = ad.row_sum(ad.hadamard(xn, hn))
    one = ad.constant(np.ones_like(cos.data))
    return ad.row_mean(ad.power(ad.sub(one, cos), gamma))


def _graphmae(graph, cfg, enc):
    adj = graph.normalized_adjacency()
    n, f = graph.features.shape
    init_rng = rng_stream("encoder-init", cfg.seed, 1)
    mask_token = ad.parameter(np.zeros((1, f)), name="graphmae.mask_token")
    dec_w = ad.parameter(_glorot(init_rng, cfg.embed_dim, f), name="graphmae.decoder.weight")
    dec_b = ad.parameter(np.zeros((1, f)), name="graphmae.decoder.bias")
    n_mask = max(1, int(round(cfg.mask_rate * n)))

    def loss_fn(rng):
        masked = np.sort(rng.choice(n, size=n_mask, replace=False))
        keep_rows = np.ones((n, 1))
        keep_rows[masked] = 0.0
        indicator = ad.constant(1.0 - keep_rows)
        x_masked = ad.add(ad.constant(graph.features * keep_rows),
                          ad.matmul(indicator, mask_token))
        h = encode(enc, adj, x_masked)
        h_remasked = ad.hadamard(
            h, ad.constant(np.repeat(keep_rows, cfg.embed_dim, axis=1))
        )
        x_hat = ad.add(ad.spmm(adj, ad.matmul(h_remasked, dec_w)), dec_b)
        return scaled_cosine_error(
            ad.constant(graph.features[masked]),
            ad.gather_rows(x_hat, masked),
            cfg.sce_gamma,
        )

    return loss_fn, [mask_token, dec_w, dec_b], "mask"


# objective name -> builder(graph, cfg, encoder) -> (loss_fn(rng), the
# objective's own parameters, the name of its epoch stream)
OBJECTIVE_TABLE = {"dgi": _dgi, "grace": _grace, "graphmae": _graphmae}
OBJECTIVES = tuple(OBJECTIVE_TABLE)
