"""Two-layer PReLU GCN encoder (as in DGI) and the downstream MLP classifier."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import autodiff as ad

LAYER_TENSORS = ("weight", "bias", "prelu_slope")


class GcnLayer:
    """One graph convolution: prelu(A_hat @ X @ W + b) with a learned slope."""

    __slots__ = LAYER_TENSORS

    def __init__(self, weight, bias, prelu_slope):
        if weight.shape[1] != bias.shape[1] or bias.shape[0] != 1:
            raise ValueError("bias width must match weight output width")
        self.weight = weight
        self.bias = bias
        self.prelu_slope = prelu_slope


class Encoder:
    """2-layer GCN; frozen exactly when none of its tensors requires grad."""

    __slots__ = ("layer1", "layer2")

    def __init__(self, layer1, layer2):
        if layer1.weight.shape[1] != layer2.weight.shape[0]:
            raise ValueError("layer-1 output width must match layer-2 input width")
        self.layer1 = layer1
        self.layer2 = layer2

    @property
    def frozen(self):
        return not any(p.requires_grad for p in self.parameters())

    @property
    def in_dim(self):
        return self.layer1.weight.shape[0]

    @property
    def hidden_dim(self):
        return self.layer1.weight.shape[1]

    @property
    def out_dim(self):
        return self.layer2.weight.shape[1]

    def named_parameters(self):
        return {f"{tag}.{name}": getattr(layer, name)
                for tag, layer in (("layer1", self.layer1), ("layer2", self.layer2))
                for name in LAYER_TENSORS}

    def parameters(self):
        return list(self.named_parameters().values())


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_encoder(in_dim, hidden_dim, out_dim, rng=None):
    rng = np.random.default_rng(rng)
    layers = []
    for fan_in, fan_out in ((in_dim, hidden_dim), (hidden_dim, out_dim)):
        weight = ad.parameter(_glorot(rng, fan_in, fan_out))
        bias = ad.parameter(np.zeros((1, fan_out)))
        layers.append(GcnLayer(weight, bias, ad.parameter(np.full((1, 1), 0.25))))
    enc = Encoder(layers[0], layers[1])
    for name, p in enc.named_parameters().items():
        p.name = f"encoder.{name}"
    return enc


def freeze(encoder):
    """Make every parameter a tape constant; ``encode`` then records no path
    into the weights."""
    for p in encoder.parameters():
        p.requires_grad = False
    return encoder


def thaw(encoder):
    for p in encoder.parameters():
        p.requires_grad = True
    return encoder


def clone_encoder(encoder):
    """Deep copy: independent parameter arrays, each with its source tensor's
    ``requires_grad``."""
    def copy_layer(layer):
        return GcnLayer(*(ad.Tensor(t.data.copy(), t.requires_grad, t.name)
                          for t in (getattr(layer, name) for name in LAYER_TENSORS)))

    return Encoder(copy_layer(encoder.layer1), copy_layer(encoder.layer2))


def encode(encoder, adj_norm, x=None, xw1=None):
    """H = prelu(A_hat @ prelu(A_hat @ X @ W1 + b1) @ W2 + b2).

    ``adj_norm`` is a symmetric-normalized SparseAdj (constant) or a
    SparseTensor whose values carry prompt gradients, for both layers, or a
    (layer 1, layer 2) pair of them. The parameters enter the tape as they
    are: a frozen encoder's tensors do not require grad, so the tape prunes
    every path into the weights while gradients still flow through the
    adjacency values and the features. Layer 1's input is exactly one of
    ``x``, the features, and ``xw1``, a caller's ``X @ W1``: a caller with a
    frozen encoder and constant features builds it once for many forwards,
    GRACE builds it on the tape with its feature mask on W1's rows, and
    GraphMAE with its mask token as a shift.

    A node's output reads only its 2-hop receptive field. Given the pair of
    a ``graphs.ReceptiveField``'s slices (``field.layers``, or
    ``NormContext.normalize_field`` for learned values) and layer 1's input
    at its S2 rows (``field.inputs``), the output is the rows of the field's
    ids, as tuning trains. With one operator every node is computed, as
    prediction and pretraining do.
    """
    if (x is None) == (xw1 is None):
        raise ValueError("layer 1's input is exactly one of x and xw1")
    if xw1 is None:
        if x.shape[1] != encoder.in_dim:
            raise ValueError(
                f"feature width {x.shape[1]} != encoder input width {encoder.in_dim}")
        xw1 = ad.matmul(x, encoder.layer1.weight)
    first, second = adj_norm if isinstance(adj_norm, tuple) else (adj_norm, adj_norm)
    layer1, layer2 = encoder.layer1, encoder.layer2
    h = ad.prelu(ad.add(ad.spmm(first, xw1), layer1.bias), layer1.prelu_slope)
    h = ad.add(ad.spmm(second, ad.matmul(h, layer2.weight)), layer2.bias)
    return ad.prelu(h, layer2.prelu_slope)


class Classifier:
    """2-layer MLP head: d -> hidden -> C with a ReLU in between."""

    __slots__ = ("w1", "b1", "w2", "b2")

    def __init__(self, w1, b1, w2, b2):
        if w1.shape[1] != w2.shape[0]:
            raise ValueError("hidden widths disagree")
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @property
    def in_dim(self):
        return self.w1.shape[0]

    @property
    def num_classes(self):
        return self.w2.shape[1]

    def named_parameters(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]


def init_classifier(in_dim, hidden_dim, num_classes, rng=None):
    rng = np.random.default_rng(rng)
    clf = Classifier(
        ad.parameter(_glorot(rng, in_dim, hidden_dim), name="classifier.w1"),
        ad.parameter(np.zeros((1, hidden_dim)), name="classifier.b1"),
        ad.parameter(_glorot(rng, hidden_dim, num_classes), name="classifier.w2"),
        ad.parameter(np.zeros((1, num_classes)), name="classifier.b2"),
    )
    return clf


def classify(classifier, h):
    if h.shape[1] != classifier.in_dim:
        raise ValueError(
            f"representation width {h.shape[1]} != classifier input width {classifier.in_dim}"
        )
    hidden = ad.relu(ad.add(ad.matmul(h, classifier.w1), classifier.b1))
    return ad.add(ad.matmul(hidden, classifier.w2), classifier.b2)


def predictions_from_logits(logits):
    """Argmax per row; ties resolve to the lowest class index."""
    return np.argmax(logits.data, axis=1)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def encoder_state_dict(encoder):
    return {name: p.data for name, p in encoder.named_parameters().items()}


def encoder_checkpoint_hash(encoder):
    """The sha256 of the checkpoint file ``save_encoder`` writes, fed its
    pieces one after another, so the file's bytes are never joined."""
    digest = hashlib.sha256()
    for piece in ad.checkpoint_pieces(encoder_state_dict(encoder)):
        digest.update(piece)
    return digest.hexdigest()


def save_encoder(encoder, path, meta=None):
    """Write the weight checkpoint plus a '<path>.json' sidecar that holds
    the checkpoint's sha256 (``encoder_checkpoint_hash``)."""
    path = Path(path)
    ad.save_checkpoint(path, encoder_state_dict(encoder))
    sidecar = {
        "backbone": "gcn",
        "in_dim": encoder.in_dim,
        "hidden_dim": encoder.hidden_dim,
        "out_dim": encoder.out_dim,
        "activation": "prelu",
    }
    if meta:
        sidecar.update(meta)
    sidecar["encoder_checkpoint_hash"] = encoder_checkpoint_hash(encoder)
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_encoder(path):
    """Load an encoder checkpoint; returns (Encoder frozen, sidecar dict).
    The weights must hash to the sidecar's ``encoder_checkpoint_hash``."""
    path = Path(path)
    state = ad.load_checkpoint(path)
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar must be a JSON object, got {type(meta).__name__}")
    if not isinstance(meta.get("pretrain", ""), str):
        raise ValueError(f"sidecar: pretrain must be a string, got {meta['pretrain']!r}")
    if "activation" not in meta:
        raise ValueError("sidecar: missing key 'activation'")
    if meta["activation"] != "prelu":
        raise ValueError(f"sidecar: activation {meta['activation']!r} is not 'prelu', "
                         "the only encoder this package builds")
    names = [f"{tag}.{name}" for tag in ("layer1", "layer2") for name in LAYER_TENSORS]
    missing = [name for name in names if name not in state]
    if missing:
        raise ValueError(f"checkpoint: missing tensor {', '.join(missing)}")

    def build_layer(tag):
        return GcnLayer(*(ad.parameter(state[f"{tag}.{name}"], name=f"encoder.{tag}.{name}")
                          for name in LAYER_TENSORS))

    enc = freeze(Encoder(build_layer("layer1"), build_layer("layer2")))
    for key in ("in_dim", "hidden_dim", "out_dim"):
        if meta.get(key) != getattr(enc, key):
            raise ValueError(f"sidecar {key} {meta.get(key)} != checkpoint {getattr(enc, key)}")
    if "encoder_checkpoint_hash" not in meta:
        raise ValueError("sidecar: missing key 'encoder_checkpoint_hash'")
    if meta["encoder_checkpoint_hash"] != encoder_checkpoint_hash(enc):
        raise ValueError("checkpoint sha256 differs from its sidecar's encoder_checkpoint_hash")
    return enc, meta
