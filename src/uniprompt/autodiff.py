"""Dense/sparse float64 arithmetic with a define-by-run reverse-mode tape.

Every tensor is a 2-D float64 matrix; scalars are shape (1, 1). Each
operation computes its forward value eagerly and records a backward rule,
so a fresh tape is built on every training step. Gradients flow only into
subgraphs reachable from tensors created with ``requires_grad=True``;
constant subgraphs are pruned at construction time and cost nothing at
backward.

The tape holds slots, not values. A tensor that needs a gradient owns a
``_Slot``: its gradient, its parents' slots, its rule, and the shape and
byte count of its value. A rule keeps its inputs' slots and only the arrays
its backward reads, never a parent tensor: ``matmul`` keeps a's value only
when b needs a gradient, ``elu`` its output, ``prelu`` its input, and
``add`` no value at all. So a value lives while a tensor or a rule holds
it, and an intermediate that no rule reads is freed as soon as the caller
drops its tensor, long before backward. A value that backward can rebuild
cheaply is not kept either: a rule reads its inputs through ``_kept``,
which hands it a tensor's recipe, when it has one, in place of the value.
A recipe rebuilds the value bit for bit from arrays that outlive it anyway.
``prelu`` gives its output one, over the input its rule keeps, so an
activation is not kept twice; ``with_recipe`` gives one to any tensor, a
constant included: pretraining's DGI regathers its permuted features and
GRACE remakes its head rows from the ELU output its tape keeps.

``backward`` consumes its tape. A tape whose values reach
``RELEASE_TAPE_BYTES`` is released while it is walked: each slot's gradient,
rule and parent links are dropped as soon as its rule has run, so every
array a rule kept and every gradient is freed once no remaining rule needs
it. Smaller tapes are kept whole, because freeing many small buffers makes
the allocator trim and refault its heap on every step.

``info_nce`` is GRACE's contrastive loss fused into one node. Built from the
small ops, its n x n similarity and exp matrices would sit on the tape until
backward; the fused node works in tiles of ``INFONCE_BLOCK_ROWS`` rows, keeps
O(n) values between the passes and recomputes the tiles in backward. It
agrees with the composition to rounding on row-normalized views.
``decoded_cosine`` is GraphMAE's decoder projection and its cosine to the
feature rows as one node in the same style: tiles of ``COSINE_BLOCK_ROWS``
rows at feature width, one scalar per row kept between the passes, and the
composition's bits when the rows fit one tile. ``normalized_slices`` fuses a
symmetric normalization, scaling only the entries read, and gives the same
bits as its composition. The composed forms are the tests' oracles:
InfoNCE's in ``tests/test_autodiff.py``, the cosine's and the
normalization's in ``tests/fd_utils.py``.

``sparsetools`` is scipy's compiled module of CSR kernels,
``scipy.sparse._sparsetools``, loaded from its extension file alone:
``spmm`` and ``graphs.SparseAdj.from_coo`` call nothing else of scipy, and
importing the ``scipy.sparse`` package to reach it would load some 300
modules and about 18 MB more into every process.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np


def _load_sparsetools():
    """``scipy.sparse._sparsetools``, from the file in scipy's installed
    ``sparse`` directory, under its own name and without running the
    package's ``__init__``. A module ``sys.modules`` holds already is reused,
    and the one loaded here is registered there, so an import of
    ``scipy.sparse`` later shares it. A missing file raises ``ImportError``."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    stem = os.path.join(spec.submodule_search_locations[0], "sparse", "_sparsetools")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's CSR kernels are missing: no file {paths[0]}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


sparsetools = _load_sparsetools()

LOG_EPS = 1e-12  # additive floor inside the row norms of l2_normalize_rows and decoded_cosine
INFONCE_BLOCK_ROWS = 512  # rows of the stacked views per similarity tile ``info_nce`` holds
COSINE_BLOCK_ROWS = 256  # decoded rows per feature-width tile ``decoded_cosine`` holds
# backward releases its tape from this many bytes of values produced by the
# tape's tensors, counted whether or not a rule still holds them
RELEASE_TAPE_BYTES = 32 << 20
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Ops with a registered backward rule. The finite-difference test sweep is
# keyed off this tuple, so adding an op here without coverage fails the suite.
REGISTERED_OPS = (
    "add",
    "cross_entropy",
    "decoded_cosine",
    "elu",
    "gather_rows",
    "hadamard",
    "info_nce",
    "l2_normalize_rows",
    "matmul",
    "normalized_slices",
    "power",
    "prelu",
    "relu",
    "row_mean",
    "scalar_scale",
    "segment_sum",
    "sigmoid",
    "softplus",
    "spmm",
    "transpose",
)


class _Slot:
    """A tensor's place on the tape: its gradient, its parents' slots, the
    rule that hands its gradient to them, and the shape and byte count of the
    value it stands for. A slot holds no value; a rule keeps only the arrays
    it reads."""

    __slots__ = ("grad", "parents", "rule", "shape", "nbytes")

    def __init__(self, data, parents=(), rule=None):
        self.grad = None
        self.parents = parents
        self.rule = rule
        self.shape = data.shape
        self.nbytes = data.nbytes


class Tensor:
    """A 2-D float64 value, with a tape slot exactly when it needs a gradient.
    ``_remake``, when set, is its recipe (see ``with_recipe``)."""

    __slots__ = ("data", "name", "_slot", "_remake")

    def __init__(self, data, requires_grad=False, name=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D matrices, got shape {arr.shape}")
        self.data = arr
        self.name = name
        self._slot = _Slot(arr) if requires_grad else None
        self._remake = None

    @property
    def requires_grad(self):
        return self._slot is not None

    @requires_grad.setter
    def requires_grad(self, value):
        # turning it off drops the slot and its gradient; turning it on keeps
        # a slot the tensor has, or makes a fresh one
        if not value:
            self._slot = None
        elif self._slot is None:
            self._slot = _Slot(self.data)

    @property
    def grad(self):
        return None if self._slot is None else self._slot.grad

    @grad.setter
    def grad(self, value):
        if self._slot is not None:
            self._slot.grad = value
        elif value is not None:
            raise ValueError("a tensor that requires no gradient holds none")

    @property
    def shape(self):
        return self.data.shape

    def detach(self):
        return Tensor(self.data, requires_grad=False, name=self.name)

    def item(self):
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}, name={self.name})"


def constant(data, name=None):
    return Tensor(data, requires_grad=False, name=name)


def parameter(data, name=None):
    return Tensor(data, requires_grad=True, name=name)


def _node(data, parents, rule):
    """Build an op output. It gets a slot, linked to its parents' slots, only
    when some parent needs gradients; otherwise the tape is pruned here. So
    a rule runs only when some input has a slot, and a one-input rule may
    accumulate into its input's slot unchecked."""
    out = Tensor(data)
    slots = tuple(p._slot for p in parents if p._slot is not None)
    if slots:
        out._slot = _Slot(out.data, slots, rule)
    return out


def _accum(target, grad):
    """Add ``grad`` to the gradient of ``target``, a slot or a Tensor."""
    slot = target._slot if isinstance(target, Tensor) else target
    if grad.shape != slot.shape:
        raise ValueError(f"gradient shape {grad.shape} != tensor shape {slot.shape}")
    if slot.grad is None:
        # a fresh buffer with the bits of zeros + grad: -0.0 becomes +0.0
        slot.grad = grad + 0.0
    else:
        slot.grad += grad


def backward(root, params=None):
    """Accumulate d(root)/d(leaf) through the tape in reverse topological order.

    Returns a dict mapping each tensor in ``params`` (if given) to its
    gradient; tensors disconnected from ``root`` map to zeros, and their
    ``.grad`` from an earlier backward is cleared. Each slot's
    rule runs exactly once. A slot's first gradient contribution is copied
    into a fresh buffer as ``grad + 0.0``, the bits of adding it to zeros;
    later ones add in place, and every contribution must match the slot's
    shape. The tape is consumed: when the values its slots stand for total
    at least ``RELEASE_TAPE_BYTES``, every non-leaf slot not of a ``params``
    entry loses its gradient, rule and parent links once its rule has run.
    Leaves and ``params`` entries keep their gradients either way.
    """
    if root.data.shape != (1, 1):
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")

    topo = []
    tape_bytes = 0
    visited = set()
    stack = [(root._slot, False)] if root._slot is not None else []
    while stack:
        slot, expanded = stack.pop()
        if expanded:
            topo.append(slot)
            tape_bytes += slot.nbytes
            continue
        if id(slot) in visited:
            continue
        visited.add(id(slot))
        stack.append((slot, True))
        for parent in slot.parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    for slot in topo:
        slot.grad = None
    for p in params or ():
        if p._slot is not None and id(p._slot) not in visited:
            p._slot.grad = None  # off the tape: its gradient is zeros
    if topo:
        topo[-1].grad = np.ones((1, 1))
    release = tape_bytes >= RELEASE_TAPE_BYTES
    named = {id(p._slot) for p in params or ()}

    while topo:
        slot = topo.pop()
        if slot.rule is None:
            continue
        slot.rule(slot.grad)
        if release:
            if id(slot) not in named:
                slot.grad = None
            slot.rule = None
            slot.parents = ()

    if params is None:
        return None
    out = {}
    for p in params:
        out[p] = p.grad if p.grad is not None else np.zeros_like(p.data)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def with_recipe(t, remake):
    """``t``, with ``remake`` as its recipe: a function returning t's value
    bit for bit from arrays that outlive it anyway. A rule that reads t then
    keeps the recipe in place of the value (see ``_kept``), so the value is
    freed with t. A recipe reruns an expression on arrays no op writes, so
    it gives the value's bits."""
    t._remake = remake
    return t


def _kept(t):
    """A function giving ``t``'s value in backward: its recipe, or a closure
    over the value."""
    if t._remake is not None:
        return t._remake
    data = t.data
    return lambda: data


def _cross_reads(a, b):
    """The slots of ``a`` and ``b`` (None for a constant) and the values a
    product's rule reads, each as a ``_kept`` function: a's only for b's
    gradient, b's only for a's."""
    sa, sb = a._slot, b._slot
    return sa, sb, (_kept(a) if sb is not None else None), (_kept(b) if sa is not None else None)


def add(a, b):
    """a + b; b may be a (1, c) row broadcast down a's rows."""
    if a.shape != b.shape and b.shape != (1, a.shape[1]):
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out_data = a.data + b.data
    sa, sb = a._slot, b._slot

    def bw(go):
        if sa is not None:
            _accum(sa, go)
        if sb is not None:
            _accum(sb, go if sb.shape == go.shape else go.sum(axis=0, keepdims=True))

    return _node(out_data, (a, b), bw)


def sub(a, b):
    return add(a, scalar_scale(b, -1.0))


def hadamard(a, b):
    """a * b; b may be an (n, 1) column broadcast across a's columns."""
    if a.shape != b.shape and b.shape != (a.shape[0], 1):
        raise ValueError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    out_data = a.data * b.data
    sa, sb, a_value, b_value = _cross_reads(a, b)

    def bw(go):
        if sa is not None:
            _accum(sa, go * b_value())
        if sb is not None:
            gb = go * a_value()
            _accum(sb, gb if sb.shape == gb.shape else gb.sum(axis=1, keepdims=True))

    return _node(out_data, (a, b), bw)


def scalar_scale(a, s):
    s = float(s)
    sa = a._slot

    def bw(go):
        _accum(sa, go * s)

    return _node(a.data * s, (a,), bw)


def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data
    sa, sb, a_value, b_value = _cross_reads(a, b)

    def bw(go):
        if sa is not None:
            _accum(sa, go @ b_value().T)
        if sb is not None:
            _accum(sb, a_value().T @ go)

    return _node(out_data, (a, b), bw)


def transpose(a):
    sa = a._slot

    def bw(go):
        _accum(sa, go.T)

    return _node(a.data.T, (a,), bw)


def row_mean(a):
    n = a.shape[0]
    sa = a._slot

    def bw(go):
        _accum(sa, np.repeat(go, n, axis=0) / n)

    return _node(a.data.mean(axis=0, keepdims=True), (a,), bw)


def gather_rows(a, ids):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("gather_rows ids must be a 1-D index array")
    if ids.size and (ids.min() < 0 or ids.max() >= a.shape[0]):
        raise ValueError("gather_rows index out of range")
    sa = a._slot

    def bw(go):
        g = np.zeros(sa.shape)
        if np.unique(ids).size == ids.size:
            # distinct ids scatter by assignment: the same bits once
            # _accum adds 0.0, which turns -0.0 into +0.0
            g[ids] = go
        else:
            np.add.at(g, ids, go)
        _accum(sa, g)

    return _node(a.data[ids], (a,), bw)


def segment_sum(a, seg_ids, num_segments):
    """Scatter-add the rows of an (n, 1) column into ``num_segments`` rows."""
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if a.shape[1] != 1:
        raise ValueError(f"segment_sum needs an (n, 1) column, got {a.shape}")
    if seg_ids.shape != (a.shape[0],):
        raise ValueError("segment_sum needs one segment id per row")
    if seg_ids.size and (seg_ids.min() < 0 or seg_ids.max() >= num_segments):
        raise ValueError("segment_sum segment id out of range")
    out_data = np.bincount(seg_ids, weights=a.data[:, 0],
                           minlength=num_segments).reshape(-1, 1)
    sa = a._slot

    def bw(go):
        _accum(sa, go[seg_ids])

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(a):
    mask = a.data > 0
    sa = a._slot

    def bw(go):
        _accum(sa, go * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), bw)


def elu(a):
    # clip only the exp argument; saturation keeps values in (-1, 0]
    out_data = np.where(a.data > 0, a.data, np.expm1(np.minimum(a.data, 0.0)))
    sa = a._slot

    def bw(go):
        # the rule reads only the output: it is positive exactly where x is,
        # as expm1(x) <= 0 for x <= 0, and there out + 1 is the slope exp(x)
        _accum(sa, go * np.where(out_data > 0, 1.0, out_data + 1.0))

    return _node(out_data, (a,), bw)


def prelu(a, slope):
    """max(x, 0) + slope * min(x, 0) with a learnable (1, 1) slope."""
    if slope.shape != (1, 1):
        raise ValueError("prelu slope must be a (1, 1) tensor")
    x, s = a.data, slope.data[0, 0]
    sa, ss = a._slot, slope._slot

    def remake():
        return np.maximum(x, 0.0) + s * np.minimum(x, 0.0)

    def bw(go):
        # the rule reads the input, not the output; min(x, 0) is recomputed
        if sa is not None:
            _accum(sa, go * np.where(x > 0, 1.0, s))
        if ss is not None:
            _accum(ss, (go * np.minimum(x, 0.0)).sum().reshape(1, 1))

    out = _node(remake(), (a, slope), bw)
    if out._slot is not None:
        out._remake = remake  # the rule keeps x and s: a product need not keep out
    return out


def sigmoid(a):
    out_data = np.empty_like(a.data)
    pos = a.data >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    sa = a._slot

    def bw(go):
        _accum(sa, go * out_data * (1.0 - out_data))

    return _node(out_data, (a,), bw)


def softplus(a):
    out_data = np.logaddexp(0.0, a.data)
    sig = 1.0 / (1.0 + np.exp(-np.clip(a.data, -700, 700)))
    sa = a._slot

    def bw(go):
        _accum(sa, go * sig)

    return _node(out_data, (a,), bw)


def power(a, p):
    """Elementwise x**p for a constant exponent; callers keep x in the domain."""
    p = float(p)
    x = a.data
    out_data = x**p
    sa = a._slot

    def bw(go):
        _accum(sa, go * p * x ** (p - 1.0))

    return _node(out_data, (a,), bw)


def _squared_norms(x):
    """sum(x^2) + LOG_EPS per row of the array ``x``, as an (n, 1) column."""
    return (x * x).sum(axis=1, keepdims=True) + LOG_EPS


def unit_row_scales(x):
    """The factor ``l2_normalize_rows`` scales each row of the array ``x``
    by, as an (n, 1) column: the same bits, row by row. Rows are squared
    ``COSINE_BLOCK_ROWS`` at a time, so no array of x's size is formed."""
    sq = np.empty((x.shape[0], 1))
    for i in range(0, x.shape[0], COSINE_BLOCK_ROWS):
        sq[i:i + COSINE_BLOCK_ROWS] = _squared_norms(x[i:i + COSINE_BLOCK_ROWS])
    return sq**-0.5


def l2_normalize_rows(a):
    """x / sqrt(sum(x^2) + 1e-12) per row; the floor keeps zero rows finite.
    The rule reads x through ``_kept``, so a recipe on ``a`` stands in for it."""
    sq = _squared_norms(a.data)
    inv = sq**-0.5
    out_data = a.data * inv
    sa, x_value = a._slot, _kept(a)

    def bw(go):
        x = x_value()
        dot = (go * x).sum(axis=1, keepdims=True)
        _accum(sa, go * inv - x * (dot * inv / sq))

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def cross_entropy(logits, targets):
    """Mean over rows of -log softmax(logits)[target]."""
    targets = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if n == 0:
        raise ValueError("cross_entropy on an empty batch")
    if targets.shape != (n,):
        raise ValueError(f"cross_entropy needs {n} targets, got shape {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise ValueError("cross_entropy target out of range")
    peak = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - peak)
    denom = e.sum(axis=1, keepdims=True)
    probs = e / denom
    lse = np.log(denom[:, 0]) + peak[:, 0]
    losses = lse - logits.data[np.arange(n), targets]
    out_data = np.array([[losses.mean()]])
    sl = logits._slot

    def bw(go):
        g = probs.copy()
        g[np.arange(n), targets] -= 1.0
        _accum(sl, go[0, 0] * g / n)

    return _node(out_data, (logits,), bw)


def info_nce(z1, z2, temperature):
    """Symmetric InfoNCE of two (n, d) views as one tape node, in tiles.

    Stack the views as Z = [z1; z2] (2n x d) and let S = Z Z^T / t. Row k
    scores LSE_{j != k} S_kj - S_k,pair(k), where pair(k) is the same node in
    the other view, and the loss is the mean over all 2n rows: each view's
    node is contrasted with every node of the other view and every other node
    of its own, and the two directions are averaged.

    No n x n matrix is formed. Forward visits the tiles S_IJ, I <= J, of
    ``INFONCE_BLOCK_ROWS`` rows and folds each into the log-sum-exps of its
    rows and, off the diagonal, of its columns, shifted by each row's running
    max and rescaled as that max grows (FlashAttention's online softmax).
    Every row has 2n - 1 >= 1 terms, so no floor is needed; the max starts at
    the positive pair's score, a term of every row. Only the 2n log-sum-exps
    outlive forward. With P = softmax_rows(S) (zero diagonal) and Y the pair
    indicator, dZ = (P + P^T - 2Y) Z / (2n t); backward recomputes each tile
    to form its block of P + P^T, and Y Z is Z with its halves swapped.
    """
    if z1.shape != z2.shape:
        raise ValueError(f"info_nce views differ in shape: {z1.shape} vs {z2.shape}")
    n = z1.shape[0]
    root_inv_t = (1.0 / temperature) ** 0.5
    z = np.concatenate([z1.data, z2.data])
    z *= root_inv_t  # S = z z^T
    pos = np.tile((z[:n] * z[n:]).sum(axis=1), 2)

    def tiles():
        """(rows, cols, S[rows, cols]) for every tile on or above the diagonal,
        with S's diagonal at -inf."""
        starts = range(0, 2 * n, INFONCE_BLOCK_ROWS)
        for k, i in enumerate(starts):
            rows = slice(i, i + INFONCE_BLOCK_ROWS)
            for j in starts[k:]:
                cols = slice(j, j + INFONCE_BLOCK_ROWS)
                s = z[rows] @ z[cols].T
                if i == j:
                    np.fill_diagonal(s, -np.inf)
                yield rows, cols, s

    peak, total = pos.copy(), np.zeros(2 * n)

    def fold(rows, s):
        """Fold the tile ``s``, one row per entry of ``rows``, into their
        log-sum-exps."""
        new = np.maximum(peak[rows], s.max(axis=1))
        e = s - new[:, None]
        np.exp(e, out=e)
        total[rows] = total[rows] * np.exp(peak[rows] - new) + e.sum(axis=1)
        peak[rows] = new

    for rows, cols, s in tiles():
        fold(rows, s)
        if rows != cols:
            fold(cols, s.T)
    lse = peak + np.log(total)
    out_data = np.array([[(lse - pos).mean()]])
    s1, s2 = z1._slot, z2._slot

    def bw(go):
        grad = np.concatenate([z[n:], z[:n]])
        grad *= -2.0
        for rows, cols, s in tiles():
            p = s - lse[rows, None]
            np.exp(p, out=p)
            s -= lse[None, cols]
            np.exp(s, out=s)
            p += s
            grad[rows] += p @ z[cols]
            if rows != cols:
                grad[cols] += p.T @ z[rows]
        grad *= go[0, 0] * root_inv_t / (2 * n)
        if s1 is not None:
            _accum(s1, grad[:n])
        if s2 is not None:
            _accum(s2, grad[n:])

    return _node(out_data, (z1, z2), bw)


def decoded_cosine(r, weight, bias, x, x_scale, rows):
    """cos(r_i W + b, x[rows_i]) for every row i of the (m, d) ``r``, as one
    (m, 1) tape node, in tiles of ``COSINE_BLOCK_ROWS`` rows.

    ``x`` is a constant (n, F) array, ``x_scale`` its ``unit_row_scales``
    (computed once by the caller) and ``rows`` one id into ``x`` per row of
    ``r``. Each side is normalized as ``l2_normalize_rows`` does, floor
    included, and the cosine is the row sum of their product: the composed
    tape's expressions, so a single tile gives its bits in forward and
    backward. With y = rW + b, q = |y|^2 + LOG_EPS and the unit target v,
    dy = g q^-1/2 (v - y <v, y> q^-1) for an upstream g; W's and b's
    gradients are summed tile by tile, so several tiles round differently.

    Only each decoded row's q outlives forward: no (m, F) array is kept
    between the passes, and backward recomputes each tile's y and v.
    """
    rows = np.asarray(rows, dtype=np.int64)
    m, f = r.shape[0], x.shape[1]
    if weight.shape != (r.shape[1], f) or bias.shape != (1, f):
        raise ValueError(f"decoded_cosine shape mismatch: {r.shape} @ {weight.shape} "
                         f"+ {bias.shape} against targets of width {f}")
    if rows.shape != (m,) or x_scale.shape != (x.shape[0], 1):
        raise ValueError("decoded_cosine needs one target id per row and one scale per target")
    if rows.size and (rows.min() < 0 or rows.max() >= x.shape[0]):
        raise ValueError("decoded_cosine target id out of range")
    tiles = [slice(i, i + COSINE_BLOCK_ROWS) for i in range(0, m, COSINE_BLOCK_ROWS)]
    r_data, w_data, b_data = r.data, weight.data, bias.data
    s_r, s_w, s_b = r._slot, weight._slot, bias._slot

    def decode(tile):
        """The tile's decoded rows y and its unit targets v."""
        ids = rows[tile]
        y = r_data[tile] @ w_data
        y += b_data
        target = x[ids]
        target *= x_scale[ids]
        return y, target

    sq = np.empty((m, 1))
    out_data = np.empty((m, 1))

    for tile in tiles:
        y, target = decode(tile)
        sq[tile] = _squared_norms(y)
        y *= sq[tile] ** -0.5
        target *= y
        out_data[tile] = target.sum(axis=1, keepdims=True)
        del y, target  # one tile at a time: free it before the next is decoded

    def bw(go):
        g_r = np.empty_like(r_data)
        g_w, g_b = np.zeros_like(w_data), np.zeros_like(b_data)
        for tile in tiles:
            y, g_y = decode(tile)
            g_y *= go[tile]  # the unit decoded rows' gradient, then y's
            inv = sq[tile] ** -0.5
            dot = (g_y * y).sum(axis=1, keepdims=True)
            g_y *= inv
            y *= dot * inv / sq[tile]
            g_y -= y
            if s_r is not None:
                g_r[tile] = g_y @ w_data.T
            if s_w is not None:
                g_w += r_data[tile].T @ g_y
            if s_b is not None:
                g_b += g_y.sum(axis=0, keepdims=True)
            del y, g_y
        for slot, g in ((s_r, g_r), (s_w, g_w), (s_b, g_b)):
            if slot is not None:
                _accum(slot, g)

    return _node(out_data, (r, weight, bias), bw)


# ---------------------------------------------------------------------------
# sparse
# ---------------------------------------------------------------------------


class SparseTensor:
    """A fixed CSR sparsity pattern whose values live on the tape."""

    __slots__ = ("pattern", "values")

    def __init__(self, pattern, values):
        if values.shape != (pattern.nnz, 1):
            raise ValueError(
                f"sparse values must be ({pattern.nnz}, 1), got {values.shape}"
            )
        self.pattern = pattern
        self.values = values


class NormReads(NamedTuple):
    """The entries of D^(-1/2) (V + I) D^(-1/2) that ``normalized_slices``
    reads, over a support of ``rows.size`` values on ``n`` nodes. V's
    entries read, ascending, are ``edges``, in rows ``edge_rows`` and columns
    ``edge_cols``; the diagonal entries read are those of the nodes ``diag``.
    Slot i of the output is ``(edges ++ diag)[slots[i]]``; the first
    ``split`` slots make the first slice."""

    n: int
    rows: np.ndarray    # row of every support entry
    floor: float        # added to every degree: 1.0 for the diagonal, else a tiny floor
    edges: np.ndarray
    edge_rows: np.ndarray
    edge_cols: np.ndarray
    diag: np.ndarray
    slots: np.ndarray
    split: int


def normalized_slices(values, reads):
    """Two slices of the symmetric normalization of the (nnz, 1) support
    ``values``, as one tape node: v_ij d_i^-1/2 d_j^-1/2 at the support
    entries and d_i^-1 at the diagonal entries that ``reads`` names, where
    d = row sums of v + ``reads.floor``.

    Degrees sum every value, but only the entries read are scaled. The
    composed tape (segment_sum, power, gathers, hadamards, a row
    concatenation, then a gather per slice; ``composed_normalize`` in
    ``tests/fd_utils.py``) gives every normalized entry outside the slices
    an exact zero gradient, and zero terms leave a sum's bits alone, so the
    values and the values gradient are the same bits as the composition
    (pinned in tests against it): the same numpy expressions, the scatters
    over the entries read in support order, and d's gradient summed in the
    composed tape's order (rows, columns, then the diagonal twice).

    Returns (first, second). ``second`` is a tape child of ``first``, so
    backward runs ``second``'s rule first; it hands its gradient to
    ``first``'s, which runs the shared rule once for both slices.
    """
    v = values.data[:, 0]
    deg = np.bincount(reads.rows, weights=v, minlength=reads.n).reshape(-1, 1) + reads.floor
    dinv = deg**-0.5
    d = dinv[:, 0]
    v_read = v[reads.edges]
    d_rows, d_cols = d[reads.edge_rows], d[reads.edge_cols]
    scaled = v_read * d_rows
    d_diag = d[reads.diag]
    read = np.concatenate([scaled * d_cols, d_diag * d_diag])[reads.slots]
    sv = values._slot
    handed = []

    def hand_over(go):
        if go is not None:
            handed.append(go[:, 0])

    def bw(go):
        parts = [np.zeros(reads.split) if go is None else go[:, 0],
                 handed[0] if handed else np.zeros(reads.slots.size - reads.split)]
        handed.clear()
        g_read = np.bincount(reads.slots, weights=np.concatenate(parts),
                             minlength=reads.edges.size + reads.diag.size)
        g_edge = g_read[:reads.edges.size]
        g_scaled = g_edge * d_cols
        g_d_cols = g_edge * scaled
        g_v = g_scaled * d_rows
        g_d_rows = g_scaled * v_read
        g_dinv = np.bincount(reads.edge_rows, weights=g_d_rows, minlength=reads.n)
        g_dinv += np.bincount(reads.edge_cols, weights=g_d_cols, minlength=reads.n)
        if reads.diag.size:
            via_diag = np.zeros(reads.n)
            via_diag[reads.diag] = g_read[reads.edges.size:] * d_diag
            g_dinv += via_diag
            g_dinv += via_diag
        g_values = (g_dinv.reshape(-1, 1) * -0.5 * deg**-1.5)[reads.rows]
        g_values[reads.edges, 0] += g_v
        _accum(sv, g_values)

    first = _node(read[:reads.split].reshape(-1, 1), (values,), bw)
    second = _node(read[reads.split:].reshape(-1, 1), (first,), hand_over)
    return first, second


def spmm(adj, x):
    """Sparse @ dense, ``A @ x``. ``adj`` is a SparseAdj (constant) or a
    SparseTensor, square or a rectangular slice with one column per row of
    ``x``.

    The product runs scipy's CSR kernel ``csr_matvecs`` on the pattern's
    ``indptr``/``indices`` and the tape values, and the x-gradient
    ``A^T @ go`` runs ``csc_matvecs`` on the same three arrays (A in CSR is
    A^T in CSC), each into a fresh zeroed output. These are the kernels that
    ``csr_matrix @ x`` and ``.T @ go`` call, so the bits are theirs, without
    building a scipy matrix per call. Both come from ``sparsetools``, the
    kernel module loaded from its file; the ``scipy.sparse`` package, which
    nothing here needs beyond these kernels, is never imported. The kernels
    do not bounds-check: they rely on SparseAdj's invariants (validated,
    read-only offsets and column indices) and on the values being a
    contiguous float64 vector of one value per entry, which is checked here.
    """
    if isinstance(adj, SparseTensor):
        pattern, values = adj.pattern, adj.values
    else:
        pattern, values = adj, constant(adj.data.reshape(-1, 1))
    if pattern.n_cols != x.shape[0]:
        raise ValueError(f"spmm shape mismatch: adjacency {pattern.n} x {pattern.n_cols} "
                         f"vs dense {x.shape}")
    v = values.data.reshape(-1)
    if v.shape != (pattern.nnz,) or v.dtype != np.float64 or not v.flags.c_contiguous:
        raise ValueError("spmm values must be a contiguous float64 vector, one per entry")
    n, n_cols, width = pattern.n, pattern.n_cols, x.shape[1]
    out_data = np.zeros((n, width))
    sparsetools.csr_matvecs(n, n_cols, width, pattern.indptr, pattern.indices, v,
                            x.data.ravel(), out_data.ravel())
    sv, sx = values._slot, x._slot
    # x's gradient reads the values, and the values' gradient reads x
    v_read = v if sx is not None else None
    x_read = x.data if sv is not None else None

    def edge_grads(go):
        # d(loss)/d(value at (i, j)) = go[i] . x[j]; up to ~4k x 4k the dense
        # product is far cheaper than per-edge gathers
        if go.shape[0] * n_cols <= 16_777_216:
            return (go @ x_read.T).take(pattern.flat_index())
        out_rows, cols = pattern.row_ids(), pattern.indices
        out = np.empty(out_rows.size)
        for start in range(0, out_rows.size, 65536):
            stop = min(start + 65536, out_rows.size)
            out[start:stop] = np.einsum(
                "ij,ij->i", go[out_rows[start:stop]], x_read[cols[start:stop]]
            )
        return out

    def bw(go):
        if sx is not None:
            g = np.zeros((n_cols, width))
            sparsetools.csc_matvecs(n_cols, n, width, pattern.indptr, pattern.indices, v_read,
                                    go.ravel(), g.ravel())
            _accum(sx, g)
        if sv is not None:
            _accum(sv, edge_grads(go).reshape(-1, 1))

    return _node(out_data, (values, x), bw)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Bias-corrected Adam over a fixed list of parameter tensors, with
    betas ``ADAM_BETA1``/``ADAM_BETA2`` and ``ADAM_EPS``.

    The first and second moments of all parameters live in one flat float64
    buffer each, ``m`` and ``v``: parameter i's entries, in C order, are
    ``m[spans[i]]`` and ``v[spans[i]]``. So a step runs each elementwise
    update once over every parameter."""

    def __init__(self, params, lr):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        ends = np.cumsum([0] + [p.data.size for p in self.params])
        self.spans = [slice(start, end) for start, end in zip(ends[:-1], ends[1:])]
        self.m = np.zeros(ends[-1])
        self.v = np.zeros(ends[-1])
        self.step_count = 0


def adam_step(state, grads=None):
    """Apply one Adam update; ``grads`` defaults to each .grad, and a missing
    gradient counts as zeros. A non-finite gradient raises, naming its
    parameter, before anything changes. The moments update in place; each
    ``p.data`` is rebound to a new array, never written, because checkpoints
    and clones may hold the old one."""
    parts = []
    for p in state.params:
        g = grads[p] if grads is not None else p.grad
        if g is None:
            g = np.zeros(p.data.size)
        elif g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
        parts.append(g.reshape(-1))
    g = np.concatenate(parts) if parts else np.zeros(0)
    if not np.isfinite(g).all():
        i = next(i for i, span in enumerate(state.spans) if not np.isfinite(g[span]).all())
        name = state.params[i].name or f"param[{i}]"
        raise RuntimeError(f"non-finite gradient for parameter '{name}'")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    # the per-parameter update's operations in its order, over the flat
    # buffers: elementwise, so every entry gets the same bits
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    np.multiply(g, g, out=g)
    g *= 1.0 - b2
    v *= b2
    v += g
    step = m / (1.0 - b1**t)
    step *= state.lr
    denom = v / (1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    for p, span in zip(state.params, state.spans):
        p.data = p.data - step[span].reshape(p.data.shape)
    return state.params


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def checkpoint_pieces(tensors):
    """Serialize {name: array} in pieces: one JSON header line of the
    shapes, then each array as contiguous little-endian float64, in header
    order. The pieces are buffers; joined they are the checkpoint file."""
    header = {name: list(np.asarray(arr).shape) for name, arr in tensors.items()}
    yield json.dumps(header).encode() + b"\n"
    for name in header:
        yield np.ascontiguousarray(tensors[name], dtype="<f8")


def save_checkpoint(path, tensors):
    with open(path, "wb") as fh:
        for piece in checkpoint_pieces(tensors):
            fh.write(piece)


def _checkpoint_header(line):
    """The {name: shape} header line of a checkpoint: a JSON object mapping
    each name to a list of non-negative integers."""
    try:
        header = json.loads(line.decode())
    except ValueError as exc:
        raise ValueError(f"checkpoint: header is not JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint: header must be a JSON object, got {type(header).__name__}")
    for name, shape in header.items():
        if not (isinstance(shape, list) and all(
                isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape)):
            raise ValueError(f"checkpoint: shape of '{name}' must be a list of "
                             f"non-negative integers, got {shape!r}")
    return header


def load_checkpoint(path):
    with open(path, "rb") as fh:
        header = _checkpoint_header(fh.readline())
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        out = {}
        for name, shape in header.items():
            size = 8 * math.prod(shape)
            if size > left:
                raise ValueError(f"truncated checkpoint payload for '{name}'")
            out[name] = np.frombuffer(fh.read(size), dtype="<f8").reshape(shape).copy()
            left -= size
        if left:
            raise ValueError("trailing bytes after the checkpoint payload")
    return out
