"""Dense/sparse float64 arithmetic with a define-by-run reverse-mode tape.

Every tensor is a 2-D float64 matrix; scalars are shape (1, 1). Each
operation computes its forward value eagerly and records a backward rule,
so a fresh tape is built on every training step. Gradients flow only into
subgraphs reachable from tensors created with ``requires_grad=True``;
constant subgraphs are pruned at construction time and cost nothing at
backward.

``backward`` consumes its tape. A tape whose forward values reach
``RELEASE_TAPE_BYTES`` is released while it is walked: each node's gradient,
rule and parent links are dropped as soon as its rule has run, so every
forward activation and gradient is freed once no remaining rule needs it.
Smaller tapes are kept whole, because freeing many small buffers makes the
allocator trim and refault its heap on every step.

``info_nce`` is GRACE's contrastive loss fused into one node. Built from the
small ops, its n x n similarity and exp matrices would sit on the tape until
backward; the fused node holds three of them and gives the same bits.
``normalized_slices`` does the same for a symmetric normalization, scaling
only the entries read. The composed forms are the tests' oracles: InfoNCE's
in ``tests/test_autodiff.py``, the normalization's in ``tests/fd_utils.py``.
"""

from __future__ import annotations

import json
import struct
from typing import NamedTuple

import numpy as np
from scipy.sparse import _sparsetools

LOG_EPS = 1e-12  # additive floor inside info_nce's log / l2-normalize
RELEASE_TAPE_BYTES = 32 << 20  # forward bytes from which backward releases its tape
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Ops with a registered backward rule. The finite-difference test sweep is
# keyed off this tuple, so adding an op here without coverage fails the suite.
REGISTERED_OPS = (
    "add",
    "cross_entropy",
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
    "row_sum",
    "scalar_scale",
    "segment_sum",
    "sigmoid",
    "softplus",
    "spmm",
    "transpose",
)


class Tensor:
    """A 2-D float64 value on the tape."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, name=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D matrices, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward_fn = None

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


def _node(data, parents, backward_fn):
    """Build an op output; prune the tape when no parent needs gradients."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accum(tensor, grad):
    if grad.shape != tensor.data.shape:
        raise ValueError(f"gradient shape {grad.shape} != tensor shape {tensor.data.shape}")
    if tensor.grad is None:
        # a fresh buffer with the bits of zeros + grad: -0.0 becomes +0.0
        tensor.grad = grad + 0.0
    else:
        tensor.grad += grad


def backward(root, params=None):
    """Accumulate d(root)/d(leaf) through the tape in reverse topological order.

    Returns a dict mapping each tensor in ``params`` (if given) to its
    gradient; tensors disconnected from ``root`` map to zeros. Each node's
    rule runs exactly once. A tensor's first gradient contribution is copied
    into a fresh buffer as ``grad + 0.0``, the bits of adding it to zeros;
    later ones add in place, and every contribution must match the tensor's
    shape. The tape is consumed: when its forward values total at least
    ``RELEASE_TAPE_BYTES``, every non-leaf node not in ``params`` loses its
    gradient, rule and parent links once its rule has run. Leaves and
    ``params`` entries keep their gradients either way.
    """
    if root.data.shape != (1, 1):
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")

    topo = []
    tape_bytes = 0
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            tape_bytes += node.data.nbytes
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and parent.requires_grad:
                stack.append((parent, False))

    for node in topo:
        node.grad = None
    root.grad = np.ones((1, 1))
    release = tape_bytes >= RELEASE_TAPE_BYTES
    named = {id(p) for p in params or ()}

    while topo:
        node = topo.pop()
        if node._backward_fn is None:
            continue
        node._backward_fn(node.grad)
        if release:
            if id(node) not in named:
                node.grad = None
            node._backward_fn = None
            node._parents = ()

    if params is None:
        return None
    out = {}
    for p in params:
        out[p] = p.grad if p.grad is not None else np.zeros_like(p.data)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a, b):
    """a + b; b may be a (1, c) row or (1, 1) scalar broadcast against a."""
    if a.shape != b.shape and not (b.shape in ((1, a.shape[1]), (1, 1))):
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out_data = a.data + b.data

    def bw(go):
        if a.requires_grad:
            _accum(a, go)
        if b.requires_grad:
            if b.shape == a.shape:
                _accum(b, go)
            elif b.shape == (1, 1):
                _accum(b, go.sum().reshape(1, 1))
            else:
                _accum(b, go.sum(axis=0, keepdims=True))

    return _node(out_data, (a, b), bw)


def sub(a, b):
    return add(a, scalar_scale(b, -1.0))


def hadamard(a, b):
    if a.shape != b.shape:
        raise ValueError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    out_data = a.data * b.data

    def bw(go):
        if a.requires_grad:
            _accum(a, go * b.data)
        if b.requires_grad:
            _accum(b, go * a.data)

    return _node(out_data, (a, b), bw)


def scalar_scale(a, s):
    s = float(s)

    def bw(go):
        if a.requires_grad:
            _accum(a, go * s)

    return _node(a.data * s, (a,), bw)


def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def bw(go):
        if a.requires_grad:
            _accum(a, go @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ go)

    return _node(out_data, (a, b), bw)


def transpose(a):
    def bw(go):
        if a.requires_grad:
            _accum(a, go.T)

    return _node(a.data.T, (a,), bw)


def row_mean(a):
    n = a.shape[0]

    def bw(go):
        if a.requires_grad:
            _accum(a, np.repeat(go, n, axis=0) / n)

    return _node(a.data.mean(axis=0, keepdims=True), (a,), bw)


def row_sum(a):
    """Sum each row: (n, c) -> (n, 1)."""

    def bw(go):
        if a.requires_grad:
            _accum(a, np.repeat(go, a.shape[1], axis=1))

    return _node(a.data.sum(axis=1, keepdims=True), (a,), bw)


def gather_rows(a, ids):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("gather_rows ids must be a 1-D index array")
    if ids.size and (ids.min() < 0 or ids.max() >= a.shape[0]):
        raise ValueError("gather_rows index out of range")

    def bw(go):
        if a.requires_grad:
            if go.shape[1] == 1:
                g = np.bincount(ids, weights=go[:, 0], minlength=a.shape[0])
                _accum(a, g.reshape(-1, 1))
            else:
                g = np.zeros_like(a.data)
                if np.unique(ids).size == ids.size:
                    # distinct ids scatter by assignment: the same bits once
                    # _accum adds 0.0, which turns -0.0 into +0.0
                    g[ids] = go
                else:
                    np.add.at(g, ids, go)
                _accum(a, g)

    return _node(a.data[ids], (a,), bw)


def segment_sum(a, seg_ids, num_segments):
    """Scatter-add rows of a (n, c) tensor into ``num_segments`` output rows."""
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if seg_ids.shape != (a.shape[0],):
        raise ValueError("segment_sum needs one segment id per row")
    if seg_ids.size and (seg_ids.min() < 0 or seg_ids.max() >= num_segments):
        raise ValueError("segment_sum segment id out of range")
    if a.shape[1] == 1:
        out_data = np.bincount(seg_ids, weights=a.data[:, 0],
                               minlength=num_segments).reshape(-1, 1)
    else:
        out_data = np.zeros((num_segments, a.shape[1]))
        np.add.at(out_data, seg_ids, a.data)

    def bw(go):
        if a.requires_grad:
            _accum(a, go[seg_ids])

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(a):
    mask = a.data > 0

    def bw(go):
        if a.requires_grad:
            _accum(a, go * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), bw)


def elu(a):
    pos = a.data > 0
    # clip only the exp argument; saturation keeps values in (-1, 0]
    expm1 = np.expm1(np.minimum(a.data, 0.0))
    out_data = np.where(pos, a.data, expm1)

    def bw(go):
        if a.requires_grad:
            _accum(a, go * np.where(pos, 1.0, expm1 + 1.0))

    return _node(out_data, (a,), bw)


def prelu(a, slope):
    """max(x, 0) + slope * min(x, 0) with a learnable (1, 1) slope."""
    if slope.shape != (1, 1):
        raise ValueError("prelu slope must be a (1, 1) tensor")
    neg = np.minimum(a.data, 0.0)
    out_data = np.maximum(a.data, 0.0) + slope.data[0, 0] * neg

    def bw(go):
        if a.requires_grad:
            _accum(a, go * np.where(a.data > 0, 1.0, slope.data[0, 0]))
        if slope.requires_grad:
            _accum(slope, (go * neg).sum().reshape(1, 1))

    return _node(out_data, (a, slope), bw)


def sigmoid(a):
    out_data = np.empty_like(a.data)
    pos = a.data >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def bw(go):
        if a.requires_grad:
            _accum(a, go * out_data * (1.0 - out_data))

    return _node(out_data, (a,), bw)


def softplus(a):
    out_data = np.logaddexp(0.0, a.data)
    sig = 1.0 / (1.0 + np.exp(-np.clip(a.data, -700, 700)))

    def bw(go):
        if a.requires_grad:
            _accum(a, go * sig)

    return _node(out_data, (a,), bw)


def power(a, p):
    """Elementwise x**p for a constant exponent; callers keep x in the domain."""
    p = float(p)
    out_data = a.data**p

    def bw(go):
        if a.requires_grad:
            _accum(a, go * p * a.data ** (p - 1.0))

    return _node(out_data, (a,), bw)


def l2_normalize_rows(a):
    """x / sqrt(sum(x^2) + 1e-12) per row; the floor keeps zero rows finite."""
    sq = (a.data * a.data).sum(axis=1, keepdims=True) + LOG_EPS
    inv = sq**-0.5
    out_data = a.data * inv

    def bw(go):
        if a.requires_grad:
            dot = (go * a.data).sum(axis=1, keepdims=True)
            _accum(a, go * inv - a.data * (dot * inv / sq))

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

    def bw(go):
        if logits.requires_grad:
            g = probs.copy()
            g[np.arange(n), targets] -= 1.0
            _accum(logits, go[0, 0] * g / n)

    return _node(out_data, (logits,), bw)


def info_nce(z1, z2, temperature):
    """Symmetric InfoNCE of two (n, d) views as one tape node.

    With s_ab = z_a z_b^T / t, direction 1 scores row i by
    log(sum_j exp(s12_ij) + sum_{j != i} exp(s11_ij) + 1e-12) - s12_ii,
    direction 2 likewise with s12^T and s22, and the loss is half the sum of
    the two row means. Views should be row-normalized, as GRACE's are: the
    intra term subtracts exp(s_ii) from its row sum, which cancels when
    s_ii dominates the row.

    Composed from elementwise exp and log, a diagonal pick and the other ops,
    this loss leaves ten n x n matrices on the tape. This node keeps three, exp(s12), exp(s11) and
    exp(s22), computed in place and freed as backward uses them. Forward and
    backward run the composed tape's numpy calls on arrays of the same layout
    and accumulate in the order it does, so values and gradients are the same
    bits as the composition (pinned in tests against it). ``+ 0.0`` stands
    for a first accumulation ``zeros + g``, which turns -0.0 into +0.0.
    """
    if z1.shape != z2.shape:
        raise ValueError(f"info_nce views differ in shape: {z1.shape} vs {z2.shape}")
    n = z1.shape[0]
    inv_t = 1.0 / temperature
    e12 = z1.data @ z2.data.T
    e11 = z1.data @ z1.data.T
    e22 = z2.data @ z2.data.T
    for m in (e12, e11, e22):
        np.multiply(m, inv_t, out=m)
    # the diagonal terms read the scaled products before the in-place exp
    neg_pos = np.diag(e12).reshape(-1, 1) * -1.0
    exp_diag = [np.exp(np.diag(m).reshape(-1, 1)) for m in (e11, e22)]
    for m in (e12, e11, e22):
        np.exp(m, out=m)
    # exp(s12^T) is exp(s12).T bit for bit, with the same strides
    shifted, halves = [], []
    for cross, intra, ed in ((e12, e11, exp_diag[0]), (e12.T, e22, exp_diag[1])):
        denom = cross.sum(axis=1, keepdims=True) + (
            intra.sum(axis=1, keepdims=True) + ed * -1.0)
        shifted.append(denom + LOG_EPS)
        halves.append((np.log(shifted[-1]) + neg_pos).mean(axis=0, keepdims=True))
    out_data = (halves[0] + halves[1]) * 0.5
    saved = [e12, e11, e22]

    def bw(go):
        e12, e11, e22 = saved
        saved.clear()
        diagonal = lambda m: m.reshape(-1)[:: n + 1]  # a view of a C-order n x n
        g_diff = np.repeat(go * 0.5 + 0.0, n, axis=0) / n + 0.0
        g_pos = (g_diff * -1.0 + 0.0)[:, 0]
        g_denom = [g_diff / sh + 0.0 for sh in shifted]
        acc = [None, None]
        # intra terms: s_zz gets its exp term, then its diagonal term
        for k, (z, g) in enumerate(((z1, e11), (z2, e22))):
            if z.requires_grad:
                np.multiply(g, g_denom[k], out=g)
                g += 0.0
                diagonal(g)[:] += ((g_denom[k] * -1.0 + 0.0) * exp_diag[k] + 0.0)[:, 0]
                np.multiply(g, inv_t, out=g)
                g += 0.0
                acc[k] = g @ z.data + 0.0
                acc[k] += (z.data.T @ g).T
        del e11, e22, g
        # cross term: s12 gets direction 1's exp and diagonal terms, then the
        # transpose of what direction 2 gave s12^T
        g = e12 * g_denom[0]
        g += 0.0
        diag = diagonal(g) + g_pos
        np.multiply(e12, g_denom[1].T, out=e12)
        e12 += 0.0
        diag += diagonal(e12) + g_pos
        g += e12
        del e12
        diagonal(g)[:] = diag
        np.multiply(g, inv_t, out=g)
        g += 0.0
        if z1.requires_grad:
            acc[0] += g @ z2.data
            _accum(z1, acc[0])
        if z2.requires_grad:
            acc[1] += (z1.data.T @ g).T
            _accum(z2, acc[1])

    return _node(out_data, (z1, z2), bw)


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
        _accum(values, g_values)

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
    building a scipy matrix per call. The kernels do not bounds-check: they
    rely on SparseAdj's invariants (validated, read-only offsets and column
    indices) and on the values being a contiguous float64 vector of one value
    per entry, which is checked here.
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
    _sparsetools.csr_matvecs(n, n_cols, width, pattern.indptr, pattern.indices, v,
                             x.data.ravel(), out_data.ravel())

    def edge_grads(go):
        # d(loss)/d(value at (i, j)) = go[i] . x[j]; up to ~4k x 4k the dense
        # product is far cheaper than per-edge gathers
        if go.shape[0] * x.shape[0] <= 16_777_216:
            return (go @ x.data.T).take(pattern.flat_index())
        out_rows, cols = pattern.row_ids(), pattern.indices
        out = np.empty(out_rows.size)
        for start in range(0, out_rows.size, 65536):
            stop = min(start + 65536, out_rows.size)
            out[start:stop] = np.einsum(
                "ij,ij->i", go[out_rows[start:stop]], x.data[cols[start:stop]]
            )
        return out

    def bw(go):
        if x.requires_grad:
            g = np.zeros((n_cols, width))
            _sparsetools.csc_matvecs(n_cols, n, width, pattern.indptr, pattern.indices, v,
                                     go.ravel(), g.ravel())
            _accum(x, g)
        if values.requires_grad:
            _accum(values, edge_grads(go).reshape(-1, 1))

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


def checkpoint_bytes(tensors):
    """Serialize {name: array}: one JSON header line, then little-endian
    float64 payloads in header order."""
    header = {name: list(np.asarray(arr).shape) for name, arr in tensors.items()}
    blob = [json.dumps(header).encode() + b"\n"]
    for name in header:
        blob.append(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())
    return b"".join(blob)


def save_checkpoint(path, tensors):
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(tensors))


def load_checkpoint(path):
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode())
        out = {}
        for name, shape in header.items():
            count = int(np.prod(shape)) if shape else 1
            payload = fh.read(count * 8)
            if len(payload) != count * 8:
                raise ValueError(f"truncated checkpoint payload for '{name}'")
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError("trailing bytes after the checkpoint payload")
    return out
