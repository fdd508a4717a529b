"""Finite-difference checking harness shared by the unit and acceptance suites.

Every op named in autodiff.REGISTERED_OPS has at least one case builder here;
the tests assert full coverage, so a newly registered op without a case fails
the suite. ``composed_normalize`` and the ``concat_rows`` it uses are the
small-op oracle of the fused ``autodiff.normalized_slices``, and
``composed_cosine`` that of ``autodiff.decoded_cosine``; ``row_sum`` serves
the composed oracles and ``total``.
"""

from __future__ import annotations

import zlib

import numpy as np
import scipy.sparse as sp

from uniprompt import autodiff as ad
from uniprompt.autodiff import _accum, _node
from uniprompt.graphs import DEG_EPS, NormContext, SparseAdj

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def to_scipy(adj, values=None):
    """``adj`` (a SparseAdj) as a scipy CSR matrix, with its own values or
    ``values``: the tests' dense oracle, built from scipy's public API."""
    data = adj.data if values is None else np.asarray(values, dtype=np.float64)
    return sp.csr_matrix((data, adj.indices, adj.indptr), shape=(adj.n, adj.n_cols))


def concat_rows(a, b):
    """The rows of ``a`` over those of ``b``, on the tape. The engine stacks
    no tensors, so this lives here: in ``composed_normalize`` and to stack
    the outputs of the ``spmm`` and ``normalized_slices`` cases, whose FD
    checks cover its backward rule too."""
    na = a.shape[0]

    def bw(go):
        if a.requires_grad:
            _accum(a, go[:na], copy=True)
        if b.requires_grad:
            _accum(b, go[na:], copy=True)

    return _node(np.concatenate([a.data, b.data], axis=0), (a, b), bw)


def row_sum(a):
    """Sum each row on the tape: (n, c) -> (n, 1). No engine path sums rows
    since GraphMAE's cosine became ``ad.decoded_cosine``, so this lives here:
    in ``total`` and the composed oracles, whose FD checks cover its rule."""

    def bw(go):
        if a.requires_grad:
            _accum(a, np.repeat(go, a.shape[1], axis=1))

    return _node(a.data.sum(axis=1, keepdims=True), (a,), bw)


def composed_cosine(x_true, x_hat):
    """The cosine of each row pair, composed from small tape ops as GraphMAE's
    scaled cosine error built it before ``ad.decoded_cosine``: that op's
    oracle, equal bit for bit when it runs in one tile."""
    return row_sum(ad.hadamard(ad.l2_normalize_rows(x_true), ad.l2_normalize_rows(x_hat)))


def composed_normalize(ctx, values):
    """D^(-1/2) (V + I) D^(-1/2) of the (nnz, 1) support ``values`` as the
    (``ctx.norm_pattern`` nnz, 1) values over ``ctx.norm_pattern``, composed
    from small tape ops as ``NormContext`` built it before the fused
    ``ad.normalized_slices``: the oracle that op must match bit for bit."""
    n = ctx.pattern.n
    floor = 1.0 if ctx.add_self_loops else DEG_EPS
    deg = ad.add(ad.segment_sum(values, ctx.rows, n), ad.constant(np.full((n, 1), floor)))
    dinv = ad.power(deg, -0.5)
    edge = ad.hadamard(
        ad.hadamard(values, ad.gather_rows(dinv, ctx.rows)),
        ad.gather_rows(dinv, ctx.cols),
    )
    if not ctx.add_self_loops:
        return edge
    return ad.gather_rows(concat_rows(edge, ad.hadamard(dinv, dinv)), ctx.order)


def _away_from_zero(rng, shape, low=0.2, high=2.0):
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return sign * rng.uniform(low, high, size=shape)


def _random_pattern(rng, n=5, density=0.4):
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        rows, cols = np.array([0]), np.array([1])
    return SparseAdj.from_coo(n, rows, cols, np.ones(rows.size))


def _case_add(rng):
    if rng.random() < 0.5:
        arrs = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
    else:
        arrs = [rng.normal(size=(3, 4)), rng.normal(size=(1, 4))]
    return arrs, lambda a, b: ad.add(a, b)


def _case_cross_entropy(rng):
    targets = rng.integers(0, 3, size=4)
    return [rng.normal(size=(4, 3))], lambda a: ad.cross_entropy(a, targets)


def _case_decoded_cosine(rng):
    """Four decoded rows against targets drawn with repeats from six rows."""
    x = rng.normal(size=(6, 5))
    rows = rng.integers(0, 6, size=4)
    return [rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=(1, 5))], \
        lambda r, w, b: ad.decoded_cosine(r, w, b, x, ad.unit_row_scales(x), rows)


def _case_elu(rng):
    return [_away_from_zero(rng, (3, 4))], ad.elu


def _case_gather_rows(rng):
    ids = rng.integers(0, 5, size=6)
    return [rng.normal(size=(5, 3))], lambda a: ad.gather_rows(a, ids)


def _case_hadamard(rng):
    # b of a's shape, or an (n, 1) column broadcast across a's columns
    cols = 4 if rng.random() < 0.5 else 1
    return [rng.normal(size=(3, 4)), rng.normal(size=(3, cols))], ad.hadamard


def _case_info_nce(rng):
    # raw views, not row-normalized ones as GRACE's: n = 1 leaves each row
    # one term, its positive pair
    n = int(rng.integers(1, 6))
    t = float(rng.choice([0.2, 0.5, 1.0]))
    return [rng.normal(size=(n, 3)) for _ in range(2)], lambda a, b: ad.info_nce(a, b, t)


def _case_l2_normalize_rows(rng):
    return [_away_from_zero(rng, (3, 4))], ad.l2_normalize_rows


def _case_matmul(rng):
    return [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))], ad.matmul


def _case_normalized_slices(rng):
    """Both slices of a random support's receptive field, stacked, with or
    without self-loops; values stay positive, so every degree does."""
    pattern = _random_pattern(rng)
    ctx = NormContext(pattern, add_self_loops=bool(rng.random() < 0.5))
    field = ctx.receptive_field(rng.choice(pattern.n, size=2, replace=False))
    return [rng.uniform(0.2, 1.5, size=(pattern.nnz, 1))], \
        lambda v: concat_rows(*ad.normalized_slices(v, field.reads))


def _case_power(rng):
    p = float(rng.choice([2.0, -0.5, 1.5]))
    return [rng.uniform(0.5, 2.0, size=(3, 4))], lambda a: ad.power(a, p)


def _case_prelu(rng):
    return [
        _away_from_zero(rng, (3, 4)),
        rng.uniform(0.1, 0.5, size=(1, 1)),
    ], ad.prelu


def _case_relu(rng):
    return [_away_from_zero(rng, (3, 4))], ad.relu


def _case_row_mean(rng):
    return [rng.normal(size=(4, 3))], ad.row_mean


def _case_scalar_scale(rng):
    s = float(rng.normal())
    return [rng.normal(size=(3, 4))], lambda a: ad.scalar_scale(a, s)


def _case_segment_sum(rng):
    seg = rng.integers(0, 4, size=6)
    return [rng.normal(size=(6, 1))], lambda a: ad.segment_sum(a, seg, 4)


def _case_sigmoid(rng):
    return [rng.uniform(-3, 3, size=(3, 4))], ad.sigmoid


def _case_softplus(rng):
    return [rng.uniform(-3, 3, size=(3, 4))], ad.softplus


def _case_spmm(rng):
    """The full product stacked over the product of a restricted operator,
    rows in descending (unsorted) order, against x's rows at the columns the
    slice reaches: a rectangular operator and the gather of its values."""
    pattern = _random_pattern(rng)
    rows = np.sort(rng.choice(pattern.n, size=3, replace=False))[::-1]

    sliced, pos, support = pattern.restrict(rows)

    def products(v, x):
        adj = ad.SparseTensor(sliced, ad.gather_rows(v, pos))
        return concat_rows(ad.spmm(ad.SparseTensor(pattern, v), x),
                           ad.spmm(adj, ad.gather_rows(x, support)))

    return [
        rng.uniform(0.2, 1.5, size=(pattern.nnz, 1)),
        rng.normal(size=(pattern.n, 3)),
    ], products


def _case_transpose(rng):
    return [rng.normal(size=(3, 4))], ad.transpose


OP_CASES = {
    "add": _case_add,
    "cross_entropy": _case_cross_entropy,
    "decoded_cosine": _case_decoded_cosine,
    "elu": _case_elu,
    "gather_rows": _case_gather_rows,
    "hadamard": _case_hadamard,
    "info_nce": _case_info_nce,
    "l2_normalize_rows": _case_l2_normalize_rows,
    "matmul": _case_matmul,
    "normalized_slices": _case_normalized_slices,
    "power": _case_power,
    "prelu": _case_prelu,
    "relu": _case_relu,
    "row_mean": _case_row_mean,
    "scalar_scale": _case_scalar_scale,
    "segment_sum": _case_segment_sum,
    "sigmoid": _case_sigmoid,
    "softplus": _case_softplus,
    "spmm": _case_spmm,
    "transpose": _case_transpose,
}


def total(t):
    """The sum of every entry of ``t`` as a (1, 1) tensor."""
    return ad.matmul(ad.constant(np.ones((1, t.shape[0]))), row_sum(t))


def fd_check_case(arrays, fn, rng):
    """Max elementwise violation of |analytic - central FD| against
    max(ABS_FLOOR, REL_TOL * scale); <= 0 means the check passed."""
    projection = None

    def scalar_loss(raw_arrays, tape_idx=None):
        nonlocal projection
        tensors = [
            ad.Tensor(arr, requires_grad=(tape_idx is None or i == tape_idx))
            for i, arr in enumerate(raw_arrays)
        ]
        out = fn(*tensors)
        if projection is None:
            projection = rng.normal(size=out.shape)
        return total(ad.hadamard(out, ad.constant(projection))), tensors

    loss, tensors = scalar_loss(arrays)
    grads = ad.backward(loss, params=tensors)

    worst = -np.inf
    for i, base in enumerate(arrays):
        analytic = grads[tensors[i]]
        fd = np.zeros_like(base)
        flat = base.reshape(-1)
        for j in range(flat.size):
            for sign in (1.0, -1.0):
                bumped = base.copy().reshape(-1)
                bumped[j] += sign * FD_STEP
                val, _ = scalar_loss(
                    [bumped.reshape(base.shape) if k == i else arrays[k]
                     for k in range(len(arrays))]
                )
                fd.reshape(-1)[j] += sign * val.item() / (2 * FD_STEP)
        scale = np.maximum(np.abs(analytic), np.abs(fd))
        violation = np.abs(analytic - fd) - np.maximum(ABS_FLOOR, REL_TOL * scale)
        worst = max(worst, float(violation.max()))
    return worst


def fd_check_op(name, instances=20, seed=0):
    rng = np.random.default_rng([seed, zlib.crc32(name.encode()) & 0xFFFF])
    worst = -np.inf
    for _ in range(instances):
        arrays, fn = OP_CASES[name](rng)
        worst = max(worst, fd_check_case(arrays, fn, rng))
    return worst
