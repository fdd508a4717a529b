"""Graph representation, bundle I/O, the GCN operator, kNN prompt
construction, homophily and noise utilities.

``NormContext`` is the one symmetric normalization, one
``autodiff.normalized_slices`` node: ``normalize`` gives a whole operator of
constant values (``symmetric_normalize`` runs it on a fixed graph, so tau=1
uniprompt equals the linear probe), and ``normalize_field`` scales, on the
tape, just the entries that a ``ReceptiveField``, a few rows' 2-hop slices, reads.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad

DEG_EPS = 1e-12  # degree floor when normalizing without self-loops
KNN_BLOCK_ROWS = 512  # rows of the similarity matrix ``knn_prompt_init`` holds at once


class SparseAdj:
    """Immutable CSR matrix (row offsets, sorted column indices, values) with
    ``n`` rows and ``n_cols`` columns. Graph operators are square, and
    ``n_cols`` defaults to ``n``; ``restrict`` builds the rectangular slices.

    The arrays are validated here and then read-only, so ``autodiff.spmm``
    hands them to scipy's CSR kernels, which do not bounds-check. Facts of
    the pattern (``row_ids``, ``flat_index``) are computed once, on first
    use."""

    __slots__ = ("n", "n_cols", "indptr", "indices", "data", "_row_ids", "_flat_index")

    def __init__(self, n, indptr, indices, data, n_cols=None):
        self.n = int(n)
        self.n_cols = self.n if n_cols is None else int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have one offset per row plus one")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr offsets must be monotone")
        if self.indices.shape != self.data.shape or self.indices.ndim != 1:
            raise ValueError("indices and values must be parallel 1-D arrays")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n_cols):
            raise ValueError("column index out of range")
        if not np.isfinite(self.data).all():
            raise ValueError("sparse values must be finite")
        for arr in (self.indptr, self.indices, self.data):
            arr.flags.writeable = False
        self._row_ids = None
        self._flat_index = None

    @property
    def nnz(self):
        return self.indices.size

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from unordered triplets; duplicate positions are summed."""
        mat = sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
        ).tocsr()
        mat.sum_duplicates()
        mat.sort_indices()
        return cls(n, mat.indptr, mat.indices, mat.data)

    def row_ids(self):
        """Row index of every stored entry, aligned with ``indices``
        (read-only)."""
        if self._row_ids is None:
            self._row_ids = np.repeat(np.arange(self.n), np.diff(self.indptr))
            self._row_ids.flags.writeable = False
        return self._row_ids

    def flat_index(self):
        """Position of every stored entry in the C-order ``n x n_cols``
        dense matrix, ``row_ids() * n_cols + indices`` (read-only)."""
        if self._flat_index is None:
            self._flat_index = self.row_ids() * self.n_cols + self.indices
            self._flat_index.flags.writeable = False
        return self._flat_index

    def row_slice(self, rows):
        """Positions in ``indices`` of the stored entries of ``rows``, row
        after row in the given order, and the row offsets of that slice."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("row ids must be a 1-D index array")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n):
            raise ValueError("row index out of range")
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts), offsets

    def restrict(self, rows):
        """``A[rows]`` over the columns it reaches: the |rows| x |S| operator
        with the entries' values and its columns relabelled into S, the
        entries' positions in ``indices``, and S, the distinct columns of
        ``rows`` in ascending order (the nodes the slice reads)."""
        pos, offsets = self.row_slice(rows)
        support, cols = np.unique(self.indices[pos], return_inverse=True)
        return SparseAdj(offsets.size - 1, offsets, cols, self.data[pos],
                         n_cols=support.size), pos, support

    def with_values(self, values):
        return SparseAdj(self.n, self.indptr, self.indices, values, self.n_cols)


class ReceptiveField:
    """The 2-hop receptive field of the rows ``ids`` in a square ``operator``.

    S1 is the columns the ids' rows reach and S2 the columns S1's rows reach,
    each ascending. ``layers`` holds layer 1's |S1| x |S2| slice and layer
    2's |ids| x |S1| slice, with the operator's values, and ``positions``
    their entries in the operator's pattern, in slice order. ``inputs``, if
    given, is layer 1's constant input over every node (X, or a product
    standing in for X W1); the field keeps its S2 rows, without a copy when
    S2 is every node. A run's labeled ids never change, so one field serves
    every training epoch of the run.
    ``reads`` is what ``NormContext.normalize_field`` needs, when the field
    was built by ``NormContext.receptive_field``.
    """

    __slots__ = ("operator", "s1", "s2", "layers", "positions", "inputs", "reads")

    def __init__(self, operator, ids, inputs=None):
        self.operator = operator
        layer2, pos2, self.s1 = operator.restrict(ids)
        layer1, pos1, self.s2 = operator.restrict(self.s1)
        self.layers = (layer1, layer2)
        self.positions = (pos1, pos2)
        self.inputs = None
        if inputs is not None:
            # S2 is distinct and ascending: at full size it is every node
            every = self.s2.size == operator.n_cols
            self.inputs = ad.constant(inputs.data if every else inputs.data[self.s2])
        self.reads = None


class _EdgeCache:
    """Operators built from one edge set, filled on first use and shared by
    every ``Graph`` that ``with_features`` derives from the same edges."""

    __slots__ = ("adj", "norm_adj")

    def __init__(self):
        self.adj = None
        self.norm_adj = None


class Graph:
    """An immutable node-attributed graph with a symmetric adjacency.

    Edges are unweighted directed entries in canonical (src, dst) order; the
    invariant is that (i, j) is present iff (j, i) is.
    """

    __slots__ = ("num_nodes", "src", "dst", "features", "labels", "num_classes", "name",
                 "_edges", "_knn")

    def __init__(self, num_nodes, src, dst, features, labels, num_classes, name="graph"):
        self.num_nodes = int(num_nodes)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        self.num_classes = int(num_classes)
        self.name = name
        self._edges = _EdgeCache()
        self._knn = {}

        n = self.num_nodes
        if self.src.shape != self.dst.shape:
            raise ValueError("edge arrays must be parallel")
        if self.src.size:
            if self.src.min() < 0 or self.src.max() >= n or self.dst.min() < 0 or self.dst.max() >= n:
                raise ValueError("edge index out of range")
        # in range, src * n + dst is one int64 key per edge in (src, dst) order
        keys = self.src * n + self.dst
        order = np.argsort(keys, kind="stable")
        keys, self.src, self.dst = keys[order], self.src[order], self.dst[order]
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edges")
        # symmetry: the transposed pairs, sorted, must be the same keys
        if not np.array_equal(np.sort(self.dst * n + self.src), keys):
            raise ValueError("adjacency must be symmetric")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("features must be an N x F matrix")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain NaN/Inf")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise ValueError("labels must have one entry per node")
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
                raise ValueError("label out of range")
            self.labels.flags.writeable = False
        for arr in (self.src, self.dst, self.features):
            arr.flags.writeable = False

    @property
    def num_features(self):
        return self.features.shape[1]

    @property
    def num_undirected_edges(self):
        offdiag = int((self.src != self.dst).sum()) // 2
        return offdiag + int((self.src == self.dst).sum())

    def adjacency(self):
        edges = self._edges
        if edges.adj is None:
            edges.adj = SparseAdj.from_coo(self.num_nodes, self.src, self.dst,
                                           np.ones(self.src.size))
        return edges.adj

    def normalized_adjacency(self):
        """The GCN operator D^(-1/2) (A + I) D^(-1/2) of ``adjacency()``."""
        edges = self._edges
        if edges.norm_adj is None:
            edges.norm_adj = symmetric_normalize(self.adjacency())
        return edges.norm_adj

    def knn_support(self, k):
        """The exact kNN prompt support ``knn_prompt_init(features, k)``,
        built once per ``k``."""
        if k not in self._knn:
            self._knn[k] = knn_prompt_init(self.features, k)
        return self._knn[k]

    def with_features(self, features):
        """The same edges with new features. The edge operators are shared
        both ways: whichever graph builds one first builds it for all. The
        kNN support depends on the features and stays per graph."""
        out = Graph(self.num_nodes, self.src, self.dst, features,
                    self.labels, self.num_classes, name=self.name)
        out._edges = self._edges
        return out


def _distinct_keys(keys):
    """The distinct entries of ``keys``, ascending; sorts ``keys`` in place.
    A sort and a neighbour compare, far cheaper here than ``np.unique``."""
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def graph_from_pairs(num_nodes, pairs, features, labels, num_classes, name="graph"):
    """Build a Graph from directed (src, dst) pairs, symmetrized by union;
    self-loops dropped."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size:
        if pairs.min() < 0 or pairs.max() >= num_nodes:
            raise ValueError("edge index out of range")
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        both = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
        keys = _distinct_keys(both[:, 0] * num_nodes + both[:, 1])
        src, dst = keys // num_nodes, keys % num_nodes
    else:
        src = dst = np.zeros(0, dtype=np.int64)
    return Graph(num_nodes, src, dst, features, labels, num_classes, name=name)


# ---------------------------------------------------------------------------
# bundle I/O
# ---------------------------------------------------------------------------


def _meta_counts(meta):
    """``num_nodes``, ``num_features`` and ``num_classes`` of a bundle's
    meta.json object; each must be a JSON integer."""
    if not isinstance(meta, dict):
        raise ValueError(f"meta.json must be a JSON object, got {type(meta).__name__}")
    counts = []
    for key in ("num_nodes", "num_features", "num_classes"):
        if key not in meta:
            raise ValueError(f"meta.json: missing key '{key}'")
        value = meta[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"meta.json: {key} must be an integer, got {value!r}")
        counts.append(value)
    return counts


def _read_edges(file):
    """The rows of an edges.csv below its 'src,dst' header as an E x 2 int64
    array, in one parse; columns past the second are ignored."""
    with open(file) as fh:
        header = fh.readline()
        body = fh.read()
    if [h.strip() for h in header.split(",")[:2]] != ["src", "dst"]:
        raise ValueError("edges.csv must start with a 'src,dst' header")
    if not body.strip():
        return np.zeros((0, 2), dtype=np.int64)
    try:
        return np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2,
                          usecols=(0, 1))
    except ValueError as exc:
        raise ValueError(f"edges.csv: non-numeric cell ({exc})") from exc


def _read_features(path):
    """The feature matrix from the one of features.npy and features.csv that
    the bundle holds, and that file's name."""
    npy, text = path / "features.npy", path / "features.csv"
    if npy.exists() == text.exists():
        if npy.exists():
            raise ValueError(f"{path} holds both features.npy and features.csv; keep one")
        raise FileNotFoundError(f"missing file: {npy} (or features.csv)")
    if text.exists():
        try:
            return np.loadtxt(text, delimiter=",", dtype=np.float64, ndmin=2), text.name
        except ValueError as exc:
            raise ValueError(f"features.csv: non-numeric cell ({exc})") from exc
    try:
        features = np.load(npy, allow_pickle=False)
    except (ValueError, EOFError, OSError) as exc:
        raise ValueError(f"features.npy: unreadable ({exc})") from exc
    if not isinstance(features, np.ndarray):  # an .npz archive under the name
        features.close()
        raise ValueError("features.npy: not a single .npy array")
    if features.ndim != 2 or features.dtype != np.float64:
        raise ValueError(f"features.npy: expected a 2-D float64 array, "
                         f"got a {features.ndim}-D {features.dtype} one")
    return np.ascontiguousarray(features), npy.name


def load_graph_bundle(path):
    """Load a graph bundle directory:
    - meta.json: integer ``num_nodes``, ``num_features``, ``num_classes``,
      and an optional ``name``;
    - edges.csv: a 'src,dst' header, then one integer pair per line;
    - labels.csv: one integer per line;
    - the features, as exactly one of features.npy (an N x F float64 array
      in numpy's .npy format, which ``save_graph_bundle`` writes) or
      features.csv (one comma-separated row per node, still accepted for
      bundles written by hand).
    Directed input edges are symmetrized by union; self-loops dropped."""
    path = Path(path)
    for fname in ("meta.json", "edges.csv", "labels.csv"):
        if not (path / fname).exists():
            raise FileNotFoundError(f"missing file: {path / fname}")

    with open(path / "meta.json") as fh:
        meta = json.load(fh)
    n, num_features, num_classes = _meta_counts(meta)
    name = str(meta.get("name", path.name))

    pairs = _read_edges(path / "edges.csv")

    features, fname = _read_features(path)
    if features.shape[0] != n:
        raise ValueError(
            f"row count mismatch: {fname} has {features.shape[0]} rows, meta says {n}"
        )
    if features.shape[1] != num_features:
        raise ValueError(
            f"column count mismatch: {fname} has {features.shape[1]} columns, "
            f"meta says {num_features}"
        )

    try:
        labels = np.loadtxt(path / "labels.csv", dtype=np.int64, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"labels.csv: non-numeric cell ({exc})") from exc
    if labels.shape[0] != n:
        raise ValueError(
            f"row count mismatch: labels.csv has {labels.shape[0]} rows, meta says {n}"
        )

    return graph_from_pairs(n, pairs, features, labels, num_classes, name=name)


def save_graph_bundle(graph, path):
    """Write a Graph as a bundle directory (inverse of load_graph_bundle):
    meta.json, edges.csv, labels.csv and the exact float64 features as
    features.npy. A features.csv already in the directory is removed, so
    the bundle holds one feature file."""
    if graph.labels is None:
        raise ValueError("cannot save a bundle without labels")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "num_nodes": graph.num_nodes,
        "num_features": graph.num_features,
        "num_classes": graph.num_classes,
        "name": graph.name,
    }
    with open(path / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    np.savetxt(path / "edges.csv", np.column_stack([graph.src, graph.dst]), fmt="%d",
               delimiter=",", header="src,dst", comments="")
    np.save(path / "features.npy", graph.features, allow_pickle=False)
    (path / "features.csv").unlink(missing_ok=True)
    np.savetxt(path / "labels.csv", graph.labels, fmt="%d")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class NormContext:
    """D^(-1/2) (V + I) D^(-1/2) over a fixed support with values V. Without
    ``add_self_loops`` the diagonal is left out and degrees are floored at
    ``DEG_EPS``, so an empty row stays zero.

    ``normalize`` gives the whole operator over ``norm_pattern``, for
    constant values. ``normalize_field`` gives, on the tape, just the two
    slices a ``receptive_field`` reads: degrees still sum every value, but
    only the entries the slices read are scaled, over the reads that
    ``_reads`` builds. Both are one ``ad.normalized_slices`` node."""

    def __init__(self, pattern, add_self_loops):
        self.pattern = pattern
        self.rows = pattern.row_ids()
        self.cols = pattern.indices
        self.add_self_loops = add_self_loops
        self.floor = 1.0 if add_self_loops else DEG_EPS
        n = pattern.n
        if add_self_loops:
            # a CSR pattern holds no duplicates, so a clash with the appended
            # diagonal can only be a stored self-loop
            if (self.rows == self.cols).any():
                raise ValueError("support already contains self-loops")
            diag = np.arange(n)
            all_rows = np.concatenate([self.rows, diag])
            all_cols = np.concatenate([self.cols, diag])
            self.order = np.argsort(all_rows * n + all_cols, kind="stable")
            self.norm_pattern = SparseAdj.from_coo(
                n, all_rows, all_cols, np.zeros(all_rows.size)
            )
        else:
            self.order = None
            self.norm_pattern = pattern

    def _reads(self, entries, slots, split):
        """The ``ad.NormReads`` of the ascending, distinct ``entries`` of
        ``norm_pattern``, output slot i reading ``entries[slots[i]]``; the
        first ``split`` slots make the first slice."""
        nnz = self.rows.size
        # an entry of the normalized pattern is a support entry or, past the
        # support's nnz in ``order``, a diagonal one; positions ascend in both
        source = entries if self.order is None else self.order[entries]
        is_edge = source < nnz
        edges, diag = source[is_edge], source[~is_edge] - nnz
        read_at = np.empty(entries.size, dtype=np.int64)
        read_at[is_edge] = np.arange(edges.size)
        read_at[~is_edge] = edges.size + np.arange(diag.size)
        return ad.NormReads(self.pattern.n, self.rows, self.floor, edges, self.rows[edges],
                            self.cols[edges], diag, read_at[slots], split)

    def normalize(self, values):
        """The normalized operator as a constant SparseAdj over
        ``norm_pattern``, from the support's ``values``, one per entry; it
        reads the support and the diagonal whole, in ``order``."""
        n, nnz = self.pattern.n, self.rows.size
        if self.order is None:
            diag, slots = np.zeros(0, dtype=np.int64), np.arange(nnz)
        else:
            diag, slots = np.arange(n), self.order
        reads = ad.NormReads(n, self.rows, self.floor, np.arange(nnz), self.rows, self.cols,
                             diag, slots, slots.size)
        whole, _ = ad.normalized_slices(ad.constant(values), reads)
        return self.norm_pattern.with_values(whole.data.reshape(-1))

    def receptive_field(self, ids, inputs=None):
        """The ``ReceptiveField`` of ``ids`` in ``norm_pattern``, with the
        support entries and diagonal nodes its slices read, for
        ``normalize_field``. Build it once per run."""
        field = ReceptiveField(self.norm_pattern, ids, inputs)
        entries, slots = np.unique(np.concatenate(field.positions), return_inverse=True)
        field.reads = self._reads(entries, slots, field.layers[0].nnz)
        return field

    def normalize_field(self, values, field):
        """Layer 1's and layer 2's slices of ``normalize(values)`` as two
        SparseTensors over ``field.layers``, from one ``ad.normalized_slices``
        node; ``field`` comes from this context's ``receptive_field``."""
        if field.reads is None or field.operator is not self.norm_pattern:
            raise ValueError("the field was not built by this normalization")
        first, second = ad.normalized_slices(values, field.reads)
        return ad.SparseTensor(field.layers[0], first), ad.SparseTensor(field.layers[1], second)


def symmetric_normalize(adj):
    """D^(-1/2) (A + I) D^(-1/2) as a constant SparseAdj: ``NormContext``
    with self-loops, run on the fixed values of ``adj``. A zero-degree node
    keeps a unit diagonal. ``adj`` must hold no self-loops and no negative
    weight."""
    if (adj.data < 0).any():
        raise ValueError("negative weight")
    return NormContext(adj, add_self_loops=True).normalize(adj.data)


def _normalized_rows(x):
    """Rows scaled to unit norm; zero rows stay zero. A row whose largest
    magnitude lies outside [2**-500, 2**500] is first divided by it, so its
    squares neither underflow nor overflow inside the norm."""
    peak = np.abs(x).max(axis=1, keepdims=True)
    extreme = (peak > 0) & ((peak < 2.0**-500) | (peak > 2.0**500))
    if extreme.any():
        x = np.where(extreme, x / np.where(extreme, peak, 1.0), x)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    out = np.zeros_like(x)
    np.divide(x, norms, out=out, where=norms > 0)
    return out


def _topk_per_row(sims, k, col_ids, self_col):
    """Row and column of the k largest entries per row, self column
    excluded: every entry above the k-th largest value, then the entries
    equal to it with the smallest column ids."""
    has_self = self_col >= 0
    if (sims.shape[1] - has_self).min() < k:
        raise ValueError("k out of range")
    neg = -sims
    neg[has_self, self_col[has_self]] = np.inf
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    above = neg < kth
    keep = neg <= kth
    # only rows with more than k entries at or above the k-th value drop ties
    crowded = np.flatnonzero(keep.sum(axis=1) > k)
    if crowded.size:
        first = above[crowded]
        ties = keep[crowded] & ~first
        ties &= np.cumsum(ties, axis=1) <= k - first.sum(axis=1, keepdims=True)
        keep[crowded] = first | ties
    rows, top = np.nonzero(keep)
    return rows, col_ids[top]


def knn_prompt_init(features, k, sample_size=None, seed=0):
    """Cosine-similarity kNN support as the initial prompt graph.

    Exact mode keeps the k most similar neighbors of every node (self pairs
    excluded); sampled mode restricts candidates to ``sample_size`` seeded
    nodes. The directed selection is symmetrized by union, and every entry
    of the support is 1: the prompt learns its own values, so the
    similarities only rank the candidates.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("empty feature matrix")
    n = x.shape[0]
    if sample_size is None:
        if not 1 <= k <= n - 1:
            raise ValueError("k out of range")
        candidates = np.arange(n)
    else:
        if not 1 <= sample_size <= n:
            raise ValueError("sample size out of range")
        if not 1 <= k <= sample_size:
            raise ValueError("k out of range")
        rng = np.random.default_rng(seed)
        candidates = np.sort(rng.choice(n, size=sample_size, replace=False))

    xn = _normalized_rows(x)
    cand = xn if sample_size is None else xn[candidates]
    pos_of = -np.ones(n, dtype=np.int64)
    pos_of[candidates] = np.arange(candidates.size)

    rows_all, cols_all = [], []
    for start in range(0, n, KNN_BLOCK_ROWS):
        stop = min(start + KNN_BLOCK_ROWS, n)
        sims = xn[start:stop] @ cand.T
        self_col = pos_of[np.arange(start, stop)]
        r, c = _topk_per_row(sims, k, candidates, self_col)
        rows_all.append(r + start)
        cols_all.append(c)
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)

    # union symmetrization: each selected pair in both directions, once
    keys = _distinct_keys(np.concatenate([rows * n + cols, cols * n + rows]))
    return SparseAdj.from_coo(n, keys // n, keys % n, np.ones(keys.size))


def edge_homophily(graph):
    """Fraction of undirected edges whose endpoints share a label; NaN for
    an edgeless graph."""
    if graph.labels is None:
        raise ValueError("missing labels")
    mask = graph.src < graph.dst
    if not mask.any():
        return float("nan")
    same = graph.labels[graph.src[mask]] == graph.labels[graph.dst[mask]]
    return float(same.mean())


def add_gaussian_noise(features, sigma, seed):
    """features + N(0, sigma^2) noise, deterministic per seed."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    x = np.asarray(features, dtype=np.float64)
    rng = np.random.default_rng(seed)
    return x + rng.normal(0.0, sigma, size=x.shape)
