"""Graph type, bundle I/O, normalization, kNN, homophily and noise tests."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from uniprompt import autodiff as ad
from uniprompt import graphs
from uniprompt.harness import generate_sbm
from uniprompt.graphs import (
    Graph,
    NormContext,
    ReceptiveField,
    SparseAdj,
    add_gaussian_noise,
    edge_homophily,
    graph_from_pairs,
    knn_prompt_init,
    load_graph_bundle,
    save_graph_bundle,
    symmetric_normalize,
)
from uniprompt.graphs import _normalized_rows

from fd_utils import to_scipy


def write_bundle(path, n, pairs, features, labels, num_classes, name="toy"):
    path.mkdir(parents=True, exist_ok=True)
    meta = {"num_nodes": n, "num_features": features.shape[1],
            "num_classes": num_classes, "name": name}
    (path / "meta.json").write_text(json.dumps(meta))
    lines = ["src,dst"] + [f"{s},{d}" for s, d in pairs]
    (path / "edges.csv").write_text("\n".join(lines) + "\n")
    (path / "features.csv").write_text(
        "\n".join(",".join(str(v) for v in row) for row in features) + "\n"
    )
    (path / "labels.csv").write_text("\n".join(str(v) for v in labels) + "\n")


@pytest.fixture
def toy_bundle(tmp_path):
    n = 6
    rng = np.random.default_rng(0)
    features = rng.normal(size=(n, 3))
    labels = [0, 0, 1, 1, 2, 2]
    pairs = [(0, 1), (1, 2), (3, 4), (5, 2), (2, 2)]  # includes a self-loop
    write_bundle(tmp_path / "toy", n, pairs, features, labels, 3)
    return tmp_path / "toy"


class TestLoadBundle:
    def test_symmetrizes_by_union_and_drops_self_loops(self, toy_bundle):
        g = load_graph_bundle(toy_bundle)
        edges = set(zip(g.src.tolist(), g.dst.tolist()))
        assert (5, 2) in edges and (2, 5) in edges
        assert (2, 2) not in edges
        assert g.num_undirected_edges == 4

    def test_missing_file(self, toy_bundle):
        (toy_bundle / "labels.csv").unlink()
        with pytest.raises(FileNotFoundError, match="labels.csv"):
            load_graph_bundle(toy_bundle)

    def test_row_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        write_bundle(tmp_path / "bad", 11, [(0, 1)], rng.normal(size=(10, 3)),
                     [0] * 11, 2)
        with pytest.raises(ValueError, match="row count mismatch"):
            load_graph_bundle(tmp_path / "bad")

    def test_index_out_of_range(self, tmp_path):
        rng = np.random.default_rng(0)
        write_bundle(tmp_path / "bad", 4, [(0, 9)], rng.normal(size=(4, 2)),
                     [0] * 4, 2)
        with pytest.raises(ValueError, match="out of range"):
            load_graph_bundle(tmp_path / "bad")

    def test_non_numeric_cell(self, tmp_path):
        rng = np.random.default_rng(0)
        write_bundle(tmp_path / "bad", 3, [(0, 1)], rng.normal(size=(3, 2)), [0, 0, 1], 2)
        (tmp_path / "bad" / "edges.csv").write_text("src,dst\n0,x\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_graph_bundle(tmp_path / "bad")

    def test_missing_header(self, tmp_path):
        rng = np.random.default_rng(0)
        write_bundle(tmp_path / "bad", 3, [(0, 1)], rng.normal(size=(3, 2)), [0, 0, 1], 2)
        (tmp_path / "bad" / "edges.csv").write_text("0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_graph_bundle(tmp_path / "bad")

    def test_non_integer_edge_cell(self, tmp_path):
        rng = np.random.default_rng(0)
        write_bundle(tmp_path / "bad", 3, [(0, 1)], rng.normal(size=(3, 2)), [0, 0, 1], 2)
        (tmp_path / "bad" / "edges.csv").write_text("src,dst\n0,1\n1,2.5\n")
        with pytest.raises(ValueError, match="edges.csv: non-numeric"):
            load_graph_bundle(tmp_path / "bad")

    def test_header_only_edges_give_an_edgeless_graph_silently(self, tmp_path):
        rng = np.random.default_rng(0)
        write_bundle(tmp_path / "bare", 3, [], rng.normal(size=(3, 2)), [0, 0, 1], 2)
        assert (tmp_path / "bare" / "edges.csv").read_text() == "src,dst\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_graph_bundle(tmp_path / "bare")
        assert g.src.size == 0 and g.num_nodes == 3

    @pytest.mark.parametrize("key", ["num_nodes", "num_features", "num_classes"])
    @pytest.mark.parametrize("value", [True, 4.9, "4"])
    def test_meta_counts_must_be_integers(self, toy_bundle, key, value):
        meta = json.loads((toy_bundle / "meta.json").read_text())
        meta[key] = value
        (toy_bundle / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"meta.json: {key} must be an integer"):
            load_graph_bundle(toy_bundle)

    def test_meta_must_be_an_object(self, toy_bundle):
        (toy_bundle / "meta.json").write_text("[6, 3, 3]")
        with pytest.raises(ValueError, match="meta.json must be a JSON object"):
            load_graph_bundle(toy_bundle)

    def test_fortran_ordered_npy_loads_row_major(self, toy_bundle):
        g = load_graph_bundle(toy_bundle)
        (toy_bundle / "features.csv").unlink()
        np.save(toy_bundle / "features.npy", np.asfortranarray(g.features))
        features = load_graph_bundle(toy_bundle).features
        assert features.flags.c_contiguous and np.array_equal(features, g.features)

    def test_save_load_roundtrip(self, toy_bundle, tmp_path):
        g = load_graph_bundle(toy_bundle)
        save_graph_bundle(g, tmp_path / "copy")
        g2 = load_graph_bundle(tmp_path / "copy")
        assert np.array_equal(g.src, g2.src)
        assert np.array_equal(g.dst, g2.dst)
        assert np.array_equal(g.features, g2.features)
        assert np.array_equal(g.labels, g2.labels)

    @pytest.mark.parametrize("source", ["toy", "sbm-300"])
    def test_npy_bundle_loads_as_its_csv_form(self, toy_bundle, tmp_path, source):
        if source == "toy":
            g = load_graph_bundle(toy_bundle)
        else:
            g = generate_sbm(300, 4, 0.1, 0.02, 16, 3.0, seed=7)
        save_graph_bundle(g, tmp_path / "npy")
        write_bundle(tmp_path / "csv", g.num_nodes, zip(g.src, g.dst), g.features,
                     g.labels, g.num_classes, name=g.name)
        assert {f.name for f in (tmp_path / "npy").iterdir()} == {
            "meta.json", "edges.npy", "labels.npy", "features.npy"}
        from_npy, from_csv = (load_graph_bundle(tmp_path / d) for d in ("npy", "csv"))
        for key in ("src", "dst", "features", "labels"):
            assert np.array_equal(getattr(from_npy, key), getattr(from_csv, key)), key
            assert np.array_equal(getattr(from_npy, key), getattr(g, key)), key

    def test_save_writes_one_int64_row_per_undirected_edge_and_the_labels(self, tmp_path):
        g = graph_from_pairs(4, [(0, 1), (3, 2)], np.zeros((4, 2)), [0, 1, 1, 0], 2)
        save_graph_bundle(g, tmp_path / "b")
        edges = np.load(tmp_path / "b" / "edges.npy", allow_pickle=False)
        labels = np.load(tmp_path / "b" / "labels.npy", allow_pickle=False)
        assert edges.dtype == np.int64 and edges.tolist() == [[0, 1], [2, 3]]
        assert labels.dtype == np.int64 and labels.tolist() == [0, 1, 1, 0]

    def test_save_over_a_csv_bundle_leaves_one_feature_file(self, toy_bundle):
        g = load_graph_bundle(toy_bundle)
        save_graph_bundle(g, toy_bundle)
        assert {f.name for f in toy_bundle.iterdir()} == {
            "meta.json", "edges.npy", "labels.npy", "features.npy"}
        loaded = load_graph_bundle(toy_bundle)
        for key in ("src", "dst", "features", "labels"):
            assert np.array_equal(getattr(loaded, key), getattr(g, key)), key

    def test_a_saved_bundle_loads_without_parsing_text(self, tmp_path, monkeypatch):
        g = generate_sbm(60, 3, 0.2, 0.02, 5, 3.0, seed=2)
        save_graph_bundle(g, tmp_path / "b")

        def parse(*args, **kwargs):
            raise AssertionError("a saved bundle was parsed as text")

        monkeypatch.setattr(np, "loadtxt", parse)
        monkeypatch.setattr(graphs, "_read_edges", parse)
        loaded = load_graph_bundle(tmp_path / "b")
        assert np.array_equal(loaded.src, g.src) and np.array_equal(loaded.dst, g.dst)


class TestGraphInvariants:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(3, [0], [1], np.zeros((3, 2)), None, 2)

    def test_rejects_asymmetric_edge_set_of_balanced_degrees(self):
        # a directed 3-cycle: every node has one edge out and one in
        with pytest.raises(ValueError, match="symmetric"):
            Graph(3, [0, 1, 2], [1, 2, 0], np.zeros((3, 2)), None, 2)

    @pytest.mark.parametrize("src, dst", [([0, 0, 1], [1, 1, 0]),
                                          ([1, 0, 2, 1, 0, 2], [0, 2, 0, 0, 1, 0])])
    def test_rejects_repeated_edge(self, src, dst):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, src, dst, np.zeros((3, 2)), None, 2)

    def test_rejects_nan_features(self):
        feats = np.zeros((2, 2))
        feats[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            Graph(2, [0, 1], [1, 0], feats, None, 2)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            Graph(2, [0, 1], [1, 0], np.zeros((2, 2)), [0, 5], 2)

    def test_arrays_immutable(self):
        g = graph_from_pairs(3, [(0, 1)], np.zeros((3, 2)), [0, 0, 1], 2)
        with pytest.raises(ValueError):
            g.src[0] = 2


class TestSparseAdj:
    def test_square_unless_given_a_column_count(self):
        adj = SparseAdj(2, [0, 1, 2], [1, 0], [1.0, 2.0])
        assert adj.n_cols == 2 and to_scipy(adj).shape == (2, 2)
        wide = SparseAdj(2, [0, 1, 2], [4, 0], [1.0, 2.0], n_cols=5)
        assert to_scipy(wide).shape == (2, 5) and wide.with_values([3.0, 4.0]).n_cols == 5
        with pytest.raises(ValueError, match="column index out of range"):
            SparseAdj(2, [0, 1, 2], [4, 0], [1.0, 2.0])

    def test_restrict_is_the_rows_over_the_columns_they_reach(self):
        rng = np.random.default_rng(5)
        rows, cols = np.nonzero(rng.random((12, 12)) < 0.2)
        adj = SparseAdj.from_coo(12, rows, cols, rng.uniform(0.5, 1.5, rows.size))
        picked = np.array([9, 0, 4, 9])  # unsorted, with a repeat
        sliced, pos, support = adj.restrict(picked)
        dense = to_scipy(adj).toarray()
        assert np.array_equal(support, np.flatnonzero(dense[picked].any(axis=0)))
        assert (sliced.n, sliced.n_cols) == (picked.size, support.size)
        assert np.array_equal(to_scipy(sliced).toarray(), dense[picked][:, support])
        assert np.array_equal(sliced.data, adj.data[pos])


def scipy_csr(n, rows, cols, vals):
    """The CSR arrays of scipy's public COO -> CSR conversion."""
    mat = sp.coo_matrix((np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def random_triplets(rng, n):
    """Triplets drawn from a few positions of half the rows, so rows stay
    empty and positions repeat, shuffled, with +0.0/-0.0 pairs among the
    repeats and a value sum whose bits depend on the summation order."""
    pool = rng.integers(0, n, size=(max(1, 2 * n), 2))
    pool[:, 0] = pool[:, 0] // 2 * 2  # odd rows stay empty (unless n == 1)
    picks = rng.integers(0, pool.shape[0], size=int(rng.integers(0, 4 * n + 2)))
    rows, cols = pool[picks, 0], pool[picks, 1]
    vals = rng.normal(size=picks.size) * 10.0 ** rng.integers(-8, 9, size=picks.size)
    zeros = rng.random(picks.size) < 0.2
    vals[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    order = rng.permutation(picks.size)
    return rows[order], cols[order], vals[order]


class TestFromCoo:
    """``SparseAdj.from_coo`` runs scipy's COO -> CSR kernels without the
    ``scipy.sparse`` package; the package's public API is the oracle."""

    @staticmethod
    def assert_bits(adj, mat):
        assert adj.indptr.tolist() == mat.indptr.tolist()
        assert adj.indices.tolist() == mat.indices.tolist()
        assert adj.data.tobytes() == mat.data.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_arrays_are_scipys_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(75):
            rows, cols, vals = random_triplets(rng, n)
            self.assert_bits(SparseAdj.from_coo(n, rows, cols, vals),
                             scipy_csr(n, rows, cols, vals))

    def test_signed_zero_duplicates_and_order_keep_scipys_sums(self):
        # one position holding -0.0 twice, one +0.0 and -0.0, and one whose
        # three values round differently in each order of summation
        rows = [1, 0, 1, 2, 2, 0, 2, 1]
        cols = [0, 2, 0, 1, 1, 2, 1, 2]
        vals = [-0.0, 0.0, -0.0, 1e16, 1.0, -0.0, -1e16, 3.0]
        adj = SparseAdj.from_coo(3, rows, cols, vals)
        self.assert_bits(adj, scipy_csr(3, rows, cols, vals))
        assert np.signbit(adj.data).tolist() == [False, True, False, False]

    def test_sorted_canonical_input_and_no_entries(self):
        adj = SparseAdj.from_coo(3, [0, 1, 1], [2, 0, 1], [1.0, 2.0, 3.0])
        self.assert_bits(adj, scipy_csr(3, [0, 1, 1], [2, 0, 1], [1.0, 2.0, 3.0]))
        empty = SparseAdj.from_coo(4, [], [], [])
        assert empty.nnz == 0 and empty.indptr.tolist() == [0] * 5

    @pytest.mark.parametrize("rows, cols, message", [
        ([0, -1], [1, 0], "row index out of range"),
        ([0, 1], [1, -1], "column index out of range"),
        ([0, 3], [1, 0], "row index out of range"),
        ([0, 1], [3, 0], "column index out of range"),
        ([0, 1, 2], [1, 0], "parallel"),
    ])
    def test_triplets_are_checked_before_the_kernels(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            SparseAdj.from_coo(3, rows, cols, np.ones(2))

    def test_values_of_another_length_and_float_indices_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            SparseAdj.from_coo(3, [0, 1], [1, 0], np.ones(3))
        with pytest.raises(ValueError, match="integers"):
            SparseAdj.from_coo(3, [0.0, 1.0], [1, 0], np.ones(2))


class TestReceptiveField:
    @staticmethod
    def operator(n=30, seed=4):
        rng = np.random.default_rng(seed)
        rows, cols = np.nonzero(rng.random((n, n)) < 0.08)
        return SparseAdj.from_coo(n, rows, cols, rng.uniform(0.5, 1.5, rows.size))

    def test_slices_are_the_two_restricts(self):
        adj = self.operator()
        inputs = ad.constant(np.random.default_rng(1).normal(size=(adj.n, 3)))
        field = ReceptiveField(adj, [7, 2, 19], inputs)
        layer2, pos2, s1 = adj.restrict([7, 2, 19])
        layer1, pos1, s2 = adj.restrict(s1)
        assert np.array_equal(field.s1, s1) and np.array_equal(field.s2, s2)
        for got, want in zip(field.layers, (layer1, layer2), strict=True):
            assert (got.n, got.n_cols) == (want.n, want.n_cols)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)
        assert all(np.array_equal(a, b) for a, b in zip(field.positions, (pos1, pos2)))
        assert s2.size < adj.n
        assert np.array_equal(field.inputs.data, inputs.data[s2])
        assert not field.inputs.requires_grad

    def test_inputs_of_every_node_are_not_copied(self):
        adj = symmetric_normalize(graph_from_pairs(
            5, [(0, 1), (1, 2), (2, 3), (3, 4)], np.zeros((5, 2)), None, 2).adjacency())
        inputs = ad.constant(np.arange(10.0).reshape(5, 2))
        field = ReceptiveField(adj, [2])
        assert field.inputs is None
        field = ReceptiveField(adj, [2], inputs)
        assert field.s2.tolist() == [0, 1, 2, 3, 4]
        assert field.inputs.data is inputs.data


class TestSymmetricNormalize:
    def test_two_node_single_edge_with_self_loops(self):
        adj = SparseAdj.from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        out = to_scipy(symmetric_normalize(adj)).toarray()
        assert np.allclose(out, 0.5)

    def test_isolated_node_diagonal_one(self):
        adj = SparseAdj.from_coo(3, [0, 1], [1, 0], [1.0, 1.0])
        out = to_scipy(symmetric_normalize(adj)).toarray()
        assert out[2, 2] == pytest.approx(1.0)

    def test_zero_degree_rows_stay_zero_without_self_loops(self):
        adj = SparseAdj.from_coo(3, [0, 1], [1, 0], [1.0, 1.0])
        out = NormContext(adj, add_self_loops=False).normalize(adj.data)
        dense = to_scipy(out).toarray()
        assert np.all(dense[2] == 0.0)
        assert dense[0, 1] == pytest.approx(1.0)

    def test_path_graph_matches_dense_oracle(self):
        adj = SparseAdj.from_coo(3, [0, 1, 1, 2], [1, 0, 2, 1], np.ones(4))
        out = to_scipy(symmetric_normalize(adj)).toarray()
        dense = to_scipy(adj).toarray() + np.eye(3)
        d = dense.sum(axis=1)
        oracle = dense / np.sqrt(np.outer(d, d))
        assert np.abs(out - oracle).max() < 1e-12

    def test_negative_weight_rejected(self):
        adj = SparseAdj.from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        bad = adj.with_values(np.array([-1.0, -1.0]))
        with pytest.raises(ValueError, match="negative"):
            symmetric_normalize(bad)

    def test_self_loops_rejected(self):
        adj = SparseAdj.from_coo(2, [0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="already contains self-loops"):
            symmetric_normalize(adj)
        g = Graph(2, [0, 0, 1], [0, 1, 0], np.zeros((2, 2)), None, 2)
        with pytest.raises(ValueError, match="already contains self-loops"):
            g.normalized_adjacency()

    def test_graph_operator_built_once(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2)], np.zeros((4, 2)), None, 2)
        op = g.normalized_adjacency()
        assert g.normalized_adjacency() is op
        assert op.data.tobytes() == symmetric_normalize(g.adjacency()).data.tobytes()

    @pytest.mark.parametrize("add_self_loops", [True, False])
    def test_whole_operator_peak_memory_is_bounded(self, add_self_loops):
        # reads over every entry need no copy of the support's indices:
        # about 7 (8 without self-loops) float64 arrays of the operator's nnz
        # at the peak, against 11 when every index was gathered first
        rng = np.random.default_rng(0)
        n = 500
        rows = np.repeat(np.arange(n), 20)
        cols = (rows + rng.integers(1, n, size=rows.size)) % n
        keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
        adj = SparseAdj.from_coo(n, keys // n, keys % n, rng.random(keys.size))
        ctx = NormContext(adj, add_self_loops)
        tracemalloc.start()
        try:
            ctx.normalize(adj.data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.5 * 8 * ctx.norm_pattern.nnz

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=10**6))
    def test_random_graphs_match_dense_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        mask = np.triu(rng.random((n, n)) < 0.3, k=1)
        rows, cols = np.nonzero(mask | mask.T)
        adj = SparseAdj.from_coo(n, rows, cols, np.ones(rows.size))
        out = to_scipy(symmetric_normalize(adj)).toarray()
        dense = to_scipy(adj).toarray() + np.eye(n)
        d = dense.sum(axis=1)
        oracle = dense / np.sqrt(np.outer(d, d))
        assert np.abs(out - oracle).max() < 1e-12


def knn_similarity(a, b):
    """The cosine similarity by which the kNN support ranks b for a: the
    product of the ``_normalized_rows`` it builds, as ``knn_prompt_init``
    takes it."""
    xn = _normalized_rows(np.array([a, b], dtype=np.float64))
    return (xn[:1] @ xn.T)[0, 1]


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert knn_similarity([1, 0], [0, 1]) == 0.0

    def test_parallel(self):
        assert knn_similarity([1, 1], [2, 2]) == pytest.approx(1.0)

    def test_hand_computed(self):
        # (1,2,0).(0,1,1) = 2; norms sqrt(5), sqrt(2)
        expected = 2.0 / np.sqrt(10.0)
        assert knn_similarity([1, 2, 0], [0, 1, 1]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6325, abs=1e-4)

    def test_zero_norm_returns_zero(self):
        assert knn_similarity([0, 0], [1, 2]) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
           st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    def test_symmetric_and_bounded(self, a, b):
        size = min(len(a), len(b))
        a, b = a[:size], b[:size]
        s1 = knn_similarity(a, b)
        s2 = knn_similarity(b, a)
        assert s1 == pytest.approx(s2, abs=1e-12)
        assert -1.0 - 1e-12 <= s1 <= 1.0 + 1e-12

    def test_extreme_magnitudes_keep_unit_similarity(self):
        # squares of 1e-159 underflow and of 1e300 overflow inside the norm;
        # unrescaled, these pairs read 1.00000093 and 0.0
        assert knn_similarity([1.0551537179735328e-159, 0.0], [1.0, 0.0]) == 1.0
        assert knn_similarity([1e300, 0.0], [1.0, 0.0]) == 1.0

    @pytest.mark.parametrize("block", [graphs.KNN_BLOCK_ROWS, 7, 1])
    def test_rows_keep_the_bits_of_abs_max_and_linalg_norm(self, monkeypatch, block):
        # the peak and the norms are taken without np.abs's and
        # np.linalg.norm's n x F copies, the squares a block of rows at a
        # time; the one-shot expressions they replace:
        monkeypatch.setattr(graphs, "KNN_BLOCK_ROWS", block)
        def composed(x):
            peak = np.abs(x).max(axis=1, keepdims=True)
            extreme = (peak > 0) & ((peak < 2.0**-500) | (peak > 2.0**500))
            if extreme.any():
                x = np.where(extreme, x / np.where(extreme, peak, 1.0), x)
            norms = np.linalg.norm(x, axis=1, keepdims=True)
            out = np.zeros_like(x)
            np.divide(x, norms, out=out, where=norms > 0)
            return out

        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 64))
        x[4] = 0.0
        x[5] = -0.0
        x[6, :32] = 0.0
        x[7] = -np.abs(x[7])  # a row whose peak is its minimum
        mixed = x * np.where(np.arange(300) % 3 == 0, 1e-300, 1e200)[:, None]
        for rows in (x, x * 1e-300, x * 1e200, mixed):
            assert _normalized_rows(rows).tobytes() == composed(rows).tobytes()


class TestKnnPromptInit:
    def test_three_node_example(self):
        # features e1, e1, e2: nodes 0/1 pick each other at similarity 1;
        # node 2 ties at 0 and picks node 0; union-symmetrized, every entry 1
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        adj = knn_prompt_init(x, 1)
        entries = set(zip(adj.row_ids().tolist(), adj.indices.tolist()))
        assert entries == {(0, 1), (1, 0), (2, 0), (0, 2)}
        assert np.array_equal(adj.data, np.ones(4))

    def test_full_k_gives_complete_graph(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        adj = knn_prompt_init(x, 4)
        assert adj.nnz == 5 * 4

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="k out of range"):
            knn_prompt_init(np.ones((3, 2)), 0)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="k out of range"):
            knn_prompt_init(np.ones((3, 2)), 3)

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            knn_prompt_init(np.zeros((0, 2)), 1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(12, 4))
        k = 3
        adj = knn_prompt_init(x, k)
        # brute-force oracle over all pairs
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        sims = xn @ xn.T
        expected = set()
        for i in range(12):
            order = sorted(
                (j for j in range(12) if j != i),
                key=lambda j: (-sims[i, j], j),
            )[:k]
            expected |= {(i, j) for j in order} | {(j, i) for j in order}
        assert set(zip(adj.row_ids().tolist(), adj.indices.tolist())) == expected
        assert np.array_equal(adj.data, np.ones(adj.nnz))

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_at_the_kth_value_keep_the_smallest_columns(self, seed):
        # features from {-1, 0, 1}^3 tie often, so many rows hold more than
        # k candidates at their k-th similarity
        rng = np.random.default_rng(seed)
        x = rng.integers(-1, 2, size=(40, 3)).astype(float)
        k = 3
        xn = _normalized_rows(x)
        sims = xn @ xn.T
        expected = set()
        for i in range(40):
            order = sorted((j for j in range(40) if j != i), key=lambda j: (-sims[i, j], j))[:k]
            expected |= {(i, j) for j in order} | {(j, i) for j in order}
        adj = knn_prompt_init(x, k)
        assert set(zip(adj.row_ids().tolist(), adj.indices.tolist())) == expected

    def test_blocks_of_rows_give_the_one_block_selection(self, monkeypatch):
        x = np.random.default_rng(5).integers(-1, 2, size=(40, 3)).astype(float)
        whole = knn_prompt_init(x, 3)
        monkeypatch.setattr(graphs, "KNN_BLOCK_ROWS", 7)
        blocked = knn_prompt_init(x, 3)
        assert np.array_equal(blocked.indptr, whole.indptr)
        assert np.array_equal(blocked.indices, whole.indices)

    @pytest.mark.parametrize("block, select", [(64, 5), (16, 3)])
    def test_selection_chunks_give_the_one_chunk_selection(self, monkeypatch, block, select):
        # tie-heavy rows, selected a few at a time inside each block
        x = np.random.default_rng(5).integers(-1, 2, size=(40, 3)).astype(float)
        whole = knn_prompt_init(x, 3)
        monkeypatch.setattr(graphs, "KNN_BLOCK_ROWS", block)
        monkeypatch.setattr(graphs, "KNN_SELECT_ROWS", select)
        chunked = knn_prompt_init(x, 3)
        assert np.array_equal(chunked.indptr, whole.indptr)
        assert np.array_equal(chunked.indices, whole.indices)

    def test_peak_memory_is_one_similarity_block_beside_the_features(self):
        # the similarities go into one reused block, negated in place, and
        # the k-th values are taken a few rows at a time: about one block
        # beside the normalized features, against four before
        rng = np.random.default_rng(7)
        n, width, k = 1100, 300, 10
        x = (rng.random((n, width)) < 0.05) + rng.normal(0.0, 0.3, size=(n, width))
        block_bytes = min(graphs.KNN_BLOCK_ROWS, n) * n * 8
        tracemalloc.start()
        try:
            knn_prompt_init(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes + 1.5 * block_bytes

    def test_row_degree_at_least_k_after_symmetrization(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 5))
        k = 4
        adj = knn_prompt_init(x, k)
        degrees = np.diff(adj.indptr)
        assert (degrees >= k).all()


class TestEdgeHomophily:
    def test_single_class_is_one(self):
        g = graph_from_pairs(4, [(0, 1), (2, 3)], np.zeros((4, 2)), [0, 0, 0, 0], 1)
        assert edge_homophily(g) == 1.0

    def test_two_nodes_different_labels(self):
        g = graph_from_pairs(2, [(0, 1)], np.zeros((2, 2)), [0, 1], 2)
        assert edge_homophily(g) == 0.0

    def test_missing_labels(self):
        g = graph_from_pairs(2, [(0, 1)], np.zeros((2, 2)), None, 2)
        with pytest.raises(ValueError, match="missing labels"):
            edge_homophily(g)

    def test_empty_edges_is_nan(self):
        g = graph_from_pairs(3, [], np.zeros((3, 2)), [0, 1, 0], 2)
        assert np.isnan(edge_homophily(g))

    def test_invariant_under_node_permutation(self):
        rng = np.random.default_rng(9)
        n = 15
        pairs = [(i, (i + 1) % n) for i in range(n)] + [(0, 7), (3, 11)]
        labels = rng.integers(0, 3, size=n)
        feats = rng.normal(size=(n, 2))
        g = graph_from_pairs(n, pairs, feats, labels, 3)
        # relabel node i -> perm[i]; labels follow the relabeling
        perm = rng.permutation(n)
        permuted_pairs = [(perm[a], perm[b]) for a, b in pairs]
        labels2 = np.empty(n, dtype=int)
        labels2[perm] = labels
        g2 = graph_from_pairs(n, permuted_pairs, feats, labels2, 3)
        assert edge_homophily(g2) == edge_homophily(g)


class TestGaussianNoise:
    def test_sigma_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert np.array_equal(add_gaussian_noise(x, 0.0, seed=1), x)

    def test_deterministic_per_seed(self):
        x = np.ones((6, 6))
        a = add_gaussian_noise(x, 0.3, seed=11)
        b = add_gaussian_noise(x, 0.3, seed=11)
        assert np.array_equal(a, b)

    def test_bits_of_x_plus_noise(self):
        # the features are added into the noise buffer in place
        x = np.random.default_rng(0).normal(size=(40, 30))
        x[0] = -0.0
        expected = x + np.random.default_rng(9).normal(0.0, 0.3, size=x.shape)
        assert add_gaussian_noise(x, 0.3, seed=9).tobytes() == expected.tobytes()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            add_gaussian_noise(np.ones((2, 2)), -0.1, seed=0)

    def test_sample_std_matches_level(self):
        # law of large numbers on 10^6 draws
        x = np.zeros((1000, 1000))
        noisy = add_gaussian_noise(x, 0.2, seed=3)
        assert abs((noisy - x).std() - 0.2) < 0.002
