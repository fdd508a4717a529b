"""Tape, op, loss, optimizer and checkpoint tests."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from uniprompt import autodiff as ad
from uniprompt.autodiff import LOG_EPS, _accum, _node
from uniprompt.graphs import SparseAdj

from fd_utils import OP_CASES, fd_check_op, to_scipy, total


class TestTensor:
    def test_scalars_become_1x1(self):
        t = ad.constant(3.0)
        assert t.shape == (1, 1)

    def test_vectors_become_columns(self):
        t = ad.constant(np.arange(4.0))
        assert t.shape == (4, 1)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            ad.Tensor(np.zeros((2, 2, 2)))

    def test_detach_drops_grad_tracking(self):
        p = ad.parameter(np.ones((2, 2)))
        assert not p.detach().requires_grad


class TestBackward:
    def test_root_must_be_scalar(self):
        p = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.scalar_scale(p, 2.0))

    def test_linear_map_outer_product_pattern(self):
        # root = sum(W @ h): grad of W is h broadcast across rows
        w = ad.parameter(np.zeros((3, 4)))
        h = np.arange(4.0).reshape(4, 1)
        loss = total(ad.matmul(w, ad.constant(h)))
        ad.backward(loss)
        assert np.allclose(w.grad, np.tile(h.T, (3, 1)))

    def test_disconnected_parameter_gets_zero_gradient(self):
        p = ad.parameter(np.ones((2, 2)))
        q = ad.parameter(np.ones((2, 2)))
        loss = total(p)
        grads = ad.backward(loss, params=[p, q])
        assert np.allclose(grads[q], 0.0)
        assert np.allclose(grads[p], 1.0)

    def test_reused_node_accumulates_once_per_path(self):
        p = ad.parameter(np.full((1, 1), 3.0))
        loss = total(ad.add(p, p))  # d/dp (2p) = 2
        ad.backward(loss)
        assert p.grad[0, 0] == pytest.approx(2.0)

    def test_first_contribution_is_a_copy_with_zeros_plus_bits(self):
        t = ad.parameter(np.ones((1, 3)))
        grad = np.array([[-0.0, 1.5, -2.0]])
        _accum(t, grad)
        assert t.grad is not grad
        assert t.grad.tobytes() == (np.zeros((1, 3)) + grad).tobytes()
        grad[0, 1] = 7.0
        assert t.grad[0, 1] == 1.5
        _accum(t, grad)
        assert t.grad.tolist() == [[0.0, 8.5, -4.0]]

    @pytest.mark.parametrize("shape", [(1, 3), (2, 1), (3, 2)])
    def test_gradient_of_another_shape_rejected(self, shape):
        t = ad.parameter(np.ones((2, 3)))
        for _ in range(2):  # on the first contribution and on a later one
            with pytest.raises(ValueError, match="gradient shape"):
                _accum(t, np.ones(shape))
            t.grad = np.zeros((2, 3))

    def test_constant_subgraph_is_pruned(self):
        a = ad.constant(np.ones((2, 2)))
        out = ad.matmul(a, ad.constant(np.ones((2, 2))))
        assert out._backward_fn is None and not out.requires_grad

    def test_repeated_backward_on_fresh_tapes_is_deterministic(self):
        def run():
            p = ad.parameter(np.linspace(-1, 1, 6).reshape(2, 3))
            loss = total(ad.sigmoid(ad.matmul(p, ad.constant(np.ones((3, 2))))))
            ad.backward(loss)
            return p.grad.copy()

        assert np.array_equal(run(), run())

    def test_large_tape_is_released_small_tape_kept(self, monkeypatch):
        def run():
            w = ad.parameter(np.linspace(-1, 1, 6).reshape(2, 3))
            x = ad.parameter(np.ones((3, 2)))
            h = ad.matmul(w, x)
            mid = ad.sigmoid(h)
            loss = total(mid)
            grads = ad.backward(loss, params=[w, mid])
            return w, x, h, mid, loss, grads

        w, x, h, mid, loss, kept = run()
        assert all(t.grad is not None for t in (w, x, h, mid, loss))
        assert h._backward_fn is not None and h._parents == (w, x)

        monkeypatch.setattr(ad, "RELEASE_TAPE_BYTES", 0)
        w, x, h, mid, loss, released = run()
        for node in (h, mid, loss):
            assert node._backward_fn is None and node._parents == ()
        assert h.grad is None and loss.grad is None
        # the leaves and the tensors named in params keep their gradients
        assert x.grad is not None
        assert released[mid] is mid.grad and released[w] is w.grad
        assert all(np.array_equal(a, b) for a, b in zip(kept.values(), released.values()))


class TestFiniteDifferences:
    def test_every_registered_op_has_a_case(self):
        assert set(OP_CASES) == set(ad.REGISTERED_OPS)

    @pytest.mark.parametrize("name", sorted(ad.REGISTERED_OPS))
    def test_analytic_matches_central_differences(self, name):
        assert fd_check_op(name, instances=5) <= 0.0

    def test_every_registered_op_is_called_by_the_engine(self):
        # so the sweep checks only ops the program runs; an op that only the
        # tests use lives in the tests
        package = Path(ad.__file__).parent
        engine = "".join(p.read_text() for p in sorted(package.glob("*.py"))
                         if p.name != "autodiff.py")
        assert [op for op in ad.REGISTERED_OPS
                if not re.search(rf"\bad\.{op}\(", engine)] == []


# The small ops that GRACE composed its loss from before ``ad.info_nce``
# fused it. Nothing in the engine calls them, so they live here as parts of
# that op's oracle.


def take_diag(a):
    n, c = a.shape
    if n != c:
        raise ValueError(f"take_diag needs a square tensor, got {a.shape}")

    def bw(go):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            np.fill_diagonal(g, go[:, 0])
            _accum(a, g)

    return _node(np.diag(a.data).reshape(-1, 1), (a,), bw)


def exp(a):
    out_data = np.exp(a.data)

    def bw(go):
        if a.requires_grad:
            _accum(a, go * out_data)

    return _node(out_data, (a,), bw)


def log(a):
    """log(x + 1e-12); the floor keeps zero inputs finite."""
    shifted = a.data + LOG_EPS

    def bw(go):
        if a.requires_grad:
            _accum(a, go / shifted)

    return _node(np.log(shifted), (a,), bw)


def composed_info_nce(z1, z2, temperature):
    """The symmetric InfoNCE as GRACE built it from small ops before the
    fused ``ad.info_nce``: the oracle that op must match bit for bit."""
    inv_t = 1.0 / temperature
    s12 = ad.scalar_scale(ad.matmul(z1, ad.transpose(z2)), inv_t)
    s11 = ad.scalar_scale(ad.matmul(z1, ad.transpose(z1)), inv_t)
    s22 = ad.scalar_scale(ad.matmul(z2, ad.transpose(z2)), inv_t)

    def directed(cross, intra):
        pos = take_diag(cross)
        denom = ad.add(
            ad.row_sum(exp(cross)),
            ad.sub(ad.row_sum(exp(intra)), exp(take_diag(intra))),
        )
        return ad.row_mean(ad.sub(log(denom), pos))

    return ad.scalar_scale(
        ad.add(directed(s12, s11), directed(ad.transpose(s12), s22)), 0.5
    )


class TestInfoNce:
    @staticmethod
    def loss_and_grads(loss_fn, a, b, temperature, normalize, requires=(True, True)):
        leaves = [ad.Tensor(x, requires_grad=r) for x, r in zip((a, b), requires)]
        views = [ad.l2_normalize_rows(t) if normalize else t for t in leaves]
        loss = loss_fn(*views, temperature)
        ad.backward(loss)
        return [loss.data] + [t.grad for t in leaves]

    @pytest.mark.parametrize("limit", [ad.RELEASE_TAPE_BYTES, 0])
    @pytest.mark.parametrize("n, d", [(2, 3), (7, 4), (60, 16)])
    def test_bit_identical_to_composed_ops(self, monkeypatch, n, d, limit):
        monkeypatch.setattr(ad, "RELEASE_TAPE_BYTES", limit)
        rng = np.random.default_rng([n, d])
        for temperature in (0.2, 0.5, 1.0):
            for normalize in (True, False):
                a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
                fused = self.loss_and_grads(ad.info_nce, a, b, temperature, normalize)
                oracle = self.loss_and_grads(composed_info_nce, a, b, temperature, normalize)
                for got, want in zip(fused, oracle):
                    assert np.array_equal(got, want), (temperature, normalize)

    @pytest.mark.parametrize("requires", [(True, False), (False, True)])
    def test_one_sided_gradient_matches_composed_ops(self, requires):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        fused = self.loss_and_grads(ad.info_nce, a, b, 0.5, False, requires)
        oracle = self.loss_and_grads(composed_info_nce, a, b, 0.5, False, requires)
        for got, want in zip(fused, oracle):
            assert (got is None and want is None) or np.array_equal(got, want)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ad.info_nce(ad.constant(np.ones((3, 2))), ad.constant(np.ones((2, 2))), 0.5)


class TestOpValues:
    def test_elu_at_zero_and_saturation(self):
        out = ad.elu(ad.constant(np.array([[0.0, -745.0, 2.0]])))
        assert out.data[0, 0] == 0.0
        assert out.data[0, 1] == pytest.approx(-1.0)
        assert out.data[0, 2] == 2.0

    def test_spmm_matches_dense_oracle(self):
        # normalized 2-node complete adjacency
        adj = SparseAdj.from_coo(2, [0, 1], [1, 0], [0.5, 0.5])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.spmm(adj, ad.constant(x))
        dense = to_scipy(adj).toarray() @ x
        assert np.abs(out.data - dense).max() < 1e-12

    def test_spmm_shape_mismatch(self):
        adj = SparseAdj.from_coo(2, [0], [1], [1.0])
        with pytest.raises(ValueError, match="adjacency 2 x 2"):
            ad.spmm(adj, ad.constant(np.ones((3, 2))))
        sliced, _, support = adj.restrict([0])
        assert (sliced.n, sliced.n_cols, support.tolist()) == (1, 1, [1])
        with pytest.raises(ValueError, match="adjacency 1 x 1"):
            ad.spmm(sliced, ad.constant(np.ones((2, 2))))
        with pytest.raises(ValueError, match="out of range"):
            adj.restrict([2])

    @staticmethod
    def sliced_operator(taped):
        rng = np.random.default_rng(11)
        mask = rng.random((40, 40)) < 0.15
        rows, cols = np.nonzero(mask)
        pattern = SparseAdj.from_coo(40, rows, cols, np.ones(rows.size))
        values = ad.Tensor(rng.uniform(0.1, 1.0, size=(pattern.nnz, 1)), requires_grad=taped)
        x = ad.Tensor(rng.normal(size=(40, 5)), requires_grad=taped)
        return pattern, values, x, np.array([31, 2, 17, 30, 5])

    @staticmethod
    def restricted_product(adj, x, rows):
        """The rows' slice of ``adj`` times x at the columns it reaches; a
        SparseTensor's slice gathers its values on the tape."""
        if isinstance(adj, ad.SparseTensor):
            sliced, pos, support = adj.pattern.restrict(rows)
            sliced = ad.SparseTensor(sliced, ad.gather_rows(adj.values, pos))
        else:
            sliced, _, support = adj.restrict(rows)
        return ad.spmm(sliced, ad.gather_rows(x, support))

    @pytest.mark.parametrize("taped", [False, True])
    def test_spmm_row_slice_is_those_rows_bit_for_bit(self, taped):
        pattern, values, x, rows = self.sliced_operator(taped)
        adj = ad.SparseTensor(pattern, values) if taped else pattern.with_values(values.data[:, 0])
        full = ad.spmm(adj, x).data[rows]
        assert np.array_equal(self.restricted_product(adj, x, rows).data, full)

    def test_spmm_row_slice_gradients_match_the_full_product(self):
        pattern, values, x, rows = self.sliced_operator(True)
        adj = ad.SparseTensor(pattern, values)
        proj = ad.constant(np.random.default_rng(2).normal(size=(rows.size, 5)))
        full = ad.backward(total(ad.hadamard(ad.gather_rows(ad.spmm(adj, x), rows), proj)),
                           params=[values, x])
        sliced = ad.backward(total(ad.hadamard(self.restricted_product(adj, x, rows), proj)),
                             params=[values, x])
        for t in (values, x):
            np.testing.assert_allclose(sliced[t], full[t], rtol=1e-12, atol=1e-12)
        outside = np.ones(pattern.nnz, dtype=bool)
        outside[pattern.row_slice(rows)[0]] = False
        assert outside.any() and (sliced[values][outside] == 0.0).all()

    @staticmethod
    def spmm_cases():
        """{name: (pattern, x)}: square and rectangular operators, a zero-nnz
        pattern, empty rows, and x one column wide, Fortran-ordered or a
        transposed view."""
        rng = np.random.default_rng(17)
        mask = rng.random((30, 30)) < 0.2
        mask[[3, 11, 29]] = False  # empty rows
        rows, cols = np.nonzero(mask)
        square = SparseAdj.from_coo(30, rows, cols, np.ones(rows.size))
        rect, _, support = square.restrict(np.array([29, 4, 17, 3, 8]))
        empty = SparseAdj(4, np.zeros(5), [], [], n_cols=3)
        x = lambda m, k: rng.normal(size=(m, k))
        return {
            "square": (square, x(30, 4)),
            "rectangular": (rect, x(support.size, 3)),
            "zero-nnz": (empty, x(3, 2)),
            "one-column": (square, x(30, 1)),
            "fortran": (rect, np.asfortranarray(x(support.size, 5))),
            "transposed": (square, x(6, 30).T),
        }

    @pytest.mark.parametrize("name", ["square", "rectangular", "zero-nnz", "one-column",
                                      "fortran", "transposed"])
    def test_spmm_bits_are_scipys_public_product(self, name):
        pattern, x = self.spmm_cases()[name]
        rng = np.random.default_rng(5)
        v = rng.uniform(-1.0, 1.0, size=(pattern.nnz, 1))
        values = ad.parameter(v)
        xt = ad.parameter(x)
        out = ad.spmm(ad.SparseTensor(pattern, values), xt)
        mat = to_scipy(pattern, v[:, 0])
        assert np.array_equal(out.data, mat @ x), name
        assert np.array_equal(ad.spmm(pattern.with_values(v[:, 0]), ad.constant(x)).data,
                              mat @ x), name
        rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
        for go in (rng.normal(size=out.shape), rng.normal(size=out.shape[::-1]).T):
            values.grad = xt.grad = None
            out._backward_fn(go)
            assert np.array_equal(xt.grad, mat.T @ go), name
            assert np.array_equal(values.grad[:, 0], (go @ x.T)[rows, pattern.indices]), name

    def test_spmm_values_gradient_per_edge_above_the_dense_limit(self, monkeypatch):
        """Past 16,777,216 output rows x x rows, the values gradient is taken
        per entry, in chunks of 65,536 entries; this pattern spans two."""
        n = 4200
        rng = np.random.default_rng(23)
        rows, cols = rng.integers(0, n, size=(2, 70_500))
        pattern = SparseAdj.from_coo(n, rows, cols, np.ones(rows.size))
        assert n * n > 16_777_216 and pattern.nnz > 65_536
        monkeypatch.setattr(SparseAdj, "flat_index", lambda self: pytest.fail("dense path"))
        v = rng.uniform(-1.0, 1.0, size=(pattern.nnz, 1))
        x, go = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        values, xt = ad.parameter(v), ad.parameter(x)
        ad.spmm(ad.SparseTensor(pattern, values), xt)._backward_fn(go)
        i, j = pattern.row_ids(), pattern.indices
        np.testing.assert_allclose(values.grad[:, 0], (go[i] * x[j]).sum(axis=1),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(xt.grad, to_scipy(pattern, v[:, 0]).T @ go,
                                   rtol=1e-12, atol=1e-12)

        def loss(values):
            out = ad.spmm(ad.SparseTensor(pattern, ad.constant(values)), ad.constant(x))
            return float((out.data * go).sum())

        h = 1e-3
        for e in (0, 65_535, 65_536, pattern.nnz - 1):
            up, down = v.copy(), v.copy()
            up[e] += h
            down[e] -= h
            fd = (loss(up) - loss(down)) / (2 * h)
            assert values.grad[e, 0] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_spmm_rejects_values_the_kernel_cannot_read(self):
        pattern = SparseAdj.from_coo(3, [0, 1, 2], [1, 2, 0], np.ones(3))
        strided = ad.constant(np.ones((3, 2))[:, :1])
        with pytest.raises(ValueError, match="contiguous"):
            ad.spmm(ad.SparseTensor(pattern, strided), ad.constant(np.ones((3, 2))))
        values = ad.constant(np.ones((3, 1)))
        adj = ad.SparseTensor(pattern, values)
        values.data = np.ones((2, 1))
        with pytest.raises(ValueError, match="one per entry"):
            ad.spmm(adj, ad.constant(np.ones((3, 2))))

    def test_gather_rows_distinct_ids_scatter_with_add_at_bits(self):
        go = np.random.default_rng(4).normal(size=(3, 2))
        go[0, 0] = -0.0
        for ids in ([4, 0, 2], [4, 0, 4]):
            a = ad.parameter(np.ones((6, 2)))
            ad.gather_rows(a, ids)._backward_fn(go)
            expected = np.zeros((6, 2))
            np.add.at(expected, ids, go)
            assert a.grad.tobytes() == (np.zeros((6, 2)) + expected).tobytes(), ids

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_log_floor_keeps_zero_finite(self):
        out = log(ad.constant(np.zeros((1, 1))))
        assert np.isfinite(out.data).all()


class TestCrossEntropy:
    def test_uniform_logits_gives_log_c(self):
        loss = ad.cross_entropy(ad.constant(np.zeros((2, 3))), np.array([0, 2]))
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_one_hot_saturation(self):
        logits = np.zeros((1, 4))
        logits[0, 1] = 1000.0
        loss = ad.cross_entropy(ad.constant(logits), np.array([1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 3))
        targets = np.array([1, 0, 2, 2])
        expected = 0.0
        for i in range(4):
            denom = sum(math.exp(v) for v in logits[i])
            expected += -math.log(math.exp(logits[i, targets[i]]) / denom)
        expected /= 4
        loss = ad.cross_entropy(ad.constant(logits), targets)
        assert loss.item() == pytest.approx(expected, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = rng.normal(size=(5, 4)) * 10
            targets = rng.integers(0, 4, size=5)
            assert ad.cross_entropy(ad.constant(logits), targets).item() >= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ad.cross_entropy(ad.constant(np.zeros((0, 3))), np.array([], dtype=int))


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = ad.parameter(np.ones((2, 2)))
        state = ad.AdamState([p], lr=0.1)
        before = p.data.copy()
        ad.adam_step(state, grads={p: np.zeros((2, 2))})
        assert np.array_equal(p.data, before)

    def test_degenerate_betas_give_signed_step(self, monkeypatch):
        monkeypatch.setattr(ad, "ADAM_BETA1", 0.0)
        monkeypatch.setattr(ad, "ADAM_BETA2", 0.0)
        p = ad.parameter(np.array([[5.0]]))
        state = ad.AdamState([p], lr=0.1)
        ad.adam_step(state, grads={p: np.array([[2.0]])})
        # p <- p - lr * g / (|g| + eps), i.e. a step of ~lr
        assert p.data[0, 0] == pytest.approx(5.0 - 0.1, abs=1e-8)

    def test_quadratic_converges(self):
        # oracle: run the same scalar recurrence independently
        def adam_scalar(steps, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
            w, m, v = 0.0, 0.0, 0.0
            for t in range(1, steps + 1):
                g = 2.0 * (w - 3.0)
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                w -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            return w

        expected = adam_scalar(100)
        p = ad.parameter(np.array([[0.0]]))
        state = ad.AdamState([p], lr=0.1)
        for _ in range(100):
            diff = ad.add(p, ad.constant(np.array([[-3.0]])))
            loss = total(ad.hadamard(diff, diff))
            ad.backward(loss)
            ad.adam_step(state)
            p.grad = None
        assert p.data[0, 0] == pytest.approx(expected, abs=1e-12)
        assert abs(p.data[0, 0] - 3.0) < 0.1


    @staticmethod
    def reference_adam(data, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
        """The oracle: each parameter updated on its own moments, step by
        step; a None gradient counts as zeros."""
        data = [d.copy() for d in data]
        m = [np.zeros_like(d) for d in data]
        v = [np.zeros_like(d) for d in data]
        for t, grads in enumerate(grad_steps, start=1):
            for i, g in enumerate(grads):
                g = np.zeros_like(data[i]) if g is None else g
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                data[i] = data[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        return data

    @staticmethod
    def mixed_problem(seed):
        rng = np.random.default_rng(seed)
        shapes = [(3, 4), (1, 1), (5, 1), (1, 6), (2, 3)]
        data = [rng.normal(size=s) for s in shapes]
        data[4] = np.asfortranarray(data[4])
        grad_steps = [[rng.normal(size=s) * 10.0 ** rng.integers(-4, 3) for s in shapes]
                      for _ in range(5)]
        for step, i in ((0, 1), (2, 3), (3, 1)):
            grad_steps[step][i] = None
        grad_steps[4][0] = grad_steps[4][0].T.copy().T  # a Fortran-ordered gradient
        return data, grad_steps

    @pytest.mark.parametrize("via", ["grads", "attribute"])
    def test_flat_update_matches_per_parameter_oracle_bit_for_bit(self, via):
        data, grad_steps = self.mixed_problem(3)
        params = [ad.parameter(d.copy(), name=f"p{i}") for i, d in enumerate(data)]
        state = ad.AdamState(params, lr=0.05)
        held = [p.data for p in params]
        for grads in grad_steps:
            if via == "grads":
                ad.adam_step(state, grads=dict(zip(params, grads)))
            else:
                for p, g in zip(params, grads):
                    p.grad = g
                ad.adam_step(state)
        want = self.reference_adam(data, grad_steps, lr=0.05)
        for p, w in zip(params, want):
            assert p.data.tobytes() == w.tobytes(), p.name
        # p.data is rebound, never written: arrays held elsewhere keep their values
        for h, d in zip(held, data):
            assert np.array_equal(h, d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_changes_nothing(self, bad):
        data, grad_steps = self.mixed_problem(4)
        params = [ad.parameter(d.copy(), name=f"p{i}") for i, d in enumerate(data)]
        state = ad.AdamState(params, lr=0.05)
        ad.adam_step(state, grads=dict(zip(params, grad_steps[0])))
        before = [p.data for p in params], state.m.copy(), state.v.copy()
        grads = grad_steps[1]
        grads[3] = grads[3].copy()
        grads[3][0, 2] = bad
        with pytest.raises(RuntimeError, match="'p3'"):
            ad.adam_step(state, grads=dict(zip(params, grads)))
        assert state.step_count == 1
        assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
        assert all(p.data is d for p, d in zip(params, before[0]))

    def test_gradient_of_another_shape_rejected(self):
        p = ad.parameter(np.ones((2, 3)))
        state = ad.AdamState([p], lr=0.1)
        with pytest.raises(ValueError, match="gradient shape"):
            ad.adam_step(state, grads={p: np.ones((3, 2))})
        assert state.step_count == 0

    def test_nan_gradient_aborts_with_parameter_name(self):
        p = ad.parameter(np.ones((1, 1)), name="prompt.gate_weights")
        state = ad.AdamState([p], lr=0.1)
        with pytest.raises(RuntimeError, match="prompt.gate_weights"):
            ad.adam_step(state, grads={p: np.array([[np.nan]])})


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        tensors = {
            "w": np.arange(6.0).reshape(2, 3),
            "b": np.array([[1.5]]),
        }
        path = tmp_path / "ckpt.bin"
        ad.save_checkpoint(path, tensors)
        loaded = ad.load_checkpoint(path)
        assert set(loaded) == {"w", "b"}
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])

    def test_header_order_preserved(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        ad.save_checkpoint(path, {"z": np.zeros((1, 1)), "a": np.ones((1, 1))})
        names = list(ad.load_checkpoint(path))
        assert names == ["z", "a"]

    def test_payload_is_little_endian_float64(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        ad.save_checkpoint(path, {"x": np.array([[1.0]])})
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        assert payload == np.array([1.0], dtype="<f8").tobytes()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        ad.save_checkpoint(path, {"x": np.ones((2, 2))})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            ad.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        ad.save_checkpoint(path, {"x": np.ones((2, 2))})
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ValueError, match="trailing"):
            ad.load_checkpoint(path)
