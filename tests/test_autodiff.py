"""Tape, op, loss, optimizer and checkpoint tests."""

import math
import re
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from uniprompt import autodiff as ad
from uniprompt.autodiff import LOG_EPS, _accum, _node
from uniprompt.graphs import SparseAdj

from fd_utils import (
    OP_CASES,
    composed_cosine,
    fd_check_case,
    fd_check_op,
    row_sum,
    to_scipy,
    total,
)


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

    def test_requires_grad_drops_or_makes_the_slot(self):
        p = ad.parameter(np.ones((2, 2)))
        slot = p._slot
        slot.grad = np.ones((2, 2))
        p.requires_grad = True  # already on: the slot and its gradient stay
        assert p._slot is slot and p.grad is not None
        p.requires_grad = False  # freezing drops both
        assert p._slot is None and p.grad is None
        p.requires_grad = True  # thawing makes a fresh slot
        assert p._slot is not slot and p._slot.shape == (2, 2) and p.grad is None


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

    def test_parameter_off_the_tape_loses_an_earlier_gradient(self):
        # q's gradient from the first tape must not survive a second tape
        # that does not reach q, or adam_step would apply it again
        p = ad.parameter(np.ones((1, 1)))
        q = ad.parameter(np.ones((1, 1)))
        ad.backward(ad.add(p, q))
        assert q.grad.tolist() == [[1.0]]
        grads = ad.backward(ad.scalar_scale(p, 2.0), params=[p, q])
        assert grads[q].tolist() == [[0.0]] and q.grad is None
        assert grads[p].tolist() == [[2.0]]
        state = ad.AdamState([q], lr=0.1)
        ad.adam_step(state)
        assert q.data.tolist() == [[1.0]]

    def test_reused_node_accumulates_once_per_path(self):
        p = ad.parameter(np.full((1, 1), 3.0))
        loss = total(ad.add(p, p))  # d/dp (2p) = 2
        ad.backward(loss)
        assert p.grad[0, 0] == pytest.approx(2.0)

    def test_handed_array_becomes_the_gradient_with_zeros_plus_bits(self):
        t = ad.parameter(np.ones((1, 3)))
        grad = np.array([[-0.0, 1.5, -2.0]])
        want = (np.zeros((1, 3)) + grad).tobytes()
        _accum(t, grad)
        assert t.grad is grad
        assert t.grad.tobytes() == want and not np.signbit(t.grad[0, 0])  # -0.0 became +0.0
        later = np.array([[1.0, 7.0, -2.0]])
        _accum(t, later)
        assert t.grad is grad and t.grad.tolist() == [[1.0, 8.5, -4.0]]
        assert later.tolist() == [[1.0, 7.0, -2.0]]  # a later contribution is only read

    def test_array_not_owned_is_copied(self):
        t = ad.parameter(np.ones((1, 3)))
        go = np.array([[-0.0, 1.5, -2.0]])
        _accum(t, go, copy=True)
        assert not np.shares_memory(t.grad, go)
        assert t.grad.tobytes() == (np.zeros((1, 3)) + go).tobytes()
        assert np.signbit(go[0, 0])  # the passed array is left as it was
        go[0, 1] = 7.0
        assert t.grad[0, 1] == 1.5
        _accum(t, go, copy=True)
        assert t.grad.tolist() == [[0.0, 8.5, -4.0]]

    @pytest.mark.parametrize("case", ["add(p, q)", "add(p, p)", "add(p, row)", "transpose(p)"])
    def test_no_two_slots_share_a_gradient_buffer(self, case):
        # add hands its go to one or two parents and transpose a view of it;
        # each must get its own buffer, apart from go's own slot and each other
        rng = np.random.default_rng(3)
        p, q = ad.parameter(rng.normal(size=(2, 3))), ad.parameter(rng.normal(size=(2, 3)))
        row = ad.parameter(rng.normal(size=(1, 3)))
        out = {"add(p, q)": lambda: ad.add(p, q), "add(p, p)": lambda: ad.add(p, p),
               "add(p, row)": lambda: ad.add(p, row),
               "transpose(p)": lambda: ad.transpose(p)}[case]()
        mid = ad.scalar_scale(out, 2.0)
        weights = ad.constant(rng.normal(size=mid.shape))
        ad.backward(total(ad.hadamard(mid, weights)), params=[p, q, row, out, mid])
        grads = [t.grad for t in (p, q, row, out, mid) if t.grad is not None]
        assert len(grads) == 3 + (case in ("add(p, q)", "add(p, row)"))
        for i, target in enumerate(grads):
            before = [g.copy() for g in grads]
            target += 1.0
            for j, g in enumerate(grads):
                assert np.array_equal(g, before[j] + 1.0 if i == j else before[j])

    def test_backward_through_a_chain_holds_two_gradients_at_most(self):
        # each scale's rule forms go * s while its go is alive: two n x d
        # gradients. Copying the product into a third buffer, as the first
        # contribution once was, made three
        n, d, k = 2000, 100, 5
        p = ad.parameter(np.ones((n, d)))
        h = p
        for _ in range(k):
            h = ad.scalar_scale(h, 0.5)
        # 1_n^T h 1_d: the first product's rule forms h's n x d gradient
        loss = ad.matmul(ad.matmul(ad.constant(np.ones((1, n))), h),
                         ad.constant(np.ones((d, 1))))
        del h
        tracemalloc.start()
        try:
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(p.grad, np.full((n, d), 0.5**k))
        assert peak / (n * d * 8) < 2.2

    @pytest.mark.parametrize("shape", [(1, 3), (2, 1), (3, 2)])
    def test_gradient_of_another_shape_rejected(self, shape):
        t = ad.parameter(np.ones((2, 3)))
        for _ in range(2):  # on the first contribution and on a later one
            with pytest.raises(ValueError, match="gradient shape"):
                _accum(t, np.ones(shape))
            t._slot.grad = np.zeros((2, 3))

    def test_constant_subgraph_is_pruned(self):
        a = ad.constant(np.ones((2, 2)))
        out = ad.matmul(a, ad.constant(np.ones((2, 2))))
        assert out._slot is None and not out.requires_grad

    def test_repeated_backward_on_fresh_tapes_is_deterministic(self):
        def run():
            p = ad.parameter(np.linspace(-1, 1, 6).reshape(2, 3))
            loss = total(ad.sigmoid(ad.matmul(p, ad.constant(np.ones((3, 2))))))
            ad.backward(loss)
            return p.grad.copy()

        assert np.array_equal(run(), run())

    def test_tape_is_released_as_it_is_walked(self):
        w = ad.parameter(np.linspace(-1, 1, 6).reshape(2, 3))
        x = ad.parameter(np.ones((3, 2)))
        h = ad.matmul(w, x)
        mid = ad.sigmoid(h)
        loss = total(mid)
        grads = ad.backward(loss, params=[w, mid])
        for node in (h, mid, loss):
            assert node._slot.rule is None and node._slot.parents == ()
        # intermediates lose their gradients; leaves and params entries keep theirs
        assert h.grad is None and loss.grad is None
        assert grads[mid] is mid.grad and grads[w] is w.grad
        s = 1.0 / (1.0 + np.exp(-(w.data @ x.data)))
        dh = s * (1.0 - s)
        assert np.array_equal(mid.grad, np.ones((2, 2)))
        assert np.allclose(w.grad, dh @ x.data.T, rtol=0, atol=1e-12)
        assert np.allclose(x.grad, w.data.T @ dh, rtol=0, atol=1e-12)


def captured_objects(fn):
    """Every object a function's closure holds, through the functions,
    tuples and lists in it: a rule's nested functions (spmm's
    ``edge_grads``, decoded_cosine's ``decode``) and the slots and reads it
    bundles. Slots are not entered; the tape's walk reaches them."""
    seen, stack = set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, ad._Slot):
            continue
        seen.add(id(obj))
        yield obj
        if callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)


class TestRulesHoldNoTensor:
    @pytest.mark.parametrize("name", sorted(ad.REGISTERED_OPS))
    def test_no_rule_captures_a_tensor(self, name):
        # a rule that held a Tensor would keep its whole value alive until
        # backward, whether or not any gradient reads it. The cases compose
        # the op with test-side ops (concat_rows, row_sum); only the
        # engine's rules are walked, every one on the tape
        arrays, fn = OP_CASES[name](np.random.default_rng(0))
        out = fn(*(ad.parameter(arr) for arr in arrays))
        rules, stack, seen = [], [out._slot], set()
        while stack:
            slot = stack.pop()
            if id(slot) not in seen:
                seen.add(id(slot))
                stack.extend(slot.parents)
                if slot.rule is not None and slot.rule.__module__ == ad.__name__:
                    rules.append(slot.rule)
        assert any(rule.__qualname__.startswith(f"{name}.") for rule in rules)
        for rule in rules:
            held = [obj for obj in captured_objects(rule) if isinstance(obj, ad.Tensor)]
            assert held == [], rule.__qualname__


def tape_slots(root):
    """Every slot reachable from ``root``, parents before children."""
    order, seen, stack = [], set(), [(root._slot, False)]
    while stack:
        slot, expanded = stack.pop()
        if expanded:
            order.append(slot)
        elif id(slot) not in seen:
            seen.add(id(slot))
            stack.append((slot, True))
            stack.extend((parent, False) for parent in slot.parents)
    return order


def kept_backward(root):
    """backward as it ran on a kept tape: every rule runs once, children
    before parents, and no slot loses its rule, links or gradient."""
    order = tape_slots(root)
    for slot in order:
        slot.grad = None
    root._slot.grad = np.ones((1, 1))
    for slot in reversed(order):
        if slot.rule is not None:
            slot.rule(slot.grad)


class TestRelease:
    @pytest.mark.parametrize("name", sorted(ad.REGISTERED_OPS))
    def test_backward_consumes_the_tape_and_keeps_the_kept_tapes_bits(self, name):
        # every rule-bearing slot loses its rule, parent links and gradient
        # once backward has walked it, and the leaves get the bits a walk
        # that keeps the whole tape gives
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        arrays, fn = OP_CASES[name](rng)
        projection = None
        grads = []
        for walk in (kept_backward, ad.backward):
            leaves = [ad.parameter(arr) for arr in arrays]
            out = fn(*leaves)
            if projection is None:
                projection = rng.normal(size=out.shape)
            root = total(ad.hadamard(out, ad.constant(projection)))
            inner = [s for s in tape_slots(root) if s.rule is not None]
            walk(root)
            grads.append([t.grad for t in leaves])
        assert inner and all(s.rule is None and s.parents == () and s.grad is None
                             for s in inner)
        for got, want in zip(*grads):
            assert got is not None and np.array_equal(got, want)


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


def log(a, floor=LOG_EPS):
    """log(x + floor); the default 1e-12 keeps zero inputs finite."""
    shifted = a.data + floor

    def bw(go):
        if a.requires_grad:
            _accum(a, go / shifted)

    return _node(np.log(shifted), (a,), bw)


def composed_info_nce(z1, z2, temperature):
    """The symmetric InfoNCE as GRACE built it from small ops before the
    fused ``ad.info_nce``, less the 1e-12 floor it put inside the log: that
    op's oracle on row-normalized views. On raw views its intra term, a row
    sum less exp(s_ii), cancels when s_ii dominates the row."""
    inv_t = 1.0 / temperature
    s12 = ad.scalar_scale(ad.matmul(z1, ad.transpose(z2)), inv_t)
    s11 = ad.scalar_scale(ad.matmul(z1, ad.transpose(z1)), inv_t)
    s22 = ad.scalar_scale(ad.matmul(z2, ad.transpose(z2)), inv_t)

    def directed(cross, intra):
        pos = take_diag(cross)
        denom = ad.add(
            row_sum(exp(cross)),
            ad.sub(row_sum(exp(intra)), exp(take_diag(intra))),
        )
        return ad.row_mean(ad.sub(log(denom, 0.0), pos))

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

    @staticmethod
    def assert_close(got, want):
        """Within 1e-12 of the largest entry of ``want``, or both None."""
        assert (got is None) == (want is None)
        if want is not None:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n, d", [(2, 3), (7, 4), (60, 16)])
    def test_matches_composed_ops_on_normalized_views(self, monkeypatch, n, d):
        # one tile, then 3-row tiles
        rng = np.random.default_rng([n, d])
        for block in (ad.INFONCE_BLOCK_ROWS, 3):
            monkeypatch.setattr(ad, "INFONCE_BLOCK_ROWS", block)
            for temperature in (0.2, 0.5, 1.0):
                a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
                fused = self.loss_and_grads(ad.info_nce, a, b, temperature, True)
                oracle = self.loss_and_grads(composed_info_nce, a, b, temperature, True)
                for got, want in zip(fused, oracle):
                    self.assert_close(got, want)

    @pytest.mark.parametrize("requires", [(True, False), (False, True)])
    def test_one_sided_gradient_matches_composed_ops(self, requires):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        fused = self.loss_and_grads(ad.info_nce, a, b, 0.5, True, requires)
        oracle = self.loss_and_grads(composed_info_nce, a, b, 0.5, True, requires)
        for got, want in zip(fused, oracle):
            self.assert_close(got, want)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ad.info_nce(ad.constant(np.ones((3, 2))), ad.constant(np.ones((2, 2))), 0.5)

    def test_raw_views_where_the_composed_ops_cancel(self):
        # scale-3 views at t = 0.2: exp(s_ii) dominates its row, so a row sum
        # less exp(s_ii) loses every other term (the composed ops' gradient
        # was off by up to 4e90); the running-max shift keeps each term
        fn = lambda a, b: ad.info_nce(a, b, 0.2)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            views = [rng.normal(scale=3.0, size=(2, 3)) for _ in range(2)]
            assert fd_check_case(views, fn, rng) <= 0.0, seed

    @pytest.mark.parametrize("n", range(1, 7))
    def test_finite_differences_across_tiles(self, monkeypatch, n):
        # 3-row tiles over the 2n stacked rows: diagonal and off-diagonal
        # tiles, a last tile of one row (n = 5), and positive pairs n rows
        # apart in other tiles
        monkeypatch.setattr(ad, "INFONCE_BLOCK_ROWS", 3)
        rng = np.random.default_rng(n)
        for t in (0.2, 0.5, 1.0):
            views = [rng.normal(size=(n, 3)) for _ in range(2)]
            assert fd_check_case(views, lambda a, b: ad.info_nce(a, b, t), rng) <= 0.0, t

    def test_one_pair_scores_zero(self):
        # n = 1: each row's only term is its positive pair
        rng = np.random.default_rng(0)
        loss, g1, g2 = self.loss_and_grads(ad.info_nce, rng.normal(size=(1, 4)),
                                           rng.normal(size=(1, 4)), 0.5, False)
        assert abs(loss[0, 0]) < 1e-15
        assert np.abs(g1).max() < 1e-15 and np.abs(g2).max() < 1e-15

    def test_holds_no_n_by_n_matrix(self):
        n = 2000
        rng = np.random.default_rng(0)
        views = [ad.parameter(rng.normal(size=(n, 16))) for _ in range(2)]
        tracemalloc.start()
        try:
            ad.backward(ad.info_nce(*views, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestDecodedCosine:
    @staticmethod
    def problem(seed, m=7, d=4, f=6, n=10):
        """Decoder inputs r, W, b (parameters) and targets x with repeated ids."""
        rng = np.random.default_rng(seed)
        tensors = [ad.parameter(rng.normal(size=shape)) for shape in ((m, d), (d, f), (1, f))]
        return tensors, rng.normal(size=(n, f)), rng.integers(0, n, size=m), rng.normal(size=(m, 1))

    @staticmethod
    def value_and_grads(cos, tensors, projection):
        ad.backward(total(ad.hadamard(cos, ad.constant(projection))))
        return [cos.data] + [t.grad for t in tensors]

    def fused_and_composed(self, seed):
        tensors, x, rows, projection = self.problem(seed)
        fused = self.value_and_grads(
            ad.decoded_cosine(*tensors, x, ad.unit_row_scales(x), rows), tensors, projection)
        tensors = [ad.parameter(t.data) for t in tensors]
        r, w, b = tensors
        composed = composed_cosine(ad.constant(x[rows]), ad.add(ad.matmul(r, w), b))
        return fused, self.value_and_grads(composed, tensors, projection)

    def test_one_tile_is_bit_identical_to_composed_ops(self):
        for seed in range(5):
            for got, want in zip(*self.fused_and_composed(seed)):
                assert np.array_equal(got, want), seed

    @pytest.mark.parametrize("block", [1, 3])
    def test_tiles_match_composed_ops(self, monkeypatch, block):
        # 7 rows in tiles of 1 or 3: the decoder gradients are summed tile by
        # tile, so only rounding separates them from the composition
        monkeypatch.setattr(ad, "COSINE_BLOCK_ROWS", block)
        for seed in range(5):
            for got, want in zip(*self.fused_and_composed(seed)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), seed

    def test_finite_differences_across_tiles(self, monkeypatch):
        monkeypatch.setattr(ad, "COSINE_BLOCK_ROWS", 3)
        rng = np.random.default_rng(4)
        for _ in range(3):
            arrays, fn = OP_CASES["decoded_cosine"](rng)
            assert fd_check_case(arrays, fn, rng) <= 0.0

    def test_unit_row_scales_are_l2_normalize_rows_factors_row_by_row(self):
        x = np.random.default_rng(0).normal(size=(50, 33)) * np.logspace(-150, 150, 50)[:, None]
        x[3] = 0.0
        ids = np.array([7, 3, 49, 7, 0])
        scales = ad.unit_row_scales(x)
        assert np.array_equal(scales[ids], ad.unit_row_scales(x[ids]))
        assert np.array_equal(x[ids] * scales[ids], ad.l2_normalize_rows(ad.constant(x[ids])).data)

    def test_bad_shapes_and_ids_rejected(self):
        (r, w, b), x, rows, _ = self.problem(0)
        scales = ad.unit_row_scales(x)
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.decoded_cosine(r, w, b, x[:, :5], scales, rows)
        with pytest.raises(ValueError, match="one target id per row"):
            ad.decoded_cosine(r, w, b, x, scales, rows[:-1])
        with pytest.raises(ValueError, match="out of range"):
            ad.decoded_cosine(r, w, b, x, scales, np.full(rows.size, x.shape[0]))

    def test_holds_no_m_by_f_array(self):
        # forward keeps one squared norm per row. Backward holds one tile's y,
        # its gradient and their product, plus r's (m, d) gradient: 3.75
        # tile-sized arrays here, where one m x F array is 15.6
        (r, w, b), x, rows, _ = self.problem(0, m=4000, d=16, f=512, n=4000)
        scales = ad.unit_row_scales(x)
        tracemalloc.start()
        try:
            cos = ad.decoded_cosine(r, w, b, x, scales, rows)
            kept = tracemalloc.get_traced_memory()[0]
            ad.backward(total(cos))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, f = r.shape[0], x.shape[1]
        assert kept < 0.01 * m * f * 8
        assert peak < 4 * ad.COSINE_BLOCK_ROWS * f * 8


class TestActivationTape:
    @pytest.mark.parametrize("op", ["prelu", "elu"])
    def test_tape_keeps_only_the_array_its_rule_reads(self, op):
        # each rule reads only its input, so once the caller drops both
        # tensors the tape holds one n x d array per activation: the output
        # is freed
        n, d = 2000, 32
        a = ad.parameter(np.random.default_rng(0).normal(size=(n, d)))
        slope = ad.parameter(np.full((1, 1), 0.25))
        tracemalloc.start()
        try:
            x = ad.scalar_scale(a, 1.0)  # an op output, as every activation's input is
            out = ad.prelu(x, slope) if op == "prelu" else ad.elu(x)
            tail = ad.row_mean(out)  # a rule that keeps no value
            del x, out
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tail.requires_grad and tail.shape == (1, d)
        assert kept < 1.1 * n * d * 8

    def test_trainable_product_keeps_the_prelu_recipe_not_its_output(self):
        # the product's weight gradient reads the activation, which prelu's
        # recipe remakes from the input its rule keeps: one n x d array, where
        # keeping the output as well made two
        n, d = 2000, 32
        rng = np.random.default_rng(1)
        a = ad.parameter(rng.normal(size=(n, d)))
        slope = ad.parameter(np.full((1, 1), 0.25))
        w = ad.parameter(rng.normal(size=(d, 4)))
        tracemalloc.start()
        try:
            x = ad.scalar_scale(a, 1.0)
            h = ad.prelu(x, slope)
            tail = ad.row_mean(ad.matmul(h, w))
            remake = h._remake
            del x, h
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tail.requires_grad and tail.shape == (1, 4)
        assert kept < 1.1 * n * d * 8
        held = list(captured_objects(tail._slot.parents[0].rule))
        assert any(obj is remake for obj in held)
        assert [obj for obj in held if isinstance(obj, ad.Tensor)] == []

    # saturating, tiny and signed-zero inputs, with ordinary ones
    ELU_INPUTS = np.array([[-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, -1e-17, 1e-17],
                           [-36.0, -40.0, -745.0, -800.0, -1e308, -np.inf, 1e308, 0.5],
                           [-0.5, -1.0, -2.0, 1.0, 2.0, 3.5, -1e-8, -700.0]])

    def test_elu_recipe_returns_the_forward_bits(self):
        out = ad.elu(ad.scalar_scale(ad.parameter(self.ELU_INPUTS), 1.0))
        remade = out._remake()
        assert remade is not out.data
        assert np.array_equal(remade, out.data)
        assert np.array_equal(np.signbit(remade), np.signbit(out.data))
        # a constant output has no rule to read it, and so no recipe
        assert ad.elu(ad.constant(self.ELU_INPUTS))._remake is None

    def test_elu_gradient_is_the_output_formulas_bits(self):
        # the slope expm1(min(x, 0)) + 1 from the input has the bits of the
        # slope read off the output, out + 1 where out <= 0
        a = ad.parameter(self.ELU_INPUTS)
        out = ad.elu(a)
        go = np.random.default_rng(5).normal(size=a.shape)
        ad.backward(total(ad.hadamard(out, ad.constant(go))))
        want = go * np.where(out.data > 0, 1.0, out.data + 1.0) + 0.0
        assert np.array_equal(a.grad, want)
        assert np.array_equal(np.signbit(a.grad), np.signbit(want))

    def test_trainable_product_keeps_the_elu_recipe_not_its_output(self):
        # as with prelu: the product's weight gradient reads elu's recipe over
        # the input its rule keeps, and the gradients keep the array path's bits
        rng = np.random.default_rng(6)
        a_data, w_data, g = rng.normal(size=(7, 5)), rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        grads = []
        for recipe in (True, False):
            a, w = ad.parameter(a_data), ad.parameter(w_data)
            h = ad.elu(ad.scalar_scale(a, 1.0))
            if not recipe:
                h._remake = None
            out = ad.matmul(h, w)
            if recipe:
                held = list(captured_objects(out._slot.rule))
                assert any(obj is h._remake for obj in held)
                assert not any(obj is h.data for obj in held)
            ad.backward(total(ad.hadamard(out, ad.constant(g))))
            grads.append([a.grad, w.grad])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)

    # The expressions the in-place forms of prelu, elu and l2_normalize_rows
    # replaced, as oracles: the same operands in the same order, so the same
    # bits. A gradient is the rule's array plus zeros, as _accum keeps it.
    IN_PLACE_INPUTS = np.array([[-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, -1e-17, 1e-17],
                                [-36.0, -40.0, -745.0, -800.0, -1e308, -np.inf, 1e308, 0.5],
                                [-0.5, -1.0, -2.0, 1.0, 2.0, 3.5, -1e-8, -700.0],
                                [0.0, -0.0, 0.0, 5e-324, 0.0, -0.0, 0.0, 0.0]])

    @staticmethod
    def upstream():
        go = np.random.default_rng(7).normal(size=(4, 8))
        go[0, :3] = [-0.0, 5e-324, -1e300]
        return go

    @staticmethod
    def same_bits(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", [0.25, -1.5, 0.0])
    def test_prelu_in_place_forms_keep_the_bits(self, s):
        x, go = self.IN_PLACE_INPUTS, self.upstream()
        a, slope = ad.parameter(x), ad.parameter(np.full((1, 1), s))
        with np.errstate(over="ignore", invalid="ignore"):
            out = ad.prelu(a, slope)
            want = np.maximum(x, 0.0) + s * np.minimum(x, 0.0)
            self.same_bits(out.data, want)
            self.same_bits(out._remake(), want)
            out._slot.rule(go.copy())
            self.same_bits(a.grad, go * np.where(x > 0, 1.0, s) + 0.0)
            self.same_bits(slope.grad, (go * np.minimum(x, 0.0)).sum().reshape(1, 1) + 0.0)

    def test_elu_in_place_forms_keep_the_bits(self):
        x, go = self.IN_PLACE_INPUTS, self.upstream()
        a = ad.parameter(x)
        with np.errstate(over="ignore"):
            out = ad.elu(a)
            want = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
            self.same_bits(out.data, want)
            self.same_bits(out._remake(), want)
            out._slot.rule(go.copy())
            self.same_bits(a.grad, go * (np.expm1(np.minimum(x, 0.0)) + 1.0) + 0.0)

    def test_l2_normalize_rows_in_place_rule_keeps_the_bits(self):
        x, go = self.IN_PLACE_INPUTS, self.upstream()
        a = ad.parameter(x)
        with np.errstate(over="ignore", invalid="ignore"):
            out = ad.l2_normalize_rows(a)
            out._slot.rule(go.copy())
            sq = (x * x).sum(axis=1, keepdims=True) + LOG_EPS
            inv = sq**-0.5
            dot = (go * x).sum(axis=1, keepdims=True)
            self.same_bits(a.grad, go * inv - x * (dot * inv / sq) + 0.0)

    # a (7, 5) activation h read by a product with a trainable w: w's shape
    # and the product
    PRODUCTS = {"h @ w": ((5, 3), ad.matmul),
                "w @ h": ((4, 7), lambda h, w: ad.matmul(w, h)),
                "h * w": ((7, 1), ad.hadamard)}

    def product_grads(self, product, recipe):
        """The gradients of the product's inputs, with the product keeping
        prelu's recipe or, with the recipe cleared, the activation's array."""
        rng = np.random.default_rng(2)
        shape, fn = self.PRODUCTS[product]
        leaves = [ad.parameter(rng.normal(size=(7, 5))), ad.parameter(np.full((1, 1), 0.3)),
                  ad.parameter(rng.normal(size=shape))]
        a, slope, w = leaves
        h = ad.prelu(ad.scalar_scale(a, 1.0), slope)
        if not recipe:
            h._remake = None
        out = fn(h, w)
        ad.backward(total(ad.hadamard(out, ad.constant(rng.normal(size=out.shape)))))
        return [t.grad for t in leaves]

    @pytest.mark.parametrize("product", sorted(PRODUCTS))
    def test_recipe_gives_the_array_paths_gradient_bits(self, product):
        for got, want in zip(self.product_grads(product, True),
                             self.product_grads(product, False)):
            assert np.array_equal(got, want)


def corrupted_product(arrays, recipe):
    """source[perm] @ w, the product DGI forms on its corrupted features,
    with the constant source[perm] regathered in backward or kept."""
    source, perm, w_data = arrays
    w = ad.parameter(w_data)
    x = ad.constant(source[perm])
    if recipe:
        ad.with_recipe(x, lambda: source[perm])
    return ad.matmul(x, w), [w]


def normalized_head(arrays, recipe):
    """l2_normalize_rows(elu(h @ w0 + b0) @ w1 + b1), GRACE's projection head
    on a PReLU output h, with its pre-activation z0 and its rows u remade in
    backward from h's recipe or kept. elu's output is a recipe over z0."""
    a, w0, b0, w1, b1 = (ad.parameter(arr) for arr in arrays)
    h = ad.prelu(ad.scalar_scale(a, 1.0), ad.parameter(np.full((1, 1), 0.25)))

    def affine(rows, w, b):
        out = ad.add(ad.matmul(rows, w), b)
        if recipe:
            rows_value, weight, bias = ad._kept(rows), w.data, b.data
            ad.with_recipe(out, lambda: rows_value() @ weight + bias)
        return out

    hidden = ad.elu(affine(h, w0, b0))
    return ad.l2_normalize_rows(affine(hidden, w1, b1)), [a, w0, b0, w1, b1]


# case -> (build(arrays, recipe) -> (output, leaves), arrays(rng, n), the n x 6
# arrays the recipes take off the tape, the n x 6 arrays the tape keeps with
# them besides the output): the corrupted product keeps none, and the head
# only prelu's input, with the normalization's two n x 1 columns
RECIPE_CASES = {
    "corrupted product": (corrupted_product, lambda rng, n: (
        rng.normal(size=(n, 6)), rng.permutation(n), rng.normal(size=(6, 3))), 1, 0),
    "normalized head": (normalized_head, lambda rng, n: (
        rng.normal(size=(n, 6)), rng.normal(size=(6, 6)), rng.normal(size=(1, 6)),
        rng.normal(size=(6, 6)), rng.normal(size=(1, 6))), 2, 1),
}


class TestRecipes:
    @pytest.mark.parametrize("case", sorted(RECIPE_CASES))
    def test_rule_keeps_the_recipe_not_the_array(self, case):
        # the rule keeps a function over arrays that outlive the value, so
        # the value is freed once the caller drops its tensor
        build, make, freed, left = RECIPE_CASES[case]
        n = 4000
        arrays = make(np.random.default_rng(3), n)
        kept = {}
        for recipe in (True, False):
            tracemalloc.start()
            try:
                out, _ = build(arrays, recipe)
                kept[recipe] = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            finally:
                tracemalloc.stop()
            assert out.requires_grad
            del out
        assert kept[False] - kept[True] > (freed - 0.1) * n * 6 * 8
        assert kept[True] < (left + 0.5) * n * 6 * 8

    @pytest.mark.parametrize("case", sorted(RECIPE_CASES))
    def test_recipe_gives_the_array_paths_gradient_bits(self, case):
        build, make, _, _ = RECIPE_CASES[case]
        grads = []
        for recipe in (True, False):
            rng = np.random.default_rng(4)
            out, leaves = build(make(rng, 50), recipe)
            ad.backward(total(ad.hadamard(out, ad.constant(rng.normal(size=out.shape)))))
            grads.append([t.grad for t in leaves])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)


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
            values._slot.grad = xt._slot.grad = None
            out._slot.rule(go)
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
        ad.spmm(ad.SparseTensor(pattern, values), xt)._slot.rule(go)
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
            ad.gather_rows(a, ids)._slot.rule(go)
            expected = np.zeros((6, 2))
            np.add.at(expected, ids, go)
            assert a.grad.tobytes() == (np.zeros((6, 2)) + expected).tobytes(), ids
        # a column's gradient has the bits of a weighted bincount
        for ids in ([4, 0, 2], [4, 0, 4]):
            a = ad.parameter(np.ones((6, 1)))
            ad.gather_rows(a, ids)._slot.rule(go[:, :1])
            expected = np.bincount(ids, weights=go[:, 0], minlength=6).reshape(-1, 1)
            assert a.grad.tobytes() == expected.tobytes(), ids

    def test_hadamard_column_is_its_repeat_bit_for_bit(self):
        # GraphMAE's re-mask: an (n, 1) row mask broadcast, not an n x d copy
        rng = np.random.default_rng(3)
        a = ad.parameter(rng.normal(size=(5, 4)))
        mask = (rng.random((5, 1)) < 0.5).astype(np.float64)
        proj = ad.constant(rng.normal(size=(5, 4)))
        grads = []
        for b in (mask, np.repeat(mask, 4, axis=1)):
            out = ad.hadamard(a, ad.constant(b))
            grads.append(ad.backward(total(ad.hadamard(out, proj)), params=[a])[a])
            assert np.array_equal(out.data, a.data * np.repeat(mask, 4, axis=1))
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("shape", [(1, 4), (5, 2), (4, 1)])
    def test_hadamard_shape_mismatch(self, shape):
        with pytest.raises(ValueError, match="hadamard shape mismatch"):
            ad.hadamard(ad.constant(np.ones((5, 4))), ad.constant(np.ones(shape)))

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 3)])
    def test_add_shape_mismatch(self, shape):
        with pytest.raises(ValueError, match="add shape mismatch"):
            ad.add(ad.constant(np.ones((5, 4))), ad.constant(np.ones(shape)))

    def test_segment_sum_takes_one_column(self):
        with pytest.raises(ValueError, match="segment_sum needs an"):
            ad.segment_sum(ad.constant(np.ones((3, 2))), [0, 1, 1], 2)

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
        p._slot.grad = np.zeros((2, 2))
        ad.adam_step(state)
        assert np.array_equal(p.data, before)

    def test_degenerate_betas_give_signed_step(self, monkeypatch):
        monkeypatch.setattr(ad, "ADAM_BETA1", 0.0)
        monkeypatch.setattr(ad, "ADAM_BETA2", 0.0)
        p = ad.parameter(np.array([[5.0]]))
        state = ad.AdamState([p], lr=0.1)
        p._slot.grad = np.array([[2.0]])
        ad.adam_step(state)
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
            p._slot.grad = None
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

    @staticmethod
    def step(state, grads):
        for p, g in zip(state.params, grads):
            p._slot.grad = g
        ad.adam_step(state)

    def test_flat_update_matches_per_parameter_oracle_bit_for_bit(self):
        data, grad_steps = self.mixed_problem(3)
        params = [ad.parameter(d.copy(), name=f"p{i}") for i, d in enumerate(data)]
        state = ad.AdamState(params, lr=0.05)
        held = [p.data for p in params]
        for grads in grad_steps:
            self.step(state, grads)
        want = self.reference_adam(data, grad_steps, lr=0.05)
        for p, w in zip(params, want):
            assert p.data.tobytes() == w.tobytes(), p.name
        # p.data is rebound, never written: arrays held elsewhere keep their values
        for h, d in zip(held, data):
            assert np.array_equal(h, d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_gradient_changes_nothing(self, bad):
        # 1e200 is finite, but its square overflows
        data, grad_steps = self.mixed_problem(4)
        params = [ad.parameter(d.copy(), name=f"p{i}") for i, d in enumerate(data)]
        state = ad.AdamState(params, lr=0.05)
        self.step(state, grad_steps[0])
        before = [p.data for p in params], state.m.copy(), state.v.copy()
        grads = grad_steps[1]
        grads[3] = grads[3].copy()
        grads[3][0, 2] = bad
        with pytest.raises(RuntimeError, match="'p3'"):
            self.step(state, grads)
        assert state.step_count == 1
        assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
        assert all(p.data is d for p, d in zip(params, before[0]))

    def test_gradient_of_another_shape_rejected(self):
        p = ad.parameter(np.ones((2, 3)))
        state = ad.AdamState([p], lr=0.1)
        with pytest.raises(ValueError, match="gradient shape"):
            p._slot.grad = np.ones((3, 2))
            ad.adam_step(state)
        assert state.step_count == 0

    def test_nan_gradient_aborts_with_parameter_name(self):
        p = ad.parameter(np.ones((1, 1)), name="prompt.gate_weights")
        state = ad.AdamState([p], lr=0.1)
        with pytest.raises(RuntimeError, match="prompt.gate_weights"):
            p._slot.grad = np.array([[np.nan]])
            ad.adam_step(state)


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

    @pytest.mark.parametrize("header, message", [
        (b"not json", "checkpoint: header is not JSON"),
        (b"\xff{}", "checkpoint: header is not JSON"),
        (b"[1, 2]", "checkpoint: header must be a JSON object, got list"),
        (b'{"x": 4}', "checkpoint: shape of 'x' must be a list of non-negative integers, got 4"),
        (b'{"x": ["a"]}', "shape of 'x' must be a list of non-negative integers, got ['a']"),
        (b'{"x": [-1, 4]}', "shape of 'x' must be a list of non-negative integers, got [-1, 4]"),
        (b'{"x": [2.0, 2]}', "shape of 'x' must be a list of non-negative integers, got [2.0, 2]"),
        (b'{"x": [true, 4]}', "shape of 'x' must be a list of non-negative integers, got [True, 4]"),
        (b'{"x": [1000000000, 1000000000]}', "truncated checkpoint payload for 'x'"),
    ])
    def test_header_maps_names_to_shapes_that_fit_the_file(self, tmp_path, header, message):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(header + b"\n" + np.ones(4).tobytes())
        with pytest.raises(ValueError) as info:
            ad.load_checkpoint(path)
        assert message in str(info.value)

    def test_pieces_join_to_the_file_bytes(self, tmp_path):
        tensors = {"w": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
                   "s": np.array(0.25), "e": np.zeros((0, 3))}
        path = tmp_path / "ckpt.bin"
        ad.save_checkpoint(path, tensors)
        assert b"".join(bytes(p) for p in ad.checkpoint_pieces(tensors)) == path.read_bytes()
        loaded = ad.load_checkpoint(path)
        for name, arr in tensors.items():
            assert loaded[name].shape == arr.shape and np.array_equal(loaded[name], arr)
