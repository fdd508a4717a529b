"""Prompt mechanism tests: gate, fusion, the tuning engine, baselines, ablations."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniprompt import autodiff as ad
from uniprompt import prompt
from uniprompt.encoder import (
    classify,
    clone_encoder,
    encode,
    encoder_checkpoint_hash,
    init_classifier,
    thaw,
)
from uniprompt.graphs import Graph, NormContext, ReceptiveField, SparseAdj, knn_prompt_init
from uniprompt.harness import evaluate, generate_sbm, sample_k_shot
from uniprompt.pretrain import PretrainConfig, pretrain
from uniprompt.prompt import (
    ABLATION_VARIANTS,
    METHOD_TABLE,
    METHODS,
    TuneConfig,
    _union_with_graph,
    bootstrap_fuse,
    gate_values,
    random_support_like,
    run_method,
)
from uniprompt.seeds import rng_stream

from fd_utils import composed_normalize, to_scipy, total


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm(70, 3, 0.25, 0.05, 8, 3.0, seed=2)


@pytest.fixture(scope="module")
def encoder(sbm):
    return pretrain(sbm, PretrainConfig("dgi", epochs=15, seed=0,
                                        hidden_dim=12, embed_dim=12))


@pytest.fixture()
def cfg():
    return TuneConfig(up_lr=0.01, down_lr=0.02, k=4, tau=0.9, alpha=10.0,
                      max_epochs=25, patience=10, clf_hidden=12, seed=5)


def train_ids(sbm, seed=42, run=0, shot=1):
    return sample_k_shot(sbm, shot, seed, run).train_ids


def gate(w, alpha):
    """The tape gate at the weights ``w``, as a flat array."""
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    return gate_values(ad.constant(w), alpha).data[:, 0]


class TestGate:
    def test_unit_weight_gives_one(self):
        for alpha in (0.5, 1.0, 10.0, 100.0):
            assert gate(1.0, alpha)[0] == 1.0

    def test_linear_region(self):
        # z = w * alpha - alpha > 0 gives exactly z + 1
        for w, alpha in ((1.1, 10.0), (3.0, 0.5), (1.0 + 1e-9, 7.0)):
            assert gate(w, alpha)[0] == (w * alpha - alpha) + 1.0

    def test_saturation_prunes(self):
        # expm1(z) rounds to -1, so the gate is exactly 0.0, not exp(-110)
        assert gate(-10.0, 10.0)[0] == 0.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            gate(1.0, 0.0)

    # at this example z differs, yet both gates are 0.7788007830714049:
    # distinct weights need not give distinct gates
    @example(0.0, 2.220446049250313e-16, 0.25)
    @settings(max_examples=50, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 50))
    def test_monotone_and_positive(self, w1, w2, alpha):
        lo, hi = gate(sorted([w1, w2]), alpha)
        assert 0.0 <= lo <= hi

    def test_strictly_increasing_on_spaced_grid(self):
        w = np.linspace(-0.5, 2.0, 26)
        for alpha in (0.5, 1.0, 10.0):
            assert (np.diff(gate(w, alpha)) > 0).all()

    def test_deep_saturation_underflows_to_zero_not_nan(self):
        assert gate(-50.0, 50.0)[0] == 0.0

    def test_tensor_matches_scalar(self):
        # the tape gate stays within 1e-12 of exp(z) below zero, where
        # expm1(z) + 1 cancels
        def exact(w, alpha):
            z = w * alpha - alpha
            return z + 1.0 if z > 0 else math.exp(z)

        w = np.linspace(-3, 3, 11)
        for wi, oi in zip(w, gate(w, 7.0)):
            assert oi == pytest.approx(exact(wi, 7.0), rel=1e-12, abs=1e-12)


class TestBuildPromptAdj:
    def test_unit_weights_give_unweighted_support(self, sbm, cfg):
        support = knn_prompt_init(sbm.features, cfg.k)
        w = ad.parameter(np.ones((support.nnz, 1)))
        adj = ad.SparseTensor(support, gate_values(w, cfg.alpha))
        assert np.allclose(adj.values.data, 1.0)

    def test_saturated_weight_prunes_edge(self, sbm, cfg):
        support = knn_prompt_init(sbm.features, cfg.k)
        wdata = np.ones((support.nnz, 1))
        wdata[3, 0] = -5.0
        adj = ad.SparseTensor(support, gate_values(ad.parameter(wdata), cfg.alpha))
        assert adj.values.data[3, 0] < 1e-19

    def test_gradient_through_gate_and_spmm(self, sbm, cfg):
        support = knn_prompt_init(sbm.features[:10], 3)
        x = np.random.default_rng(0).normal(size=(10, 4))

        def loss_of(wdata, with_tape):
            w = ad.Tensor(wdata.reshape(-1, 1), requires_grad=with_tape)
            vals = gate_values(w, cfg.alpha)
            out = ad.spmm(ad.SparseTensor(support, vals), ad.constant(x))
            return total(ad.sigmoid(out)), w

        w0 = np.linspace(0.5, 1.5, support.nnz)
        loss, w = loss_of(w0, True)
        analytic = ad.backward(loss, params=[w])[w].reshape(-1)
        h = 1e-5
        for i in range(0, support.nnz, 7):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            fd = (loss_of(wp, False)[0].item() - loss_of(wm, False)[0].item()) / (2 * h)
            assert analytic[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestBootstrapFuse:
    def make(self, sbm, cfg):
        """Prompt support, union with the graph, prompt positions in the
        union, and unit-weight gate values."""
        support = knn_prompt_init(sbm.features, cfg.k)
        union, pos = _union_with_graph(sbm.adjacency(), support)
        gates = gate_values(ad.parameter(np.ones((support.nnz, 1))), cfg.alpha)
        return support, union, pos, gates

    def fuse(self, union, pos, gates, tau, steps):
        """Run ``steps`` fusions from A_hat^(0) = A; the fused values of each."""
        previous = union.data.reshape(-1, 1)
        out = []
        for _ in range(steps):
            previous = bootstrap_fuse(previous, gates, pos, union, tau).values.data
            out.append(previous)
        return out

    def test_tau_one_keeps_original_adjacency(self, sbm, cfg):
        _, union, pos, gates = self.make(sbm, cfg)
        fused = self.fuse(union, pos, gates, 1.0, 5)[-1]
        assert np.array_equal(fused, union.data.reshape(-1, 1))

    def test_tau_zero_gives_prompt_exactly(self, sbm, cfg):
        _, union, pos, gates = self.make(sbm, cfg)
        fused = self.fuse(union, pos, gates, 0.0, 1)[0]
        scattered = np.zeros((union.nnz, 1))
        scattered[pos, 0] = gates.data[:, 0]
        assert np.array_equal(fused, scattered)

    def test_half_tau_geometric_decay(self, sbm, cfg):
        _, union, pos, gates = self.make(sbm, cfg)
        only_a = (union.data > 0) & ~np.isin(np.arange(union.nnz), pos)
        idx = np.flatnonzero(only_a)[0]
        assert union.data[idx] == 1.0
        first, second = self.fuse(union, pos, gates, 0.5, 2)
        assert first[idx, 0] == pytest.approx(0.5)
        assert second[idx, 0] == pytest.approx(0.25)

    def test_closed_form_constant_prompt(self, sbm, cfg):
        # A_hat(t) = tau^t A + (1 - tau^t) A_tilde entrywise, dense oracle
        support, union, pos, gates = self.make(sbm, cfg)
        a_dense = to_scipy(union).toarray()
        tilde = to_scipy(support, gates.data[:, 0]).toarray()
        for tau in (0.0, 0.5, 0.9, 1.0):
            for t, fused in enumerate(self.fuse(union, pos, gates, tau, 50), start=1):
                expected = tau**t * a_dense + (1 - tau**t) * tilde
                got = to_scipy(union, fused[:, 0]).toarray()
                assert np.abs(got - expected).max() < 1e-10

    def test_support_containment(self, sbm, cfg):
        support, union, pos, gates = self.make(sbm, cfg)
        n = sbm.num_nodes
        union_keys = set((union.row_ids() * n + union.indices).tolist())
        a = sbm.adjacency()
        allowed = set((a.row_ids() * n + a.indices).tolist()) | set(
            (support.row_ids() * n + support.indices).tolist()
        )
        assert union_keys <= allowed
        fused = self.fuse(union, pos, gates, 0.7, 3)[-1]
        nz = np.abs(fused[:, 0]) > 0
        nz_keys = set((union.row_ids()[nz] * n + union.indices[nz]).tolist())
        assert nz_keys <= allowed

    def test_invalid_tau_rejected(self, sbm, cfg):
        _, union, pos, gates = self.make(sbm, cfg)
        with pytest.raises(ValueError, match="tau"):
            bootstrap_fuse(union.data.reshape(-1, 1), gates, pos, union, 1.5)

    def test_inputs_left_unchanged(self, sbm, cfg):
        _, union, pos, gates = self.make(sbm, cfg)
        previous = np.full((union.nnz, 1), 0.5)
        kept = (previous.copy(), gates.data.copy(), pos.copy())
        bootstrap_fuse(previous, gates, pos, union, 0.3)
        for before, after in zip(kept, (previous, gates.data, pos)):
            assert np.array_equal(before, after)


class TestUnipromptTune:
    def test_requires_frozen_encoder(self, sbm, encoder, cfg):
        enc = thaw(clone_encoder(encoder))
        with pytest.raises(ValueError, match="frozen"):
            run_method("uniprompt", sbm, enc, train_ids(sbm), cfg)

    def test_no_labeled_nodes(self, sbm, encoder, cfg):
        with pytest.raises(ValueError, match="no labeled nodes"):
            run_method("uniprompt", sbm, encoder, np.array([], dtype=int), cfg)

    def test_duplicate_labeled_ids(self, sbm, encoder, cfg):
        with pytest.raises(ValueError, match="distinct"):
            run_method("uniprompt", sbm, encoder, np.array([1, 1]), cfg)

    def test_tau_one_bit_identical_to_linear_probe(self, sbm, encoder, cfg):
        c = replace(cfg, tau=1.0, max_epochs=40)
        uni = run_method("uniprompt", sbm, encoder, train_ids(sbm), c)
        probe = run_method("linear-probe", sbm, encoder, train_ids(sbm), c)
        assert np.array_equal(uni.predictions, probe.predictions)
        assert uni.loss_history == probe.loss_history
        assert uni.epochs_run == probe.epochs_run

    def test_frozen_encoder_hash_invariant(self, sbm, encoder, cfg):
        before = encoder_checkpoint_hash(encoder)
        run_method("uniprompt", sbm, encoder, train_ids(sbm), cfg)
        assert encoder_checkpoint_hash(encoder) == before

    def test_end_to_end_prompt_gradient_matches_fd(self):
        # loss as a function of the gate weights through the uniprompt
        # representation that run_method trains (normalize . fuse . encode)
        # and a fixed classifier, on a tiny graph
        g = generate_sbm(12, 3, 0.4, 0.15, 6, 2.0, seed=7)
        enc = pretrain(g, PretrainConfig("dgi", epochs=3, seed=0,
                                         hidden_dim=6, embed_dim=6))
        cfg = TuneConfig(k=3, tau=0.6, alpha=5.0, clf_hidden=6, seed=1)
        clf = init_classifier(6, 6, 3, rng_stream("classifier-init", 1))
        ids = np.array([0, 5, 9])

        def loss_of(wdata):
            (w,), represent = METHOD_TABLE["uniprompt"](g, enc, cfg, ids)
            w.data = wdata.reshape(-1, 1)
            logits = classify(clf, represent(True))
            return ad.cross_entropy(logits, g.labels[ids]), w

        nnz = knn_prompt_init(g.features, cfg.k).nnz
        w0 = 1.0 + np.linspace(-0.4, 0.4, nnz)
        loss, w = loss_of(w0)
        analytic = ad.backward(loss, params=[w])[w].reshape(-1)
        h = 1e-5
        for i in range(0, nnz, 5):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            fd = (loss_of(wp)[0].item() - loss_of(wm)[0].item()) / (2 * h)
            assert analytic[i] == pytest.approx(fd, rel=1e-3, abs=1e-10)

    def test_early_stopping_respects_patience(self, sbm, encoder):
        cfg = TuneConfig(k=3, tau=1.0, max_epochs=500, patience=3, min_delta=10.0,
                         clf_hidden=8, seed=0)
        # min_delta so large that only the first epoch (from inf) improves
        res = run_method("uniprompt", sbm, encoder, train_ids(sbm), cfg)
        assert res.epochs_run == 1 + cfg.patience

    def test_loss_history_and_result_fields(self, sbm, encoder, cfg, monkeypatch):
        import uniprompt.prompt as prompt_mod

        fusions = []
        real = prompt_mod.bootstrap_fuse
        monkeypatch.setattr(prompt_mod, "bootstrap_fuse",
                            lambda *a: fusions.append(1) or real(*a))
        res = run_method("uniprompt", sbm, encoder, train_ids(sbm), cfg)
        assert res.method == "uniprompt"
        assert res.epochs_run == len(res.loss_history) <= cfg.max_epochs
        assert res.final_loss == res.loss_history[-1]
        assert res.predictions.shape == (sbm.num_nodes,)
        assert len(fusions) == res.epochs_run
        assert res.upstream[0].shape == (knn_prompt_init(sbm.features, cfg.k).nnz, 1)


class TestLinearProbe:
    def test_single_encoder_forward(self, sbm, encoder, cfg, monkeypatch):
        import uniprompt.prompt as prompt_mod

        calls = []
        real = prompt_mod.encode

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(prompt_mod, "encode", counting)
        run_method("linear-probe", sbm, encoder, train_ids(sbm), cfg)
        assert len(calls) == 1

    def test_equals_finetune_with_frozen_encoder_by_definition(self, sbm, encoder, cfg):
        # an inline fine-tune loop with the encoder step removed must
        # reproduce linear probing exactly
        probe = run_method("linear-probe", sbm, encoder, train_ids(sbm), cfg)

        adj = sbm.normalized_adjacency()
        x = ad.constant(sbm.features)
        clf = init_classifier(encoder.out_dim, cfg.clf_hidden, sbm.num_classes,
                              rng_stream("classifier-init", cfg.seed))
        opt = ad.AdamState(clf.parameters(), lr=cfg.down_lr)
        ids = train_ids(sbm)
        best, bad = math.inf, 0
        history = []
        for _ in range(cfg.max_epochs):
            logits = classify(clf, encode(encoder, adj, x))
            loss = ad.cross_entropy(ad.gather_rows(logits, ids), sbm.labels[ids])
            ad.backward(loss)
            ad.adam_step(opt)
            history.append(loss.item())
            if best - loss.item() > cfg.min_delta:
                best, bad = loss.item(), 0
            else:
                bad += 1
                if bad >= cfg.patience:
                    break
        assert history == probe.loss_history

    def test_requires_frozen(self, sbm, encoder, cfg):
        with pytest.raises(ValueError, match="frozen"):
            run_method("linear-probe", sbm, thaw(clone_encoder(encoder)), train_ids(sbm), cfg)


class TestFineTune:
    @staticmethod
    def same_weights(result, encoder):
        return all(np.array_equal(a.data, b.data)
                   for a, b in zip(result.upstream, encoder.parameters()))

    def test_zero_epochs_leaves_encoder_unchanged(self, sbm, encoder, cfg):
        res = run_method("fine-tune", sbm, encoder, train_ids(sbm), replace(cfg, max_epochs=0))
        assert len(res.upstream) == len(encoder.parameters())
        assert self.same_weights(res, encoder)

    def test_one_step_changes_encoder(self, sbm, encoder, cfg):
        res = run_method("fine-tune", sbm, encoder, train_ids(sbm), replace(cfg, max_epochs=1))
        assert not self.same_weights(res, encoder)

    def test_beats_majority_class_on_easy_homophilic_sbm(self):
        g = generate_sbm(90, 3, 0.3, 0.02, 8, 3.5, seed=9)
        enc = pretrain(g, PretrainConfig("dgi", epochs=40, seed=0,
                                         hidden_dim=12, embed_dim=12))
        cfg = TuneConfig(up_lr=0.005, down_lr=0.02, k=4, max_epochs=120,
                         patience=20, clf_hidden=12)
        accs = []
        for run in range(3):
            task = sample_k_shot(g, 5, 42, run)
            res = run_method("fine-tune", g, enc, task.train_ids, replace(cfg, seed=run))
            accs.append(evaluate(res.predictions, task))
        majority = np.bincount(g.labels).max() / g.num_nodes
        assert np.mean(accs) >= majority + 0.20


class TestFeaturePrompt:
    def test_epoch_zero_matches_linear_probe(self, sbm, encoder, cfg):
        c = replace(cfg, max_epochs=1)
        gpf = run_method("gpf", sbm, encoder, train_ids(sbm), c)
        probe = run_method("linear-probe", sbm, encoder, train_ids(sbm), c)
        assert gpf.loss_history[0] == probe.loss_history[0]

    def test_prompt_gradient_matches_fd(self, sbm, encoder):
        adj = sbm.normalized_adjacency()
        clf = init_classifier(encoder.out_dim, 8, sbm.num_classes,
                              rng_stream("classifier-init", 3))
        ids = train_ids(sbm)

        def loss_of(pdata, with_tape):
            p = ad.Tensor(pdata.reshape(1, -1), requires_grad=with_tape)
            x = ad.add(ad.constant(sbm.features), p)
            logits = classify(clf, encode(encoder, adj, x))
            return ad.cross_entropy(ad.gather_rows(logits, ids), sbm.labels[ids]), p

        p0 = np.zeros(sbm.num_features)
        loss, p = loss_of(p0, True)
        analytic = ad.backward(loss, params=[p])[p].reshape(-1)
        h = 1e-5
        for i in range(0, sbm.num_features, 3):
            pp, pm = p0.copy(), p0.copy()
            pp[i] += h
            pm[i] -= h
            fd = (loss_of(pp, False)[0].item() - loss_of(pm, False)[0].item()) / (2 * h)
            assert analytic[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    @pytest.mark.parametrize("rows", [None, "labeled"])
    def test_shift_of_first_layer_product_matches_composed_prompt(self, sbm, encoder, cfg,
                                                                  rows):
        """(X + 1·p) W1 = X W1 + 1·(p W1): the loss and p's gradient from
        ``represent(True)``, with gpf built for every node (``rows`` None) or
        for the labeled ids, agree with the composed ``encode(X + 1·p)``
        oracle."""
        ids = train_ids(sbm, shot=3)
        pdata = np.random.default_rng(7).normal(size=(1, sbm.num_features))
        clf = init_classifier(encoder.out_dim, cfg.clf_hidden, sbm.num_classes,
                              rng_stream("classifier-init", cfg.seed))

        def loss_and_grad(h, p):
            logits = classify(clf, h)
            if h.shape[0] == sbm.num_nodes:
                logits = ad.gather_rows(logits, ids)
            loss = ad.cross_entropy(logits, sbm.labels[ids])
            return loss.item(), ad.backward(loss, params=[p])[p]

        built_for = ids if rows == "labeled" else np.arange(sbm.num_nodes)
        (p,), represent = METHOD_TABLE["gpf"](sbm, encoder, cfg, built_for)
        p.data[:] = pdata
        loss, grad = loss_and_grad(represent(True), p)

        oracle_p = ad.parameter(pdata.copy())
        x = ad.add(ad.constant(sbm.features), oracle_p)
        oracle_loss, oracle_grad = loss_and_grad(
            encode(encoder, sbm.normalized_adjacency(), x), oracle_p)

        assert abs(loss - oracle_loss) <= 1e-12
        assert np.abs(grad).max() > 0
        np.testing.assert_allclose(grad, oracle_grad, rtol=0, atol=1e-12)

    def test_returns_prompt_vector(self, sbm, encoder, cfg):
        res = run_method("gpf", sbm, encoder, train_ids(sbm), cfg)
        (prompt_vector,) = res.upstream
        assert prompt_vector.shape == (1, sbm.num_features)
        assert res.method == "gpf"


class TestAblations:
    def test_random_topo_edge_count_matches_knn(self, sbm, cfg):
        knn = knn_prompt_init(sbm.features, cfg.k)
        rand = random_support_like(knn, sbm.num_nodes, rng_stream("prompt-init", 0))
        assert rand.nnz == knn.nnz

    def test_random_support_is_symmetric_without_self_loops(self, sbm, cfg):
        knn = knn_prompt_init(sbm.features, cfg.k)
        rand = random_support_like(knn, sbm.num_nodes, rng_stream("prompt-init", 1))
        rows, cols = rand.row_ids(), rand.indices
        assert (rows != cols).all()
        forward = set(zip(rows.tolist(), cols.tolist()))
        assert all((c, r) in forward for r, c in forward)

    def test_discard_with_saturated_gates_collapses_to_chance(self, sbm, encoder):
        support = knn_prompt_init(sbm.features, 4)
        w = ad.parameter(np.full((support.nnz, 1), -5.0))  # gates ~ exp(-60)
        ctx = NormContext(support, add_self_loops=False)
        adj = ctx.normalize(gate_values(w, 10.0).data)
        assert np.abs(adj.data).max() < 1e-12
        h = encode(encoder, adj, ad.constant(sbm.features))
        # zero adjacency -> constant rows -> constant logits -> chance accuracy
        assert np.abs(h.data - h.data[0]).max() < 1e-12

    def test_variants_run_and_leave_encoder_frozen(self, sbm, encoder, cfg):
        before = encoder_checkpoint_hash(encoder)
        for variant in ABLATION_VARIANTS:
            res = run_method(f"ablate:{variant}", sbm, encoder, train_ids(sbm), cfg)
            assert res.method == f"ablate:{variant}"
            assert res.predictions.shape == (sbm.num_nodes,)
        assert encoder_checkpoint_hash(encoder) == before

    def test_unknown_variant_rejected(self, sbm, encoder, cfg):
        with pytest.raises(ValueError, match="unknown method 'ablate:swap_all'"):
            run_method("ablate:swap_all", sbm, encoder, train_ids(sbm), cfg)


class TestRunMethod:
    def test_dispatch_covers_all_methods(self, sbm, encoder, cfg):
        for method in METHODS:
            res = run_method(method, sbm, encoder, train_ids(sbm),
                             replace(cfg, max_epochs=3))
            assert res.predictions.shape == (sbm.num_nodes,)

    @pytest.mark.parametrize("method", METHODS)
    def test_feature_width_must_be_the_encoder_input_width(self, sbm, encoder, cfg, method):
        wider = sbm.with_features(np.hstack([sbm.features, sbm.features[:, :1]]))
        with pytest.raises(ValueError, match=r"^feature width 9 != encoder input width 8$"):
            run_method(method, wider, encoder, train_ids(sbm), cfg)

    # one value of the wrong type per field: a string, a fraction or a bool
    @pytest.mark.parametrize("field, value", [
        ("k", "4"), ("max_epochs", 2.5), ("patience", True), ("clf_hidden", 6.0),
        ("seed", "1"), ("up_lr", "0.01"), ("down_lr", True),
        ("tau", None), ("alpha", "10"), ("min_delta", False)])
    def test_mistyped_tune_value_is_named(self, cfg, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an? (integer|number), "):
            replace(cfg, **{field: value}).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["up_lr", "down_lr", "tau", "alpha", "min_delta"])
    def test_non_finite_tune_value_is_named(self, cfg, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            replace(cfg, **{field: value}).validate()

    def test_numpy_scalars_and_integer_rates_are_valid(self, cfg):
        replace(cfg, k=np.int64(4), seed=np.int32(3), tau=np.float64(0.5), up_lr=1,
                min_delta=0).validate()

    def test_heap_trimmed_before_and_after_each_run_even_a_failed_one(
            self, sbm, encoder, cfg, monkeypatch):
        pads = []
        monkeypatch.setattr(prompt, "_malloc_trim", lambda pad: pads.append(pad.value))
        run_method("gpf", sbm, encoder, train_ids(sbm), replace(cfg, max_epochs=2))
        assert pads == [0, 0]
        with pytest.raises(ValueError, match="unknown method"):
            run_method("no-such-method", sbm, encoder, train_ids(sbm), cfg)
        assert pads == [0, 0, 0, 0]

    def test_fine_tune_does_not_mutate_shared_encoder(self, sbm, encoder, cfg):
        before = encoder_checkpoint_hash(encoder)
        run_method("fine-tune", sbm, encoder, train_ids(sbm), cfg)
        assert encoder_checkpoint_hash(encoder) == before
        assert encoder.frozen

    def test_knn_support_built_once_per_graph(self, sbm, encoder, cfg, monkeypatch):
        import uniprompt.graphs as graphs_mod

        g = sbm.with_features(sbm.features)  # same graph, empty kNN cache
        calls = []
        real = graphs_mod.knn_prompt_init
        monkeypatch.setattr(graphs_mod, "knn_prompt_init",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        for method in ("uniprompt", "ablate:random_topo", "ablate:simple_add", "uniprompt"):
            run_method(method, g, encoder, train_ids(g), replace(cfg, max_epochs=2))
        assert calls == [cfg.k]

    def test_first_layer_product_built_once_per_run(self, sbm, encoder, cfg, monkeypatch):
        # a product of feature rows: more than one row, F columns; gpf's
        # p @ W1 is a single row
        feature_products = []
        real = ad.matmul
        monkeypatch.setattr(ad, "matmul", lambda a, b: feature_products.append(
            a.shape[0] > 1 and a.shape[1] == sbm.num_features) or real(a, b))
        for method in ("uniprompt", "gpf", *(f"ablate:{v}" for v in ABLATION_VARIANTS)):
            feature_products.clear()
            result = run_method(method, sbm, encoder, train_ids(sbm),
                                replace(cfg, max_epochs=4, patience=10))
            assert result.epochs_run == 4
            assert feature_products.count(True) == 1, method

    def test_unknown_method(self, sbm, encoder, cfg):
        with pytest.raises(ValueError, match="unknown method"):
            run_method("prompting", sbm, encoder, train_ids(sbm), cfg)

    # discard_topo normalizes the kNN support alone, never the graph
    @pytest.mark.parametrize("method", [m for m in METHODS if m != "ablate:discard_topo"])
    def test_graph_self_loop_rejected(self, sbm, encoder, cfg, method):
        looped = Graph(sbm.num_nodes, np.append(sbm.src, 0), np.append(sbm.dst, 0),
                       sbm.features, sbm.labels, sbm.num_classes)
        with pytest.raises(ValueError, match="already contains self-loops"):
            run_method(method, looped, encoder, train_ids(sbm), cfg)


class TestReceptiveField:
    """Training reads only the labeled rows' 2-hop receptive field."""

    @pytest.mark.parametrize("method", METHODS)
    def test_labeled_rows_match_the_full_forward(self, sbm, encoder, cfg, method):
        """A method built for the labeled ids trains on the same values and
        gradients as one built for every node, whose training values are the
        composed full forward of prediction."""
        ids = train_ids(sbm, shot=3)[::-1]  # unsorted
        every = np.arange(sbm.num_nodes)

        def one_epoch(built_for):
            upstream, represent = METHOD_TABLE[method](sbm, encoder, cfg, built_for)
            clf = init_classifier(encoder.out_dim, cfg.clf_hidden, sbm.num_classes,
                                  rng_stream("classifier-init", cfg.seed))
            h = represent(True)
            logits = classify(clf, h)
            if built_for is every:
                logits = ad.gather_rows(logits, ids)
            params = upstream + clf.parameters()
            grads = ad.backward(ad.cross_entropy(logits, sbm.labels[ids]), params=params)
            return h.data, [grads[p] for p in params], represent

        h_every, g_every, represent_every = one_epoch(every)
        h_ids, g_ids, _ = one_epoch(ids)
        assert h_ids.shape == (ids.size, encoder.out_dim)
        np.testing.assert_allclose(h_ids, h_every[ids], rtol=1e-12, atol=1e-12)
        for g_i, g_e in zip(g_ids, g_every, strict=True):
            np.testing.assert_allclose(g_i, g_e, rtol=1e-12, atol=1e-12)
        assert np.array_equal(h_every, represent_every(False).data)

    def test_uniprompt_epoch_computes_receptive_field_rows_only(self, sbm, encoder, cfg,
                                                                monkeypatch):
        operators = []
        real = ad.spmm

        def recording(adj, x):
            # prediction passes a constant SparseAdj, training SparseTensors
            operators.append(getattr(adj, "pattern", adj))
            return real(adj, x)

        monkeypatch.setattr(ad, "spmm", recording)
        ids = train_ids(sbm)
        run_method("uniprompt", sbm, encoder, ids, replace(cfg, max_epochs=1))
        full, n = operators[-1], sbm.num_nodes
        in_rows = lambda rows: np.isin(full.row_ids(), rows)
        s1 = np.unique(full.indices[in_rows(ids)])
        s2 = np.unique(full.indices[in_rows(s1)])
        assert s1.size < n
        # one training epoch, layer 1 on S1 x S2 and layer 2 on ids x S1,
        # each with its slice's entries; then the prediction over every node
        assert [(a.n, a.n_cols, a.nnz) for a in operators] == [
            (s1.size, s2.size, in_rows(s1).sum()), (ids.size, s1.size, in_rows(ids).sum()),
            (n, n, full.nnz), (n, n, full.nnz)]

    @staticmethod
    def count_slices(monkeypatch):
        calls = []
        real = SparseAdj.row_slice
        monkeypatch.setattr(SparseAdj, "row_slice",
                            lambda self, rows: calls.append(rows) or real(self, rows))
        return calls

    def test_training_epoch_slices_each_layer_once(self, sbm, encoder, cfg, monkeypatch):
        calls = self.count_slices(monkeypatch)
        # zero epochs is the prediction pass alone; the receptive field is
        # built at the first epoch and reused by the later ones
        for epochs, slices in ((0, 0), (1, 2), (3, 2)):
            calls.clear()
            result = run_method("uniprompt", sbm, encoder, train_ids(sbm),
                                replace(cfg, max_epochs=epochs))
            assert result.epochs_run == epochs
            assert len(calls) == slices, epochs

    @pytest.mark.parametrize("method", ["uniprompt", "gpf"])
    def test_later_epochs_build_no_scipy_matrix(self, sbm, encoder, cfg, method, monkeypatch):
        built, counting = [], [False]
        for cls in (sp.csr_matrix, sp.csc_matrix):
            def init(self, *args, _init=cls.__init__, **kwargs):
                if counting[0]:
                    built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", init)
        # count from the second epoch on: the first builds the receptive field
        real_loop = prompt._train_loop

        def loop(cfg, step_fn):
            def step(epoch):
                counting[0] = epoch >= 1
                return step_fn(epoch)
            try:
                return real_loop(cfg, step)
            finally:
                counting[0] = False

        monkeypatch.setattr(prompt, "_train_loop", loop)
        result = run_method(method, sbm, encoder, train_ids(sbm), cfg)
        assert result.epochs_run >= 2 and built == []
        counting[0] = True
        sp.csr_matrix(np.eye(2))
        assert built == ["csr_matrix"]  # the guard sees a construction

    @pytest.mark.parametrize("method", ["gpf", "fine-tune",
                                        *(f"ablate:{v}" for v in ABLATION_VARIANTS)])
    def test_every_method_slices_once_per_run(self, sbm, encoder, cfg, method, monkeypatch):
        calls = self.count_slices(monkeypatch)
        result = run_method(method, sbm, encoder, train_ids(sbm), replace(cfg, max_epochs=3))
        assert result.epochs_run == 3
        assert len(calls) == 2


class TestNormalizeField:
    """``NormContext.normalize`` and ``normalize_field`` give the bits of the
    composed tape ``composed_normalize``: the whole operator, and a gather of
    each slice's entries from it."""

    @staticmethod
    def support(sbm, cfg, self_loops, isolated):
        """The uniprompt union (with self-loops) or the kNN support alone
        (discard); ``isolated`` strips node 0 of every entry."""
        support = knn_prompt_init(sbm.features, cfg.k)
        if self_loops:
            support, _ = _union_with_graph(sbm.adjacency(), support)
        if isolated:
            rows, cols = support.row_ids(), support.indices
            keep = (rows != 0) & (cols != 0)
            support = SparseAdj.from_coo(sbm.num_nodes, rows[keep], cols[keep],
                                         support.data[keep])
        return support

    @staticmethod
    def slices_and_grad(values_data, proj, slices_of):
        values = ad.parameter(values_data)
        slices = slices_of(values)
        loss = ad.add(*(total(ad.hadamard(s, ad.constant(p))) for s, p in zip(slices, proj)))
        return [s.data for s in slices], ad.backward(loss, params=[values])[values]

    @pytest.mark.parametrize("self_loops", [True, False], ids=["self-loops", "discard"])
    @pytest.mark.parametrize("ids", ["1-shot", "3-shot", "5-shot", "every-node", "isolated"])
    def test_values_and_gradient_bit_identical_to_composed(self, sbm, cfg, self_loops, ids):
        support = self.support(sbm, cfg, self_loops, ids == "isolated")
        rows = {"every-node": np.arange(sbm.num_nodes)[::-1],
                "isolated": np.append(train_ids(sbm, shot=3), 0)}.get(ids)
        if rows is None:
            rows = train_ids(sbm, shot=int(ids[0]))
        ctx = NormContext(support, add_self_loops=self_loops)
        field = ctx.receptive_field(rows)
        if ids == "isolated":
            assert field.layers[1].indptr[-1] == field.layers[1].indptr[-2] + self_loops
        rng = np.random.default_rng(len(rows))
        values = rng.uniform(0.0, 1.5, size=(support.nnz, 1))
        values[rng.random(support.nnz) < 0.1] = 0.0  # saturated gates
        proj = [rng.normal(size=(layer.nnz, 1)) for layer in field.layers]

        def composed(v):
            full = composed_normalize(ctx, v)
            return [ad.gather_rows(full, pos) for pos in field.positions]

        def fused(v):
            adj1, adj2 = ctx.normalize_field(v, field)
            assert (adj1.pattern, adj2.pattern) == field.layers
            return [adj1.values, adj2.values]

        got, got_grad = self.slices_and_grad(values, proj, fused)
        want, want_grad = self.slices_and_grad(values, proj, composed)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
        assert np.array_equal(got_grad, want_grad)
        assert np.abs(got_grad).max() > 0

    @pytest.mark.parametrize("self_loops", [True, False], ids=["self-loops", "discard"])
    @pytest.mark.parametrize("isolated", [False, True], ids=["connected", "isolated"])
    def test_whole_operator_is_a_constant_equal_to_composed(self, sbm, cfg, self_loops,
                                                            isolated):
        support = self.support(sbm, cfg, self_loops, isolated)
        ctx = NormContext(support, add_self_loops=self_loops)
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 1.5, size=(support.nnz, 1))
        values[rng.random(support.nnz) < 0.1] = 0.0  # saturated gates
        out = ctx.normalize(values)
        assert isinstance(out, SparseAdj) and not out.data.flags.writeable
        assert (out.indptr is ctx.norm_pattern.indptr
                and out.indices is ctx.norm_pattern.indices)
        want = composed_normalize(ctx, ad.constant(values)).data.reshape(-1)
        assert np.array_equal(out.data, want)
        if isolated:  # node 0's row is its unit diagonal, or nothing
            assert out.data[out.indptr[0]:out.indptr[1]].tolist() == [1.0] * self_loops

    def test_field_of_another_pattern_rejected(self, sbm, cfg):
        support = knn_prompt_init(sbm.features, cfg.k)
        discard = NormContext(support, add_self_loops=False)
        values = ad.constant(np.ones((support.nnz, 1)))
        looped = NormContext(support, add_self_loops=True).receptive_field([0, 1])
        for field in (looped, ReceptiveField(support, [0, 1])):
            with pytest.raises(ValueError, match="not built by this normalization"):
                discard.normalize_field(values, field)


# sha256 of float64 loss_history bytes then int64 predictions bytes, per
# method, on the module fixture with the ``cfg`` fixture and the 1-shot task
# of seed 42, run 0. Recorded before the tuning loops were merged into one
# engine; any change to a method's numbers changes its digest. gpf's was
# re-recorded when its prompt became a shift of the constant X @ W1.
PINNED_DIGESTS = {
    "uniprompt": "a81c790f386cdf33533b1a7b2e8aed007cc2ced90b7df91aee169505e2bdc381",
    "linear-probe": "4e75427824c88e4ddd5e43f45372be2814fd8c2ef8841a065d82715d2e70428f",
    "fine-tune": "dea484b1362bdb84ec18f1b3b632238af1cf9c8cae818a1aec6c904d6433f205",
    "gpf": "d289a9112a6febe798fcd0ef3ef4f445437e6579ba3d1ca47b0e364f714135d7",
    "ablate:random_topo": "4501eccd825c662173b8fbd9eabbed1a40df0327f8f888e09e67cc3ba3316395",
    "ablate:simple_add": "8bc31e7b985e56e306b6156e85721ef5f11eb47d3d8b15e7720a703ad1652b91",
    "ablate:discard_topo": "cb443a4da345b3ad2c3c7a86f41225f11181889e57d914f58ca186fb3ca13bb0",
}


class TestBehaviourPin:
    def test_digests_cover_every_method(self):
        assert set(PINNED_DIGESTS) == set(METHODS)

    @pytest.mark.parametrize("method", METHODS)
    def test_loss_history_and_predictions_bit_identical(self, sbm, encoder, cfg, method):
        res = run_method(method, sbm, encoder, train_ids(sbm), cfg)
        digest = hashlib.sha256()
        digest.update(np.asarray(res.loss_history, dtype=np.float64).tobytes())
        digest.update(np.asarray(res.predictions, dtype=np.int64).tobytes())
        assert digest.hexdigest() == PINNED_DIGESTS[method]


class TestPermutationEquivariance:
    """Relabeling the nodes relabels a whole run: new node i is old node
    perm[i] (edges, features and labels), and the labeled ids map with it.
    The pins fix one node order, so a method that reads node order passes
    them and fails here."""

    @pytest.fixture(scope="class")
    def relabeled(self, sbm):
        perm = np.random.default_rng(9).permutation(sbm.num_nodes)
        inv = np.argsort(perm)
        graph = Graph(sbm.num_nodes, inv[sbm.src], inv[sbm.dst], sbm.features[perm],
                      sbm.labels[perm], sbm.num_classes)
        return graph, perm, inv

    @staticmethod
    def dense(adj):
        return to_scipy(adj).toarray()

    def fused_operator(self, graph, cfg):
        # the uniprompt operator at the initial gates
        union, positions = _union_with_graph(graph.adjacency(), graph.knn_support(cfg.k))
        gates = gate_values(ad.constant(np.ones((positions.size, 1))), cfg.alpha)
        values = bootstrap_fuse(union.data.reshape(-1, 1), gates, positions, union, cfg.tau)
        return NormContext(union, add_self_loops=True).normalize(values.values.data)

    def test_support_operator_and_runs_map(self, sbm, encoder, cfg, relabeled):
        graph, perm, inv = relabeled
        # the tie rule prefers the smallest node id, so the k-th most similar
        # node must stand clear of the next for the support to map
        xn = sbm.features / np.linalg.norm(sbm.features, axis=1, keepdims=True)
        sims = xn @ xn.T
        np.fill_diagonal(sims, -np.inf)
        ranked = -np.sort(-sims, axis=1)
        assert (ranked[:, cfg.k - 1] - ranked[:, cfg.k]).min() > 1e-9

        support = self.dense(sbm.knn_support(cfg.k))
        assert np.array_equal(self.dense(graph.knn_support(cfg.k)), support[np.ix_(perm, perm)])
        operator = self.dense(self.fused_operator(sbm, cfg))
        got = self.dense(self.fused_operator(graph, cfg))
        assert np.abs(got - operator[np.ix_(perm, perm)]).max() <= 1e-12

        ids = train_ids(sbm, shot=2)
        # ablate:random_topo draws its support by node index
        for method in (m for m in METHODS if m != "ablate:random_topo"):
            res = run_method(method, sbm, encoder, ids, cfg)
            mapped = run_method(method, graph, encoder, inv[ids], cfg)
            assert np.array_equal(mapped.predictions, res.predictions[perm]), method
            assert abs(mapped.final_loss - res.final_loss) <= 1e-12, method
