"""Encoder/classifier forward, freeze semantics, and checkpoint tests."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from uniprompt import autodiff as ad
from uniprompt.encoder import (
    Classifier,
    Encoder,
    GcnLayer,
    classify,
    clone_encoder,
    encode,
    encoder_checkpoint_hash,
    freeze,
    init_classifier,
    init_encoder,
    load_encoder,
    predictions_from_logits,
    save_encoder,
    thaw,
)
from uniprompt.graphs import SparseAdj, symmetric_normalize

from fd_utils import to_scipy, total


def identity_adj(n):
    diag = np.arange(n)
    return SparseAdj.from_coo(n, diag, diag, np.ones(n))


def make_identity_encoder(dim):
    """Identity weights, zero biases and PReLU slopes of 1, the identity."""
    layers = []
    for _ in range(2):
        layers.append(GcnLayer(ad.parameter(np.eye(dim)), ad.parameter(np.zeros((1, dim))),
                               ad.parameter(np.ones((1, 1)))))
    return Encoder(layers[0], layers[1])


class TestEncode:
    def test_identity_everything_is_identity(self):
        enc = make_identity_encoder(3)
        x = np.random.default_rng(0).normal(size=(4, 3))
        h = encode(enc, identity_adj(4), ad.constant(x))
        assert np.abs(h.data - x).max() < 1e-15

    def test_zero_adjacency_gives_constant_rows(self):
        enc = init_encoder(3, 5, 4, rng=0)
        n = 6
        zero_adj = SparseAdj.from_coo(n, [0], [1], [0.0])
        x = np.random.default_rng(1).normal(size=(n, 3))
        h = encode(enc, zero_adj, ad.constant(x))
        assert np.abs(h.data - h.data[0]).max() == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        n = 6
        mask = np.triu(rng.random((n, n)) < 0.5, 1)
        rows, cols = np.nonzero(mask | mask.T)
        adj = symmetric_normalize(SparseAdj.from_coo(n, rows, cols, np.ones(rows.size)))
        enc = init_encoder(4, 5, 3, rng=3)
        x = rng.normal(size=(n, 4))
        h = encode(enc, adj, ad.constant(x))

        dense = to_scipy(adj).toarray()
        slope1 = enc.layer1.prelu_slope.data[0, 0]
        slope2 = enc.layer2.prelu_slope.data[0, 0]
        h1 = dense @ x @ enc.layer1.weight.data + enc.layer1.bias.data
        h1 = np.where(h1 > 0, h1, slope1 * h1)
        h2 = dense @ h1 @ enc.layer2.weight.data + enc.layer2.bias.data
        h2 = np.where(h2 > 0, h2, slope2 * h2)
        assert np.abs(h.data - h2).max() < 1e-10

    def test_width_mismatch(self):
        enc = init_encoder(4, 5, 3, rng=0)
        with pytest.raises(ValueError, match="width"):
            encode(enc, identity_adj(2), ad.constant(np.ones((2, 3))))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        n = 12
        mask = np.triu(rng.random((n, n)) < 0.4, 1)
        rows, cols = np.nonzero(mask | mask.T)
        adj = symmetric_normalize(SparseAdj.from_coo(n, rows, cols, np.ones(rows.size)))
        enc = init_encoder(3, 6, 4, rng=6)
        x = rng.normal(size=(n, 3))
        h = encode(enc, adj, ad.constant(x)).data

        perm = rng.permutation(n)
        inv = np.argsort(perm)
        dense = to_scipy(adj).toarray()[np.ix_(inv, inv)]
        prows, pcols = np.nonzero(dense)
        padj = SparseAdj.from_coo(n, prows, pcols, dense[prows, pcols])
        hp = encode(enc, padj, ad.constant(x[inv])).data
        assert np.abs(hp - h[inv]).max() < 1e-12


class TestClassifier:
    def test_zero_weights_tie_resolves_to_class_zero(self):
        clf = Classifier(
            ad.parameter(np.zeros((4, 3))), ad.parameter(np.zeros((1, 3))),
            ad.parameter(np.zeros((3, 5))), ad.parameter(np.zeros((1, 5))),
        )
        logits = classify(clf, ad.constant(np.ones((2, 4))))
        assert np.array_equal(predictions_from_logits(logits), [0, 0])

    def test_single_hidden_unit_scalar_oracle(self):
        clf = Classifier(
            ad.parameter(np.array([[2.0]])), ad.parameter(np.array([[1.0]])),
            ad.parameter(np.array([[3.0, -1.0]])), ad.parameter(np.array([[0.5, 0.0]])),
        )
        logits = classify(clf, ad.constant(np.array([[4.0]])))
        hidden = max(4.0 * 2.0 + 1.0, 0.0)
        assert logits.data[0, 0] == pytest.approx(hidden * 3.0 + 0.5)
        assert logits.data[0, 1] == pytest.approx(hidden * -1.0)

    def test_column_permutation_permutes_argmax(self):
        rng = np.random.default_rng(7)
        clf = init_classifier(4, 6, 5, rng=rng)
        h = rng.normal(size=(10, 4))
        logits = classify(clf, ad.constant(h))
        preds = predictions_from_logits(logits)
        perm = rng.permutation(5)
        clf2 = Classifier(clf.w1, clf.b1,
                          ad.parameter(clf.w2.data[:, perm]),
                          ad.parameter(clf.b2.data[:, perm]))
        preds2 = predictions_from_logits(classify(clf2, ad.constant(h)))
        assert np.array_equal(perm[preds2], preds)

    def test_width_mismatch(self):
        clf = init_classifier(4, 6, 3, rng=0)
        with pytest.raises(ValueError, match="width"):
            classify(clf, ad.constant(np.ones((2, 5))))


class TestFreezeThaw:
    def test_freeze_is_idempotent(self):
        enc = init_encoder(3, 4, 4, rng=0)
        assert freeze(freeze(enc)).frozen

    def test_thaw_reverses_freeze(self):
        enc = freeze(init_encoder(3, 4, 4, rng=0))
        assert not thaw(enc).frozen

    def test_frozen_encode_produces_constant_tensor(self):
        enc = freeze(init_encoder(3, 4, 4, rng=0))
        h = encode(enc, identity_adj(5), ad.constant(np.ones((5, 3))))
        assert not h.requires_grad

    def test_gradient_still_flows_through_taped_adjacency(self):
        enc = freeze(init_encoder(3, 4, 4, rng=0))
        n = 3
        pattern = SparseAdj.from_coo(n, [0, 1, 1, 2], [1, 0, 2, 1], np.ones(4))
        vals = ad.parameter(np.full((4, 1), 0.5))
        h = encode(enc, ad.SparseTensor(pattern, vals), ad.constant(np.ones((n, 3))))
        loss = total(h)
        ad.backward(loss)
        assert vals.grad is not None and np.abs(vals.grad).max() > 0
        assert enc.layer1.weight.grad is None

    def test_clone_is_independent(self):
        enc = init_encoder(3, 4, 4, rng=0)
        dup = clone_encoder(enc)
        dup.layer1.weight.data[0, 0] += 1.0
        assert enc.layer1.weight.data[0, 0] != dup.layer1.weight.data[0, 0]

    def test_freeze_and_thaw_set_every_tensor(self):
        enc = init_encoder(3, 4, 4, rng=0)
        assert len(enc.parameters()) == 6
        assert all(p.requires_grad for p in enc.parameters())
        assert not any(p.requires_grad for p in freeze(enc).parameters())
        assert all(p.requires_grad for p in thaw(enc).parameters())

    def test_one_trainable_tensor_means_not_frozen(self):
        enc = freeze(init_encoder(3, 4, 4, rng=0))
        enc.layer2.prelu_slope.requires_grad = True
        assert not enc.frozen

    def test_clone_keeps_each_tensors_flag(self):
        enc = freeze(init_encoder(3, 4, 4, rng=0))
        enc.layer2.bias.requires_grad = True
        dup = clone_encoder(enc)
        assert ({n: p.requires_grad for n, p in dup.named_parameters().items()}
                == {n: p.requires_grad for n, p in enc.named_parameters().items()})

    def test_thawed_clone_trains_while_source_stays_frozen(self):
        enc = freeze(init_encoder(3, 4, 4, rng=0))
        before = encoder_checkpoint_hash(enc)
        dup = thaw(clone_encoder(enc))
        opt = ad.AdamState(dup.parameters(), lr=0.1)
        adj = identity_adj(5)
        x = ad.constant(np.random.default_rng(1).normal(size=(5, 3)))
        for _ in range(3):
            assert not encode(enc, adj, x).requires_grad
            ad.backward(total(encode(dup, adj, x)))
            ad.adam_step(opt)
        assert encoder_checkpoint_hash(dup) != before
        assert enc.frozen and encoder_checkpoint_hash(enc) == before
        assert all(p.grad is None for p in enc.parameters())


class TestCheckpoints:
    def test_save_load_roundtrip(self, tmp_path):
        enc = init_encoder(3, 5, 4, rng=1)
        save_encoder(enc, tmp_path / "enc.ckpt",
                     meta={"pretrain": "dgi", "dataset": "toy", "seed": 7})
        loaded, meta = load_encoder(tmp_path / "enc.ckpt")
        assert loaded.frozen
        assert not any(p.requires_grad for p in loaded.parameters())
        assert meta["pretrain"] == "dgi" and meta["seed"] == 7
        assert encoder_checkpoint_hash(loaded) == encoder_checkpoint_hash(enc)

    def test_load_checks_the_sidecar_digest(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_encoder(init_encoder(3, 5, 4, rng=1), path)
        sidecar = Path(str(path) + ".json")
        meta = json.loads(sidecar.read_text())
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 1
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="sha256"):
            load_encoder(path)
        del meta["encoder_checkpoint_hash"]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="missing key 'encoder_checkpoint_hash'"):
            load_encoder(path)

    def test_hash_is_the_sha256_of_the_written_checkpoint(self, tmp_path):
        enc = init_encoder(3, 5, 4, rng=1)
        enc.layer1.weight.data = np.asfortranarray(enc.layer1.weight.data)
        save_encoder(enc, tmp_path / "enc.ckpt")
        digest = hashlib.sha256((tmp_path / "enc.ckpt").read_bytes()).hexdigest()
        assert encoder_checkpoint_hash(enc) == digest

    def test_hash_changes_with_parameters(self):
        enc = init_encoder(3, 5, 4, rng=1)
        before = encoder_checkpoint_hash(enc)
        enc.layer2.weight.data = enc.layer2.weight.data + 1e-9
        assert encoder_checkpoint_hash(enc) != before

    def test_freeze_then_tune_leaves_checkpoint_identical(self, tmp_path):
        # covered in depth by prompt tests; here: freeze + forward is enough
        enc = freeze(init_encoder(3, 5, 4, rng=2))
        before = encoder_checkpoint_hash(enc)
        for _ in range(3):
            h = encode(enc, identity_adj(4), ad.constant(np.ones((4, 3))))
            loss = total(h)
        assert encoder_checkpoint_hash(enc) == before
