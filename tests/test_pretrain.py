"""Pretraining objective tests: loss anchors, determinism, learning signal."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from uniprompt import autodiff as ad
from uniprompt.encoder import encoder_checkpoint_hash
from uniprompt.harness import generate_sbm
from uniprompt.pretrain import (
    PretrainConfig,
    infonce_loss,
    pretrain,
    pretrain_with_history,
    scaled_cosine_error,
)


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm(60, 3, 0.3, 0.03, 8, 3.0, seed=0)


def small_cfg(objective, **kw):
    base = dict(epochs=10, lr=0.001, seed=1, hidden_dim=8, embed_dim=8)
    base.update(kw)
    return PretrainConfig(objective, **base)


class TestConfig:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            PretrainConfig("byol").validate()

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="edge_drop"):
            PretrainConfig("grace", edge_drop=1.0).validate()

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="sce_gamma"):
            PretrainConfig("graphmae", sce_gamma=0.5).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lr", "temperature", "sce_gamma"])
    def test_rejects_non_finite_value(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            PretrainConfig("graphmae", **{field: value}).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("hidden_dim", 0, "must be at least 1, got 0"),
        ("embed_dim", -3, "must be at least 1, got -3"),
        ("hidden_dim", 8.0, "must be an integer, got 8.0"),
        ("epochs", True, "must be an integer, got True"),
        ("seed", "1", "must be an integer, got '1'"),
        ("edge_drop", "0.2", "must be a number, got '0.2'")])
    def test_rejects_bad_width_or_type_by_name(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            PretrainConfig("grace", **{field: value}).validate()

    def test_rejects_graphmae_zero_mask_rate(self):
        with pytest.raises(ValueError, match="mask rate"):
            PretrainConfig("graphmae", mask_rate=0.0).validate()
        PretrainConfig("dgi", mask_rate=0.0).validate()  # only graphmae masks


class TestDgi:
    def test_loss_at_half_scores_is_ln2(self, sbm):
        # zero features and zero biases give zero embeddings, so every
        # discriminator score is 0 and sigma(score) = 0.5 everywhere
        blank = sbm.with_features(np.zeros_like(sbm.features))
        _, history, _ = pretrain_with_history(blank, small_cfg("dgi", epochs=1))
        assert history[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_identity_corruption_zero_discriminator_gradient(self):
        # positives and negatives coincide; at the symmetric (zero) init the
        # discriminator gradient vanishes
        rng = np.random.default_rng(0)
        h = ad.constant(rng.normal(size=(6, 4)))
        disc = ad.parameter(np.zeros((4, 4)), name="disc")
        summary = ad.sigmoid(ad.row_mean(h))
        weighted = ad.matmul(disc, ad.transpose(summary))
        pos = ad.matmul(h, weighted)
        neg = ad.matmul(h, weighted)  # identity permutation
        loss = ad.scalar_scale(
            ad.add(ad.row_mean(ad.softplus(ad.scalar_scale(pos, -1.0))),
                   ad.row_mean(ad.softplus(neg))), 0.5)
        grads = ad.backward(loss, params=[disc])
        assert np.abs(grads[disc]).max() < 1e-15

    def test_embedding_separation_increases(self, sbm):
        from uniprompt.encoder import encode

        adj = sbm.normalized_adjacency()
        cfg = small_cfg("dgi", epochs=30)

        def class_separation(enc):
            h = encode(enc, adj, ad.constant(sbm.features)).data
            means = np.stack([h[sbm.labels == c].mean(axis=0) for c in range(3)])
            means /= np.linalg.norm(means, axis=1, keepdims=True)
            sims = means @ means.T
            return 1.0 - sims[np.triu_indices(3, 1)].mean()  # larger = better

        enc0 = pretrain(sbm, small_cfg("dgi", epochs=0))
        enc = pretrain(sbm, cfg)
        assert class_separation(enc) > class_separation(enc0)

    def test_returns_frozen(self, sbm):
        assert pretrain(sbm, small_cfg("dgi", epochs=1)).frozen


class TestGrace:
    def test_single_node_identical_views_loss_zero(self):
        z = ad.constant(np.array([[0.6, 0.8]]))
        loss = infonce_loss(z, z, temperature=0.5)
        assert abs(loss.item()) < 1e-9

    def test_infinite_temperature_limit(self):
        rng = np.random.default_rng(1)
        z1 = ad.constant(rng.normal(size=(6, 4)))
        z2 = ad.constant(rng.normal(size=(6, 4)))
        loss = infonce_loss(z1, z2, temperature=1e9)
        assert loss.item() == pytest.approx(math.log(2 * 6 - 1), abs=1e-6)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(2)
        n, d, t = 4, 3, 0.7
        z1 = rng.normal(size=(n, d))
        z2 = rng.normal(size=(n, d))

        def side(a, b):
            total = 0.0
            for i in range(n):
                pos = math.exp(a[i] @ b[i] / t)
                denom = sum(math.exp(a[i] @ b[j] / t) for j in range(n))
                denom += sum(math.exp(a[i] @ a[j] / t) for j in range(n) if j != i)
                total += -math.log(pos / denom)
            return total / n

        expected = 0.5 * (side(z1, z2) + side(z2, z1))
        got = infonce_loss(ad.constant(z1), ad.constant(z2), t).item()
        assert got == pytest.approx(expected, abs=1e-9)

    def test_zero_edges_after_drop_rejected(self):
        from uniprompt.graphs import graph_from_pairs
        g = graph_from_pairs(4, [(0, 1)], np.random.default_rng(0).normal(size=(4, 3)),
                             [0, 0, 1, 1], 2)
        cfg = small_cfg("grace", edge_drop=0.999, epochs=200)
        with pytest.raises(RuntimeError, match="zero edges"):
            pretrain(g, cfg)

    def test_returns_frozen_and_runs(self, sbm):
        enc = pretrain(sbm, small_cfg("grace", epochs=2))
        assert enc.frozen


class TestGraphMae:
    def test_perfect_reconstruction_loss_zero(self):
        x = np.random.default_rng(0).normal(size=(5, 4))
        loss = scaled_cosine_error(ad.constant(x), ad.constant(x.copy()), gamma=2.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_reconstruction_gamma_one(self):
        x = np.array([[1.0, 0.0]])
        x_hat = np.array([[0.0, 1.0]])
        loss = scaled_cosine_error(ad.constant(x), ad.constant(x_hat), gamma=1.0)
        assert loss.item() == pytest.approx(1.0, abs=1e-6)

    def test_gamma_two_cos_half(self):
        x = np.array([[1.0, 0.0]])
        half = np.array([[1.0, np.sqrt(3.0)]])  # cos = 0.5 with x
        loss = scaled_cosine_error(ad.constant(x), ad.constant(half), gamma=2.0)
        assert loss.item() == pytest.approx(0.25, abs=1e-6)

    def test_zero_mask_rate_rejected(self, sbm):
        with pytest.raises(ValueError, match="mask rate"):
            pretrain(sbm, small_cfg("graphmae", mask_rate=0.0))

    def test_returns_frozen_and_runs(self, sbm):
        enc = pretrain(sbm, small_cfg("graphmae", epochs=2))
        assert enc.frozen


class TestSharedProperties:
    @pytest.mark.parametrize("objective", ["dgi", "grace", "graphmae"])
    def test_deterministic_checkpoints(self, sbm, objective):
        cfg = small_cfg(objective, epochs=3)
        a = pretrain(sbm, cfg)
        b = pretrain(sbm, cfg)
        assert encoder_checkpoint_hash(a) == encoder_checkpoint_hash(b)

    @pytest.mark.parametrize("objective", ["dgi", "grace", "graphmae"])
    def test_loss_decreases_over_first_ten_epochs(self, sbm, objective):
        # fixed-instance probe: the live objective on one seeded
        # corruption/view/mask instance, before training and after each epoch
        _, _, probes = pretrain_with_history(sbm, small_cfg(objective, epochs=10),
                                             probe_seed=99)
        assert len(probes) == 11
        assert probes[-1] < probes[0]
        # strictly decreasing on the fixed instance across the window
        assert all(b < a for a, b in zip(probes, probes[1:]))


# Per objective, on the module fixture with ``small_cfg(objective, epochs=4)``:
# the sha256 of the float64 loss-history bytes and the encoder checkpoint
# hash. Recorded before the numpy normalization was folded into the tape
# normalizer; any change to an objective's numbers changes its digests.
PINNED_PRETRAIN = {
    "dgi": ("35107e8dad4e7910dcb9f2a368262a43eea163b7fdfebfe46e6a49bdec6b813e",
            "b6895dcb559d2ac7eb6f537692237490b7e103dc395e377d4be807df0ecbb49c"),
    "grace": ("5d79150d2d7cdad7e2d3aad88a8ca69033c024c041ee76b98f91cf6f8f128396",
              "aca5dc9325727f0127a6a90d42f40576fe3bbd4bacec98c94846aa17599b0538"),
    "graphmae": ("7783ffe6d43dec80b4b5b6420be7d59e551567ba614010f1baa995bc86e4a935",
                 "fbc2d6c4652c4dc206a1d71ba09c867ca27c61a94d4010a9ff2060a65e30b572"),
}


class TestPretrainPin:
    @pytest.mark.parametrize("objective", sorted(PINNED_PRETRAIN))
    def test_history_and_checkpoint_bit_identical(self, sbm, objective, monkeypatch):
        # these tapes are kept whole; a release limit of 0 frees each one as
        # backward walks it, and must give the same bits
        for limit in (ad.RELEASE_TAPE_BYTES, 0):
            monkeypatch.setattr(ad, "RELEASE_TAPE_BYTES", limit)
            enc, history, _ = pretrain_with_history(sbm, small_cfg(objective, epochs=4))
            digest = hashlib.sha256(np.asarray(history, dtype=np.float64).tobytes()).hexdigest()
            assert (digest, encoder_checkpoint_hash(enc)) == PINNED_PRETRAIN[objective], limit


def traced_peak(graph, cfg):
    """Peak bytes traced by tracemalloc over one ``pretrain`` call."""
    tracemalloc.start()
    try:
        pretrain(graph, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sbm600():
    return generate_sbm(600, 3, 0.05, 0.01, 32, 3.0, seed=0)


def test_released_tape_lowers_graphmae_peak_memory(sbm600, monkeypatch):
    # one GraphMAE epoch: the released tape peaked at 0.61x the kept tape's
    # traced bytes (2.65 vs 4.39 MiB)
    cfg = small_cfg("graphmae", epochs=1, hidden_dim=16, embed_dim=16)
    peaks = {}
    for limit in (2**62, 0):
        monkeypatch.setattr(ad, "RELEASE_TAPE_BYTES", limit)
        peaks[limit] = traced_peak(sbm600, cfg)
    assert peaks[0] < 0.75 * peaks[2**62]


def test_fused_infonce_bounds_grace_peak_memory(sbm600):
    # one GRACE epoch peaked at 12.0 MiB traced, about 4.4 n x n float64
    # matrices: the loss node holds three. Composed from small ops, the loss
    # peaked at 64.4 MiB with the tape kept and 39.3 MiB released.
    cfg = small_cfg("grace", epochs=1, hidden_dim=16, embed_dim=16)
    n = sbm600.num_nodes
    assert traced_peak(sbm600, cfg) < 5 * n * n * 8
