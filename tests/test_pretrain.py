"""Pretraining objective tests: loss anchors, determinism, learning signal."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from uniprompt import autodiff as ad
from uniprompt import pretrain as pretrain_mod
from uniprompt.encoder import encode, encoder_checkpoint_hash, init_encoder
from uniprompt.harness import generate_sbm
from uniprompt.pretrain import (
    PretrainConfig,
    infonce_loss,
    pretrain,
    pretrain_with_history,
    scaled_cosine_error,
)

from fd_utils import composed_cosine


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lr"])
    def test_rejects_non_finite_value(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            PretrainConfig("graphmae", **{field: value}).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("hidden_dim", 0, "must be at least 1, got 0"),
        ("embed_dim", -3, "must be at least 1, got -3"),
        ("hidden_dim", 8.0, "must be an integer, got 8.0"),
        ("epochs", True, "must be an integer, got True"),
        ("seed", "1", "must be an integer, got '1'"),
        ("lr", "0.001", "must be a number, got '0.001'")])
    def test_rejects_bad_width_or_type_by_name(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            PretrainConfig("grace", **{field: value}).validate()


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

    def test_zero_edges_after_drop_rejected(self, monkeypatch):
        from uniprompt.graphs import graph_from_pairs
        g = graph_from_pairs(4, [(0, 1)], np.random.default_rng(0).normal(size=(4, 3)),
                             [0, 0, 1, 1], 2)
        monkeypatch.setattr(pretrain_mod, "EDGE_DROP", 0.999)
        cfg = small_cfg("grace", epochs=200)
        with pytest.raises(RuntimeError, match="zero edges"):
            pretrain(g, cfg)

    def test_returns_frozen_and_runs(self, sbm):
        enc = pretrain(sbm, small_cfg("grace", epochs=2))
        assert enc.frozen


def reconstruction_error(x, x_hat, gamma):
    """The scaled cosine error of ``x_hat``'s rows against ``x``'s, each
    cosine taken by ``ad.decoded_cosine`` through an identity decoder."""
    f = x.shape[1]
    cos = ad.decoded_cosine(ad.constant(x_hat), ad.constant(np.eye(f)),
                            ad.constant(np.zeros((1, f))), x, ad.unit_row_scales(x),
                            np.arange(x.shape[0]))
    return scaled_cosine_error(cos, gamma)


class TestGraphMae:
    def test_perfect_reconstruction_loss_zero(self):
        x = np.random.default_rng(0).normal(size=(5, 4))
        loss = reconstruction_error(x, x.copy(), gamma=2.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_reconstruction_gamma_one(self):
        x = np.array([[1.0, 0.0]])
        x_hat = np.array([[0.0, 1.0]])
        loss = reconstruction_error(x, x_hat, gamma=1.0)
        assert loss.item() == pytest.approx(1.0, abs=1e-6)

    def test_gamma_two_cos_half(self):
        x = np.array([[1.0, 0.0]])
        half = np.array([[1.0, np.sqrt(3.0)]])  # cos = 0.5 with x
        loss = reconstruction_error(x, half, gamma=2.0)
        assert loss.item() == pytest.approx(0.25, abs=1e-6)

    def test_returns_frozen_and_runs(self, sbm):
        enc = pretrain(sbm, small_cfg("graphmae", epochs=2))
        assert enc.frozen


def composed_graphmae_loss(graph, enc, mask_token, dec_w, dec_b, masked, gamma):
    """The GraphMAE loss as composed over n x F arrays: the token is written
    into a masked copy of X, every row is decoded at width F before the
    masked rows are gathered, and both sides are normalized at width F. The
    oracle of ``pretrain._graphmae``, which computes the same objective at
    hidden width, at the masked rows and in tiles of the masked rows."""
    adj = graph.normalized_adjacency()
    keep_rows = np.ones((graph.num_nodes, 1))
    keep_rows[masked] = 0.0
    indicator = ad.constant(1.0 - keep_rows)
    x_masked = ad.add(ad.constant(graph.features * keep_rows),
                      ad.matmul(indicator, mask_token))
    h = encode(enc, adj, x_masked)
    h_remasked = ad.hadamard(h, ad.constant(keep_rows))
    x_hat = ad.add(ad.spmm(adj, ad.matmul(h_remasked, dec_w)), dec_b)
    cos = composed_cosine(ad.constant(graph.features[masked]), ad.gather_rows(x_hat, masked))
    return scaled_cosine_error(cos, gamma)


class TestGraphMaeAgainstComposition:
    GRAPHS = {
        "assortative": (60, 3, 0.3, 0.03, 8, 3.0, 0),
        "heterophilous": (90, 3, 0.02, 0.2, 12, 2.0, 1),
        "sparse": (120, 4, 0.04, 0.01, 24, 2.5, 2),
    }

    @pytest.mark.parametrize("mask", ["one", "half", "all_but_one"])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_loss_and_every_gradient_match(self, name, mask, monkeypatch):
        self.check(name, mask, monkeypatch)

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("mask", ["half", "all_but_one"])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_cosine_tiles_match(self, name, mask, block, monkeypatch):
        # the masked rows span many tiles, whose decoder gradients are summed
        # tile by tile
        monkeypatch.setattr(ad, "COSINE_BLOCK_ROWS", block)
        self.check(name, mask, monkeypatch)

    def check(self, name, mask, monkeypatch):
        """Loss and the gradient of every parameter within 1e-12 of the
        oracle's largest entry, on the named graph and mask size."""
        graph = generate_sbm(*self.GRAPHS[name])
        n, f = graph.features.shape
        size = {"one": 1, "half": n // 2, "all_but_one": n - 1}[mask]
        monkeypatch.setattr(pretrain_mod, "MASK_RATE", size / n)
        cfg = small_cfg("graphmae", hidden_dim=6, embed_dim=5)
        rng = np.random.default_rng(7)
        enc = init_encoder(f, cfg.hidden_dim, cfg.embed_dim, rng)
        loss_fn, extra, _ = pretrain_mod.OBJECTIVE_TABLE["graphmae"](graph, cfg, enc)
        params = enc.parameters() + extra
        for p in params:  # off the zero init, so no gradient vanishes by symmetry
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)

        loss = loss_fn(np.random.default_rng(3))
        got = ad.backward(loss, params=params)
        # the mask that loss_fn drew from the same stream
        masked = np.sort(np.random.default_rng(3).choice(n, size=size, replace=False))
        oracle = composed_graphmae_loss(graph, enc, *extra, masked, pretrain_mod.SCE_GAMMA)
        want = ad.backward(oracle, params=params)

        assert abs(loss.item() - oracle.item()) <= 1e-12 * abs(oracle.item())
        for p in params:
            scale = np.abs(want[p]).max()
            assert scale > 0, p.name
            assert np.abs(got[p] - want[p]).max() <= 1e-12 * scale, p.name


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
# normalizer, grace's again when its InfoNCE moved to symmetric tiles with a
# running-max shift, and graphmae's again when its mask token became a shift
# of X W1 and its decoder aggregated the masked rows at hidden width before
# projecting: the same objective in exact arithmetic, summed in another
# order (``TestGraphMaeAgainstComposition``). graphmae's held when its
# cosine became one ``ad.decoded_cosine`` node: the fixture's 30 masked rows
# fit one tile, which gives the composition's bits. Any change to an
# objective's numbers changes its digests.
PINNED_PRETRAIN = {
    "dgi": ("35107e8dad4e7910dcb9f2a368262a43eea163b7fdfebfe46e6a49bdec6b813e",
            "b6895dcb559d2ac7eb6f537692237490b7e103dc395e377d4be807df0ecbb49c"),
    "grace": ("1d69b4322fdf01958e8269a2af788c53dc1c724c20c1e93ede6d3f4be2e834a5",
              "74b99e3f342017355c019256db2246a9fceda7ce84497980a443124328d98498"),
    "graphmae": ("3faafe5a30ae3e73dc26da27ef1c65f25959770061f619e3f737ef90eafe1f0c",
                 "72f16925189cf2c5c59e1c16f891520009d0a91408558de4da97c487e6905beb"),
}


def test_every_objective_is_pinned():
    assert sorted(PINNED_PRETRAIN) == sorted(pretrain_mod.OBJECTIVES)


class TestPretrainPin:
    @pytest.mark.parametrize("objective", sorted(PINNED_PRETRAIN))
    def test_history_and_checkpoint_bit_identical(self, sbm, objective):
        enc, history, _ = pretrain_with_history(sbm, small_cfg(objective, epochs=4))
        digest = hashlib.sha256(np.asarray(history, dtype=np.float64).tobytes()).hexdigest()
        assert (digest, encoder_checkpoint_hash(enc)) == PINNED_PRETRAIN[objective]


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


# Traced peak of one GraphMAE epoch on sbm600 at e66b0ee, whose backward kept
# a tape this small whole: 1,488,972 bytes (1.42 MiB), after a first epoch
# that made the process's one-time allocations.
KEPT_TAPE_PEAK = 1_488_972


def test_released_tape_lowers_graphmae_peak_memory(sbm600):
    # backward releases the tape as it walks it: the same epoch peaks at
    # 893,870 bytes, 0.60x the kept tape's
    cfg = small_cfg("graphmae", epochs=1, hidden_dim=16, embed_dim=16)
    traced_peak(sbm600, cfg)
    assert traced_peak(sbm600, cfg) < 0.75 * KEPT_TAPE_PEAK


# Traced peak of one GRACE epoch on sbm600 at hidden = embed = 64 at
# 5957cb1, whose tape kept each view's ELU output in the projection head:
# 10,087,610 bytes (9.62 MiB), after a first epoch that made the process's
# one-time allocations.
KEPT_HEAD_PEAK = 10_087_610


def test_head_recipes_lower_grace_peak_memory(sbm600):
    # the head's rules remake z0, hidden and u from the encoder output's
    # recipe: the same epoch peaks at 9,473,667 bytes, the two views' n x d
    # ELU outputs below the kept head's
    d = 64
    cfg = small_cfg("grace", epochs=1, hidden_dim=d, embed_dim=d)
    traced_peak(sbm600, cfg)
    head_arrays = 2 * sbm600.num_nodes * d * 8
    assert traced_peak(sbm600, cfg) < KEPT_HEAD_PEAK - 0.9 * head_arrays


# n x F arrays an epoch may form beyond its input X. DGI's corrupted graph is
# a row-permuted copy of X. Feeding it through X W1 with the rows of layer
# 1's product permuted instead would change DGI's bits, and every tuning pin
# is taken on a DGI encoder, so the copy is formed: in forward until its
# product is, and again in backward for W1's gradient.
FEATURE_COPIES = {"dgi": 1, "grace": 0, "graphmae": 0}


@pytest.mark.parametrize("objective", sorted(FEATURE_COPIES))
def test_epoch_forms_no_n_by_f_array_beyond_its_inputs(objective, monkeypatch):
    # what 512 features add to one epoch's traced peak over 16 features on the
    # same graph, in n x F float64 arrays: dgi 1.16, grace 0.08, graphmae 0.42
    # (the F-wide parameters with their gradients and Adam moments; 1.12 at
    # the default tiles of 256 rows). Masking copies of X, grace added 2.0;
    # decoding and scoring at width F, graphmae added 4.7. GraphMAE may also
    # hold three tile-sized arrays of its cosine, here of 32 rows.
    monkeypatch.setattr(ad, "COSINE_BLOCK_ROWS", 32)
    wide, narrow = (generate_sbm(600, 3, 0.05, 0.01, f, 3.0, seed=0) for f in (512, 16))
    cfg = small_cfg(objective, epochs=1, hidden_dim=16, embed_dim=16)
    n, f = wide.features.shape
    tiles = 3 * ad.COSINE_BLOCK_ROWS * f * 8 if objective == "graphmae" else 0
    extra = traced_peak(wide, cfg) - traced_peak(narrow, cfg)
    assert extra < (FEATURE_COPIES[objective] + 0.5) * n * f * 8 + tiles


# What one epoch's tape holds once its loss is built, on the 600-node SBM at
# hidden = embed = 64, in n x d float64 arrays: dgi 4.1, grace 7.0,
# graphmae 2.9. Each rule keeps only the arrays its backward reads, and a
# rule keeps a recipe, not the value it remakes: prelu's and elu's
# activations, DGI's corrupted features X[perm] and GRACE's head arrays z0
# and u. With X[perm] and the head arrays kept they read 4.6 and 11.0; with
# GRACE's ELU outputs kept in place of z0, grace read 9.0; with the PReLU
# activations kept as well, 8.6, 15.0 and 3.9; when every node held its
# parent tensors, so that every intermediate value lived until backward,
# 16.7, 31.1 and 13.9.
FORWARD_END_ARRAYS = {"dgi": 4.5, "grace": 7.5, "graphmae": 3.3}


@pytest.mark.parametrize("objective", sorted(FORWARD_END_ARRAYS))
def test_forward_end_tape_holds_only_what_backward_reads(sbm600, objective):
    d = 64
    cfg = small_cfg(objective, epochs=1, hidden_dim=d, embed_dim=d)
    enc = init_encoder(sbm600.num_features, d, d, rng=0)
    loss_fn, _, _ = pretrain_mod.OBJECTIVE_TABLE[objective](sbm600, cfg, enc)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        loss = loss_fn(rng)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert kept < FORWARD_END_ARRAYS[objective] * sbm600.num_nodes * d * 8


@pytest.mark.parametrize("objective", ["dgi", "grace"])
def test_recipes_keep_the_gradient_bits_on_a_smaller_tape(sbm600, objective, monkeypatch):
    # DGI's W1 rule regathers X[perm] and GRACE's head rules remake z0 and u.
    # With ``with_recipe`` a no-op the rules keep those arrays: the gradients
    # are the same bits, and the forward-end tape holds X[perm] (n x F) or
    # both views' z0 and u (4 n x d) more
    d = 64
    cfg = small_cfg(objective, epochs=1, hidden_dim=d, embed_dim=d)

    def epoch():
        enc = init_encoder(sbm600.num_features, d, d, rng=0)
        loss_fn, extra, _ = pretrain_mod.OBJECTIVE_TABLE[objective](sbm600, cfg, enc)
        tracemalloc.start()
        try:
            loss = loss_fn(np.random.default_rng(0))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        ad.backward(loss)
        return kept, [p.grad for p in enc.parameters() + extra]

    kept, grads = epoch()
    monkeypatch.setattr(ad, "with_recipe", lambda t, remake: t)
    kept_arrays, array_grads = epoch()
    for got, want in zip(grads, array_grads):
        assert np.array_equal(got, want)
    n, f = sbm600.features.shape
    assert kept_arrays - kept > 0.9 * (n * f * 8 if objective == "dgi" else 4 * n * d * 8)


def test_fused_infonce_bounds_grace_peak_memory(sbm600):
    # one GRACE epoch peaked at 12.0 MiB traced, about 4.4 n x n float64
    # matrices: the loss node holds three. Composed from small ops, the loss
    # peaked at 64.4 MiB with the tape kept and 39.3 MiB released.
    cfg = small_cfg("grace", epochs=1, hidden_dim=16, embed_dim=16)
    n = sbm600.num_nodes
    assert traced_peak(sbm600, cfg) < 5 * n * n * 8
