"""Few-shot sampling, evaluation, result tables, experiments, SBM tests."""

import csv
import hashlib
import math
import re

import numpy as np
import pytest

from uniprompt import autodiff as ad
from uniprompt import harness
from uniprompt.graphs import Graph, edge_homophily
from uniprompt.harness import (
    DEFAULT_RUNS,
    DEFAULT_SEEDS,
    ExperimentSpec,
    FewShotTask,
    ResultTable,
    RunRecord,
    evaluate,
    generate_sbm,
    noise_robustness,
    run_experiment,
    sample_k_shot,
    sweep,
)
from uniprompt.pretrain import PretrainConfig, pretrain
from uniprompt.prompt import METHODS, TuneConfig, run_method


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm(60, 3, 0.3, 0.05, 8, 3.0, seed=4)


@pytest.fixture(scope="module")
def encoder(sbm):
    return pretrain(sbm, PretrainConfig("dgi", epochs=10, seed=0,
                                        hidden_dim=8, embed_dim=8))


def tiny_spec(sbm, encoder, methods=("linear-probe",), **kw):
    cfg = TuneConfig(k=4, tau=0.9, max_epochs=15, patience=5, clf_hidden=8)
    defaults = dict(
        dataset="sbm",
        pretrain="dgi",
        graph=sbm,
        encoder=encoder,
        methods=tuple(methods),
        shots=(1,),
        tune={"default": cfg},
        seeds=(42, 12345),
        runs=2,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestSampleKShot:
    def test_one_shot_three_classes(self, sbm):
        task = sample_k_shot(sbm, 1, 42, 0)
        assert task.train_ids.size == 3
        assert np.unique(sbm.labels[task.train_ids]).size == 3

    def test_stratified_counts(self, sbm):
        task = sample_k_shot(sbm, 4, 42, 1)
        for cls in range(sbm.num_classes):
            assert (sbm.labels[task.train_ids] == cls).sum() == 4

    def test_train_test_disjoint_and_exhaustive(self, sbm):
        task = sample_k_shot(sbm, 3, 12345, 7)
        assert np.intersect1d(task.train_ids, task.test_ids).size == 0
        assert task.train_ids.size + task.test_ids.size == sbm.num_nodes

    def test_deterministic_per_seed_run(self, sbm):
        a = sample_k_shot(sbm, 2, 42, 3)
        b = sample_k_shot(sbm, 2, 42, 3)
        c = sample_k_shot(sbm, 2, 42, 4)
        assert np.array_equal(a.train_ids, b.train_ids)
        assert not np.array_equal(a.train_ids, c.train_ids)

    def test_class_too_small(self):
        g = generate_sbm(9, 3, 0.5, 0.1, 4, 2.0, seed=0)
        with pytest.raises(ValueError, match="fewer than"):
            sample_k_shot(g, 5, 42, 0)

    def test_test_count_arithmetic(self, sbm):
        # |test| = N - k*C
        task = sample_k_shot(sbm, 5, 42, 0)
        assert task.test_ids.size == sbm.num_nodes - 5 * sbm.num_classes


class TestEvaluate:
    def test_all_correct(self, sbm):
        task = sample_k_shot(sbm, 1, 42, 0)
        assert evaluate(sbm.labels.copy(), task) == 1.0

    def test_random_predictor_near_chance(self, sbm):
        rng = np.random.default_rng(0)
        accs = [
            evaluate(rng.integers(0, 3, sbm.num_nodes), sample_k_shot(sbm, 1, 42, r))
            for r in range(60)
        ]
        assert abs(np.mean(accs) - 1.0 / 3.0) < 0.04

    def test_matches_confusion_matrix_oracle(self, sbm):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 3, sbm.num_nodes)
        task = sample_k_shot(sbm, 2, 42, 0)
        confusion = np.zeros((3, 3), dtype=int)
        for i in task.test_ids:
            confusion[sbm.labels[i], preds[i]] += 1
        oracle = confusion.trace() / confusion.sum()
        assert evaluate(preds, task) == pytest.approx(oracle, abs=1e-12)

    def test_missing_prediction(self, sbm):
        task = sample_k_shot(sbm, 1, 42, 0)
        with pytest.raises(ValueError, match="missing prediction"):
            evaluate(np.zeros(3, dtype=int), task)

    def test_empty_test_split_rejected(self):
        g = generate_sbm(6, 3, 0.5, 0.1, 4, 3.0, seed=0)
        task = sample_k_shot(g, 2, 42, 0)
        assert task.test_ids.size == 0
        with pytest.raises(ValueError, match="empty test split"):
            evaluate(g.labels.copy(), task)


class TestResultTable:
    def make_table(self):
        return ResultTable([RunRecord("d", "p", "m", 1, seed, run, 0.5 + 0.01 * run + 0.1 * seed)
                            for seed in (1, 2) for run in range(3)])

    def test_aggregate_mean_and_population_std(self):
        table = self.make_table()
        rows = table.aggregate()
        assert len(rows) == 1
        _, _, _, _, _, count, mean, std = rows[0]
        accs = [r.accuracy for r in table.records]
        assert count == 6
        assert mean == pytest.approx(np.mean(accs), abs=1e-15)
        assert std == pytest.approx(np.std(accs), abs=1e-15)  # population std

    def test_csv_roundtrip_matches_aggregates(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "results.csv"
        table.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        accs = np.array([float(r["accuracy"]) for r in rows])
        _, _, _, _, _, _, mean, std = table.aggregate()[0]
        assert abs(accs.mean() - mean) < 1e-12
        assert abs(accs.std() - std) < 1e-12

    def test_markdown_bolds_best_method(self, tmp_path):
        table = ResultTable([RunRecord("d", "p", method, 1, 42, run, acc)
                             for run in range(2)
                             for method, acc in (("weak", 0.3), ("strong", 0.9))])
        path = tmp_path / "results.md"
        table.to_markdown(path)
        text = path.read_text()
        assert "**90.00 ± 0.00**" in text
        assert "**30.00" not in text


PINNED_CSV_SHA256 = "e288ecf00c9a78f653eb2e328f8fb76dd4ac3aac369536974364416642779e84"


class TestRunExperiment:
    def test_record_count_is_seeds_times_runs(self, sbm, encoder):
        table = run_experiment(tiny_spec(sbm, encoder))
        assert len(table.records) == 2 * 2
        for _, accs in table.cells().items():
            assert len(accs) == 4

    def test_deterministic_csv_bytes(self, sbm, encoder, tmp_path):
        spec = tiny_spec(sbm, encoder)
        t1 = run_experiment(spec)
        t2 = run_experiment(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(p1)
        t2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_equals_serial(self, sbm, encoder, tmp_path):
        serial = run_experiment(tiny_spec(sbm, encoder))
        parallel = run_experiment(tiny_spec(sbm, encoder, workers=2))
        a, b = tmp_path / "s.csv", tmp_path / "p.csv"
        serial.to_csv(a)
        parallel.to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_method_rejected(self, sbm, encoder):
        with pytest.raises(ValueError, match="unknown method"):
            run_experiment(tiny_spec(sbm, encoder, methods=("magic",)))

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected(self, sbm, encoder, workers):
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
            run_experiment(tiny_spec(sbm, encoder, workers=workers))

    def test_large_seed_runs(self, sbm, encoder):
        # run_seed(50000, run) passes 2**32; every seed the harness has
        # accepted must keep giving its records
        table = run_experiment(tiny_spec(sbm, encoder, seeds=(50000,)))
        assert [(r.seed, r.run) for r in table.records] == [(50000, 0), (50000, 1)]
        assert all(0.0 <= r.accuracy <= 1.0 for r in table.records)

    def test_csv_bytes_pinned(self, sbm, encoder, tmp_path, monkeypatch):
        # sha256 of results.csv, recorded before the numpy normalization was
        # folded into the tape normalizer; any change to a method's numbers
        # on this spec changes it, on the kept and on the released tape
        spec = tiny_spec(sbm, encoder, methods=("uniprompt", "gpf", "linear-probe"))
        path = tmp_path / "results.csv"
        for limit in (ad.RELEASE_TAPE_BYTES, 0):
            monkeypatch.setattr(ad, "RELEASE_TAPE_BYTES", limit)
            run_experiment(spec).to_csv(path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256, limit

    @staticmethod
    def error_of(fn, *args):
        try:
            fn(*args)
        except ValueError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("method", METHODS)
    def test_k_is_checked_before_any_run_where_a_run_fails_on_it(self, sbm, encoder, method):
        # the check at k = n fails with the run's own message exactly for
        # the methods that build a kNN support; at k = n - 1 both pass
        task = sample_k_shot(sbm, 1, 42, 0)
        for k, fails in ((sbm.num_nodes, method == "uniprompt" or method.startswith("ablate:")),
                         (sbm.num_nodes - 1, False)):
            cfg = TuneConfig(k=k, max_epochs=0, clf_hidden=8)
            spec = tiny_spec(sbm, encoder, methods=(method,), tune={"default": cfg})
            ran = self.error_of(run_method, method, sbm, encoder, task.train_ids, cfg)
            assert self.error_of(harness._checked, spec) == ran
            assert ran == ("k out of range" if fails else None)

    def test_every_shot_is_checked_against_the_classes_before_any_run(self, encoder, monkeypatch):
        # classes of 3, 5 and 2 nodes: a shot of 4 first fails class 0, the
        # class sample_k_shot rejects, not the smallest one
        labels = np.repeat([0, 1, 2], [3, 5, 2])
        graph = Graph(10, [0, 1], [1, 0], np.ones((10, 8)), labels, 3)
        monkeypatch.setattr(harness, "run_method", lambda *a: pytest.fail("ran"))
        for shot in (3, 4, 6):
            spec = tiny_spec(graph, encoder, shots=(1, shot))
            checked = self.error_of(harness._checked, spec)
            assert checked == self.error_of(sample_k_shot, graph, shot, 42, 0)
            assert checked is not None and checked.startswith(f"class {0 if shot > 3 else 2} has ")
            with pytest.raises(ValueError, match=f"^{checked}$"):
                run_experiment(spec)
        spec = tiny_spec(graph, encoder, shots=(1, 2))
        assert harness._checked(spec) is spec

    def test_a_shot_that_leaves_no_test_node_is_rejected_before_any_run(self, encoder,
                                                                        monkeypatch):
        # 4 shots of each 4-node class train every node: evaluate's check,
        # made before the first run instead of after it
        graph = generate_sbm(8, 2, 0.5, 0.1, 8, 3.0, seed=0)
        monkeypatch.setattr(harness, "run_method", lambda *a: pytest.fail("ran"))
        task = sample_k_shot(graph, 4, 42, 0)
        message = self.error_of(evaluate, graph.labels.copy(), task)
        assert message == "empty test split"
        for shots in ((4,), (1, 4)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                run_experiment(tiny_spec(graph, encoder, shots=shots))
        spec = tiny_spec(graph, encoder, shots=(3,))
        assert harness._checked(spec) is spec

    def test_default_protocol_constants(self):
        assert DEFAULT_SEEDS == (42, 12345, 23344, 38108, 39788)
        assert DEFAULT_RUNS == 20
        cfg = TuneConfig()
        assert cfg.max_epochs == 2000
        assert cfg.patience == 20


class TestSweep:
    def test_singleton_grid_equals_plain_experiment(self, sbm, encoder, tmp_path):
        spec = tiny_spec(sbm, encoder)
        plain = run_experiment(spec)
        swept = sweep("tau", [0.9], spec)
        assert [r.accuracy for r in swept.records] == [r.accuracy for r in plain.records]

    def test_grid_produces_one_section_per_value(self, sbm, encoder):
        spec = tiny_spec(sbm, encoder)
        table = sweep("tau", [0.9, 1.0], spec)
        params = {r.param for r in table.records}
        assert params == {0.9, 1.0}

    def test_k_sweep_includes_table_default(self, sbm, encoder):
        spec = tiny_spec(sbm, encoder)
        table = sweep("k", [4, 8], spec)
        assert {r.param for r in table.records} == {4, 8}

    def test_fractional_k_rejected_before_any_run(self, sbm, encoder, monkeypatch):
        import uniprompt.harness as harness_mod

        monkeypatch.setattr(harness_mod, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
        with pytest.raises(ValueError, match=r"^sweep grid: k must be integers, got \[4, 2\.5\]$"):
            sweep("k", [4, 2.5], tiny_spec(sbm, encoder))

    def test_empty_grid_rejected(self, sbm, encoder):
        with pytest.raises(ValueError, match="empty"):
            sweep("tau", [], tiny_spec(sbm, encoder))

    @pytest.mark.parametrize("param, grid, values", [("tau", [0.5, 0.5], "[0.5, 0.5]"),
                                                      ("k", [4, 4.0], "[4, 4]"),
                                                      ("noise", [0, 0.0], "[0.0, 0.0]")])
    def test_repeated_value_rejected_before_any_run(self, sbm, encoder, monkeypatch,
                                                    param, grid, values):
        # equal once converted to the parameter's type: a cell run twice
        # would count twice the runs
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
        with pytest.raises(ValueError, match=f"^sweep grid must not repeat a value, "
                                             f"got {re.escape(values)}$"):
            sweep(param, grid, tiny_spec(sbm, encoder))

    def test_unknown_param_rejected(self, sbm, encoder):
        with pytest.raises(ValueError, match="unknown sweep"):
            sweep("gamma", [1.0], tiny_spec(sbm, encoder))


class TestNoiseRobustness:
    def test_is_the_noise_sweep(self, sbm, encoder):
        spec = tiny_spec(sbm, encoder)
        kept, swept = noise_robustness([0.0, 0.2], spec), sweep("noise", [0.0, 0.2], spec)
        assert kept.records == swept.records
        assert kept.param_name == swept.param_name == "noise"

    def test_level_zero_equals_baseline(self, sbm, encoder):
        spec = tiny_spec(sbm, encoder)
        base = run_experiment(spec)
        noisy = noise_robustness([0.0], spec)
        assert [r.accuracy for r in noisy.records] == [r.accuracy for r in base.records]

    def test_three_levels_three_sections(self, sbm, encoder):
        table = noise_robustness([0.0, 0.01, 0.2], tiny_spec(sbm, encoder))
        assert {r.param for r in table.records} == {0.0, 0.01, 0.2}

    def test_noisy_graphs_share_the_graph_operator(self, sbm, encoder, monkeypatch):
        import uniprompt.graphs as graphs_mod

        sbm.normalized_adjacency()
        calls = []
        real = graphs_mod.symmetric_normalize
        monkeypatch.setattr(graphs_mod, "symmetric_normalize",
                            lambda adj: calls.append(1) or real(adj))
        noise_robustness([0.1], tiny_spec(sbm, encoder))
        assert calls == []

    def test_fresh_graph_builds_the_operator_once_per_cell(self, encoder, monkeypatch):
        # the first noisy run builds the operator for every graph on these edges
        import uniprompt.graphs as graphs_mod

        fresh = generate_sbm(60, 3, 0.3, 0.05, 8, 3.0, seed=4)
        calls = []
        real = graphs_mod.symmetric_normalize
        monkeypatch.setattr(graphs_mod, "symmetric_normalize",
                            lambda adj: calls.append(1) or real(adj))
        noise_robustness([0.1, 0.2], tiny_spec(fresh, encoder))
        fresh.normalized_adjacency()  # built by the noisy runs for the base graph too
        assert len(calls) == 1

    def test_empty_level_list_rejected(self, sbm, encoder):
        # as an empty sweep grid: no table of only a header
        with pytest.raises(ValueError, match="^sweep grid is empty$"):
            sweep("noise", [], tiny_spec(sbm, encoder))

    def test_negative_level_rejected(self, sbm, encoder):
        with pytest.raises(ValueError, match="non-negative"):
            noise_robustness([-0.1], tiny_spec(sbm, encoder))

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_non_finite_level_rejected_before_any_run(self, sbm, encoder, monkeypatch, level):
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
        with pytest.raises(ValueError, match=f"^noise_sigma must be finite and non-negative, "
                                             f"got {level}$"):
            sweep("noise", [0.0, level], tiny_spec(sbm, encoder))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_spec_noise_must_be_finite_and_non_negative(self, sbm, encoder, sigma):
        with pytest.raises(ValueError, match=f"^noise_sigma must be finite and non-negative, "
                                             f"got {sigma}$"):
            run_experiment(tiny_spec(sbm, encoder, noise_sigma=sigma))


def reference_sbm(n, classes, p_in, p_out, feature_dim, feature_sep, seed):
    """The generator as it drew the whole upper triangle at once, O(n^2)
    memory: the draws ``generate_sbm`` must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    sizes = np.full(classes, n // classes)
    sizes[: n % classes] += 1
    labels = np.repeat(np.arange(classes), sizes)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(iu.size) < prob
    src = np.concatenate([iu[keep], ju[keep]])
    dst = np.concatenate([ju[keep], iu[keep]])
    means = np.zeros((classes, feature_dim))
    means[np.arange(classes), np.arange(classes)] = feature_sep / np.sqrt(2.0)
    features = means[labels] + rng.standard_normal((n, feature_dim))
    return Graph(n, src, dst, features, labels, classes)


class TestGenerateSbm:
    @pytest.mark.parametrize("n, block", [(5, None), (5, 1), (77, None), (77, 400),
                                          (300, None), (2708, None)])
    def test_blocked_draws_match_the_whole_triangle(self, monkeypatch, n, block):
        if block is not None:  # blocks of one row, or of a few rows
            monkeypatch.setattr(harness, "SBM_BLOCK_PAIRS", block)
        args = (n, 5, min(0.9, 40 / n), min(0.3, 10 / n), 8, 3.0, 3)
        got, want = generate_sbm(*args), reference_sbm(*args)
        for key in ("src", "dst", "features", "labels"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key

    def test_zero_cross_probability_gives_homophily_one(self):
        g = generate_sbm(100, 4, 0.1, 0.0, 8, 2.0, seed=0)
        assert edge_homophily(g) == 1.0

    def test_equal_probabilities_give_chance_homophily(self):
        g = generate_sbm(400, 4, 0.05, 0.05, 8, 2.0, seed=1)
        assert abs(edge_homophily(g) - 0.25) < 0.03

    def test_edge_count_matches_binomial(self):
        n, p = 400, 0.05
        g = generate_sbm(n, 4, p, p, 8, 2.0, seed=2)
        expected = p * n * (n - 1) / 2
        assert abs(g.num_undirected_edges - expected) <= 3 * math.sqrt(expected)

    def test_balanced_classes(self):
        g = generate_sbm(103, 4, 0.1, 0.1, 8, 2.0, seed=3)
        counts = np.bincount(g.labels)
        assert counts.max() - counts.min() <= 1

    def test_feature_separation(self):
        sep = 3.5
        g = generate_sbm(4000, 4, 0.0, 0.0, 8, sep, seed=4)
        means = np.stack([g.features[g.labels == c].mean(axis=0) for c in range(4)])
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.linalg.norm(means[a] - means[b]) == pytest.approx(sep, abs=0.15)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            generate_sbm(50, 3, 1.5, 0.1, 8, 2.0, seed=0)

    def test_feature_dim_must_cover_classes(self):
        with pytest.raises(ValueError, match="feature_dim"):
            generate_sbm(50, 5, 0.1, 0.1, 3, 2.0, seed=0)
