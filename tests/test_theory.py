"""Prompt/classifier equivalence verification tests."""

import math
import re

import numpy as np
import pytest

from uniprompt.theory import (
    EquivalenceCase,
    compose,
    composed_logits,
    direct_logits,
    gradient_steps,
    orthogonal_case,
    prediction_agreement,
    random_case,
    run_verification,
    verify_function_equivalence,
    verify_gradient_equivalence,
)


def cross_entropy_output_grad(logits, labels):
    """Closed-form oracle: d(mean CE)/d(logits) = (softmax - onehot) / n."""
    n = logits.shape[0]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    g = e / e.sum(axis=1, keepdims=True)
    g[np.arange(n), labels] -= 1.0
    return g / n


class TestCompose:
    def test_identity_prompt(self):
        rng = np.random.default_rng(0)
        wc = rng.normal(size=(5, 3))
        case = EquivalenceCase(np.eye(5), np.zeros(5), wc,
                               rng.normal(size=(4, 5)), rng.integers(0, 3, 4))
        merged_w, merged_b = compose(case)
        assert np.array_equal(merged_w, wc)
        assert np.array_equal(merged_b, np.zeros(3))

    def test_scaling_prompt(self):
        rng = np.random.default_rng(1)
        wc = rng.normal(size=(4, 2))
        case = EquivalenceCase(2.0 * np.eye(4), np.zeros(4), wc,
                               rng.normal(size=(3, 4)), rng.integers(0, 2, 3))
        merged_w, _ = compose(case)
        assert np.allclose(merged_w, 2.0 * wc)

    def test_random_case_direct_evaluation(self):
        rng = np.random.default_rng(2)
        case = random_case(8, 6, 4, rng=rng)
        h = rng.normal(size=(100, 8))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        assert np.abs(composed_logits(case, h) - direct_logits(case, h)).max() <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EquivalenceCase(np.eye(3), np.zeros(3), np.zeros((4, 2)),
                            np.zeros((2, 3)), np.zeros(2, dtype=int))


class TestFunctionEquivalence:
    def test_random_cases_tiny_deviation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            case = random_case(int(rng.integers(2, 16)), int(rng.integers(2, 16)),
                               int(rng.integers(2, 8)), rng=rng)
            assert verify_function_equivalence(case, 50, rng=rng) <= 1e-12

    def test_large_magnitude_inputs_stay_conditioned(self):
        rng = np.random.default_rng(4)
        case = random_case(8, 8, 4, rng=rng)
        h = rng.normal(size=(50, 8))
        h *= 1e6 / np.linalg.norm(h, axis=1, keepdims=True)
        dev = np.abs(composed_logits(case, h) - direct_logits(case, h)).max()
        assert dev <= 1e-6

    def test_perturbed_composition_is_detected(self):
        # sensitivity sanity: a wrong merged weight must show up
        rng = np.random.default_rng(5)
        case = random_case(6, 6, 3, rng=rng)
        merged_w, merged_b = compose(case)
        h = rng.normal(size=(20, 6))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        wrong = h @ (merged_w + 1e-3) + merged_b
        dev = np.abs(composed_logits(case, h) - wrong).max()
        assert dev >= 1e-4  # ~delta * |h|_1 scale

    def test_argmax_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            case = random_case(8, 5, 4, rng=rng)
            assert prediction_agreement(case, 50, rng=rng) == 1.0

    def test_trials_validation(self):
        case = random_case(4, 4, 2, rng=0)
        with pytest.raises(ValueError):
            verify_function_equivalence(case, 0)


class TestGradientEquivalence:
    def test_eta_zero_gives_zero_deviation(self):
        case = orthogonal_case(6, 3, rng=0)
        report = verify_gradient_equivalence(case, eta=0.0)
        assert report.max_path_deviation == 0.0
        assert report.second_order_remainder == 0.0
        assert report.simultaneous_vs_direct == 0.0

    def test_paths_match_direct_step_within_tolerance(self):
        for seed in range(10):
            case = orthogonal_case(6, 3, rng=seed)
            report = verify_gradient_equivalence(case, eta=1e-4)
            assert report.max_path_deviation <= 50 * 1e-4**2
            assert report.second_order_remainder <= 50 * 1e-4**2

    def test_halving_eta_quarters_the_remainder(self):
        case = orthogonal_case(8, 4, rng=7)
        full = verify_gradient_equivalence(case, eta=1e-4)
        half = verify_gradient_equivalence(case, eta=5e-5)
        ratio = full.second_order_remainder / half.second_order_remainder
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_simultaneous_step_doubles_the_direct_step(self):
        # the two single-parameter paths each equal the direct step exactly,
        # so their sum overshoots by one extra direct step
        case = orthogonal_case(6, 3, rng=8)
        eta = 1e-4
        report = verify_gradient_equivalence(case, eta=eta)
        h = case.samples
        g = cross_entropy_output_grad(
            (h @ case.prompt_weight.T) @ case.clf_weight, case.labels
        )
        direct_scale = np.abs(eta * h.T @ g).max()
        assert report.simultaneous_vs_direct == pytest.approx(direct_scale, rel=1e-6)

    def test_rejects_non_orthogonal_prompt(self):
        case = orthogonal_case(5, 3, rng=9)
        case.prompt_weight[0, 0] += 1e-3
        with pytest.raises(ValueError, match="orthogonal"):
            verify_gradient_equivalence(case, eta=1e-4)

    def test_rejects_nonzero_bias(self):
        case = orthogonal_case(5, 3, rng=10)
        case.prompt_bias[0] = 0.5
        with pytest.raises(ValueError, match="bias"):
            verify_gradient_equivalence(case, eta=1e-4)

    def test_matches_tape_gradients(self):
        # the verifier's tape steps against the closed-form gradients; at
        # eta = 1 each step is exactly minus its gradient
        case = orthogonal_case(5, 3, rng=11)
        d_wp, d_bp, d_wc, d_w, d_b = gradient_steps(case, eta=1.0)
        h, wc = case.samples, case.clf_weight
        u = h @ case.prompt_weight.T
        g = cross_entropy_output_grad(u @ wc, case.labels)
        assert np.abs(-d_wc - u.T @ g).max() < 1e-12
        assert np.abs(-d_wp - wc @ g.T @ h).max() < 1e-12
        assert np.abs(-d_bp - (wc @ g.sum(axis=0))[None, :]).max() < 1e-12
        merged_w, merged_b = compose(case)
        g_direct = cross_entropy_output_grad(h @ merged_w + merged_b, case.labels)
        assert np.abs(-d_w - h.T @ g_direct).max() < 1e-12
        assert np.abs(-d_b - g_direct.sum(axis=0)[None, :]).max() < 1e-12


class TestRunVerification:
    @pytest.mark.parametrize("trials, eta, message", [
        (0, 1e-4, "trials must be at least 1, got 0"),
        (-3, 1e-4, "trials must be at least 1, got -3"),
        (5, 0.0, "eta must be finite and positive, got 0.0"),
        (5, -1e-4, "eta must be finite and positive, got -0.0001"),
        (5, math.nan, "eta must be finite and positive, got nan"),
        (5, math.inf, "eta must be finite and positive, got inf")])
    def test_vacuous_sweep_rejected(self, trials, eta, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_verification(trials=trials, eta=eta)

    def test_summary_passes(self):
        summary = run_verification(trials=50, eta=1e-4, seed=0)
        assert all(summary.verdicts.values()), summary.verdicts
        assert summary.passed
        assert summary.max_simultaneous_gap > summary.max_path_deviation
