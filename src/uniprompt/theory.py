"""Numerical verification that a representation-level linear prompt composed
with a linear classifier collapses to a single linear classifier, both in
function space and along gradient-update paths.

The function-space identity is exact algebra. For gradient updates, each
single-parameter update path of the composed system induces exactly the
direct classifier step (checked to rounding); updating both composed
parameters simultaneously moves the merged classifier by twice the direct
step at first order, so the report also carries that gap explicitly, plus
the second-order remainder of the product update, which scales as eta^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10


@dataclass
class EquivalenceCase:
    """A linear prompt h -> Wp h + bp followed by a linear classifier
    z -> Wc^T z, with sample representations and labels for the loss."""

    prompt_weight: np.ndarray   # (d_out, d_in)
    prompt_bias: np.ndarray     # (d_out,)
    clf_weight: np.ndarray      # (d_out, C)
    samples: np.ndarray         # (n, d_in)
    labels: np.ndarray          # (n,)
    eta: float = 1e-4

    def __post_init__(self):
        d_out, d_in = self.prompt_weight.shape
        if self.prompt_bias.shape != (d_out,):
            raise ValueError("prompt bias and prompt weight disagree")
        if self.clf_weight.shape[0] != d_out:
            raise ValueError("classifier input width must match prompt output width")
        if self.samples.shape[1] != d_in:
            raise ValueError("sample width must match prompt input width")
        if self.labels.shape != (self.samples.shape[0],):
            raise ValueError("one label per sample required")

    @property
    def num_classes(self):
        return self.clf_weight.shape[1]


def random_case(in_dim, out_dim, num_classes, num_samples=8, rng=None, eta=1e-4):
    rng = np.random.default_rng(rng)
    return EquivalenceCase(
        prompt_weight=rng.normal(size=(out_dim, in_dim)),
        prompt_bias=rng.normal(size=out_dim),
        clf_weight=rng.normal(size=(out_dim, num_classes)),
        samples=rng.normal(size=(num_samples, in_dim)),
        labels=rng.integers(0, num_classes, size=num_samples),
        eta=eta,
    )


def orthogonal_case(dim, num_classes, num_samples=8, rng=None, eta=1e-4):
    """Square orthogonal prompt (QR of a seeded Gaussian), orthonormal-column
    classifier, zero prompt bias."""
    if num_classes > dim:
        raise ValueError("orthonormal columns need num_classes <= dim")
    rng = np.random.default_rng(rng)
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return EquivalenceCase(
        prompt_weight=q1,
        prompt_bias=np.zeros(dim),
        clf_weight=q2[:, :num_classes],
        samples=rng.normal(size=(num_samples, dim)),
        labels=rng.integers(0, num_classes, size=num_samples),
        eta=eta,
    )


def compose(case):
    """Merged classifier (weight, bias): W' = Wp^T Wc, b' = Wc^T bp."""
    return case.prompt_weight.T @ case.clf_weight, case.clf_weight.T @ case.prompt_bias


def composed_logits(case, h):
    return (case.prompt_weight @ h.T + case.prompt_bias[:, None]).T @ case.clf_weight


def direct_logits(case, h):
    merged_w, merged_b = compose(case)
    return h @ merged_w + merged_b


def verify_function_equivalence(case, trials, rng=None):
    """Max over random unit-norm inputs of the composed-vs-direct gap."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng)
    d_in = case.prompt_weight.shape[1]
    h = rng.normal(size=(trials, d_in))
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    return float(np.abs(composed_logits(case, h) - direct_logits(case, h)).max())


def prediction_agreement(case, trials, rng=None):
    """Fraction of random inputs where composed and direct argmax agree."""
    rng = np.random.default_rng(rng)
    d_in = case.prompt_weight.shape[1]
    h = rng.normal(size=(trials, d_in))
    a = np.argmax(composed_logits(case, h), axis=1)
    b = np.argmax(direct_logits(case, h), axis=1)
    return float((a == b).mean())


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_output_grad(logits, labels):
    """d(mean CE)/d(logits) = (softmax - onehot) / n."""
    n = logits.shape[0]
    g = _softmax(logits)
    g[np.arange(n), labels] -= 1.0
    return g / n


@dataclass
class GradientPathReport:
    eta: float
    clf_path_deviation: float       # prompt_weight^T dWc  vs direct step
    prompt_path_deviation: float    # dWp^T clf_weight     vs direct step
    bias_path_deviation: float      # induced merged-bias  vs direct step
    second_order_remainder: float   # true product change vs first-order sum
    simultaneous_vs_direct: float   # first-order sum vs direct step (~2x gap)

    @property
    def max_path_deviation(self):
        return max(self.clf_path_deviation, self.prompt_path_deviation,
                   self.bias_path_deviation)

    @property
    def deviation(self):
        """Criterion quantity: path identities plus the cross-term remainder."""
        return max(self.max_path_deviation, self.second_order_remainder)


def verify_gradient_equivalence(case, eta=None):
    """One gradient-descent step of mean cross-entropy at rate eta on the
    composed parameters; compare every induced merged-classifier change
    against the direct classifier step."""
    eta = case.eta if eta is None else float(eta)
    wp, bp, wc = case.prompt_weight, case.prompt_bias, case.clf_weight
    d = wp.shape[1]
    c = wc.shape[1]
    if wp.shape[0] != d:
        raise ValueError("gradient check needs a square prompt weight")
    if np.abs(wp.T @ wp - np.eye(d)).max() > ORTHO_TOL:
        raise ValueError("prompt weight is not orthogonal")
    if np.abs(wc.T @ wc - np.eye(c)).max() > ORTHO_TOL:
        raise ValueError("classifier weight does not have orthonormal columns")
    if np.abs(bp).max() > ORTHO_TOL:
        raise ValueError("gradient check requires zero prompt bias")

    h = case.samples
    u = h @ wp.T + bp                       # (n, d) prompted representations
    g = cross_entropy_output_grad(u @ wc, case.labels)  # (n, C)

    grad_wc = u.T @ g                        # (d, C)
    grad_wp = wc @ g.T @ h                   # (d, d)
    grad_bp = wc @ g.sum(axis=0)             # (d,)
    grad_merged_w = h.T @ g                  # (d, C) direct classifier gradient
    grad_merged_b = g.sum(axis=0)            # (C,)

    d_wc = -eta * grad_wc
    d_wp = -eta * grad_wp
    d_bp = -eta * grad_bp
    direct_w = -eta * grad_merged_w
    direct_b = -eta * grad_merged_b

    first_order = wp.T @ d_wc + d_wp.T @ wc
    true_change = (wp + d_wp).T @ (wc + d_wc) - wp.T @ wc
    induced_bias = wc.T @ d_bp + d_wc.T @ bp

    return GradientPathReport(
        eta=eta,
        clf_path_deviation=float(np.abs(wp.T @ d_wc - direct_w).max()),
        prompt_path_deviation=float(np.abs(d_wp.T @ wc - direct_w).max()),
        bias_path_deviation=float(np.abs(induced_bias - direct_b).max()),
        second_order_remainder=float(np.abs(true_change - first_order).max()),
        simultaneous_vs_direct=float(np.abs(first_order - direct_w).max()),
    )


@dataclass
class VerificationSummary:
    trials: int
    eta: float
    max_function_deviation: float
    prediction_agreement: float
    max_path_deviation: float
    max_remainder: float
    max_remainder_half_eta: float
    remainder_ratio: float
    max_simultaneous_gap: float

    @property
    def function_ok(self):
        return self.max_function_deviation <= 1e-12 and self.prediction_agreement == 1.0

    @property
    def gradient_ok(self):
        tol = 50.0 * self.eta**2
        scaling_ok = abs(self.remainder_ratio - 4.0) <= 0.8  # 4x +- 20%
        return (
            self.max_path_deviation <= tol
            and self.max_remainder <= tol
            and scaling_ok
        )

    @property
    def passed(self):
        return self.function_ok and self.gradient_ok


def run_verification(trials=1000, eta=1e-4, seed=0, max_dim=16, max_classes=8):
    """Random-case sweep used by the CLI and the acceptance gate."""
    rng = np.random.default_rng(seed)
    max_fn_dev = 0.0
    min_agree = 1.0
    max_path = 0.0
    max_rem = 0.0
    max_rem_half = 0.0
    max_sim = 0.0
    ratios = []
    for _ in range(trials):
        d_in = int(rng.integers(2, max_dim + 1))
        d_out = int(rng.integers(2, max_dim + 1))
        classes = int(rng.integers(2, max_classes + 1))
        case = random_case(d_in, d_out, classes, rng=rng, eta=eta)
        max_fn_dev = max(max_fn_dev, verify_function_equivalence(case, 10, rng=rng))
        min_agree = min(min_agree, prediction_agreement(case, 10, rng=rng))

        dim = max(2, d_in)
        classes = min(classes, dim)
        ocase = orthogonal_case(dim, classes, rng=rng, eta=eta)
        full = verify_gradient_equivalence(ocase, eta)
        half = verify_gradient_equivalence(ocase, eta / 2.0)
        max_path = max(max_path, full.max_path_deviation)
        max_rem = max(max_rem, full.second_order_remainder)
        max_rem_half = max(max_rem_half, half.second_order_remainder)
        max_sim = max(max_sim, full.simultaneous_vs_direct)
        if half.second_order_remainder > 0:
            ratios.append(full.second_order_remainder / half.second_order_remainder)
    ratio = float(np.median(ratios)) if ratios else 4.0
    return VerificationSummary(
        trials=trials,
        eta=eta,
        max_function_deviation=max_fn_dev,
        prediction_agreement=min_agree,
        max_path_deviation=max_path,
        max_remainder=max_rem,
        max_remainder_half_eta=max_rem_half,
        remainder_ratio=ratio,
        max_simultaneous_gap=max_sim,
    )


def format_report(summary):
    tol = 50.0 * summary.eta**2
    lines = [
        f"cases: {summary.trials}, eta: {summary.eta:g}",
        f"function equivalence: max deviation {summary.max_function_deviation:.3e} "
        f"(tol 1e-12) -> {'PASS' if summary.max_function_deviation <= 1e-12 else 'FAIL'}",
        f"prediction agreement: {summary.prediction_agreement * 100:.2f}% "
        f"-> {'PASS' if summary.prediction_agreement == 1.0 else 'FAIL'}",
        f"gradient paths (per-parameter vs direct step): max deviation "
        f"{summary.max_path_deviation:.3e} (tol {tol:.3e}) -> "
        f"{'PASS' if summary.max_path_deviation <= tol else 'FAIL'}",
        f"second-order remainder: {summary.max_remainder:.3e} (tol {tol:.3e}), "
        f"eta/2 ratio {summary.remainder_ratio:.3f} (expect 4 +- 0.8) -> "
        f"{'PASS' if summary.max_remainder <= tol and abs(summary.remainder_ratio - 4) <= 0.8 else 'FAIL'}",
        f"note: simultaneous two-parameter step moves the merged classifier by "
        f"~2x the direct step (max gap {summary.max_simultaneous_gap:.3e}); each "
        f"single-parameter path matches exactly.",
        f"overall: {'PASS' if summary.passed else 'FAIL'}",
    ]
    return "\n".join(lines)

