"""Numerical verification that a representation-level linear prompt composed
with a linear classifier collapses to a single linear classifier, both in
function space and along gradient-update paths.

The function-space identity is exact algebra on numpy logits. The gradient
steps come from the autodiff tape the tuning engine trains with. Each
single-parameter update path of the composed system induces exactly the
direct classifier step (checked to rounding); updating both composed
parameters simultaneously moves the merged classifier by twice the direct
step at first order, so the report also carries that gap explicitly, plus
the second-order remainder of the product update, which scales as eta^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

ORTHO_TOL = 1e-10
FUNCTION_TOL = 1e-12   # composed vs direct logits
REMAINDER_RATIO = 4.0  # remainder(eta) / remainder(eta / 2) for an eta^2 term
RATIO_SLACK = 0.8      # +- 20%
NUM_SAMPLES = 8        # labeled representations per case, for the loss
MAX_DIM = 16           # the sweep draws prompt widths from [2, MAX_DIM]
MAX_CLASSES = 8        # and class counts from [2, MAX_CLASSES]


@dataclass
class EquivalenceCase:
    """A linear prompt h -> Wp h + bp followed by a linear classifier
    z -> Wc^T z, with sample representations and labels for the loss."""

    prompt_weight: np.ndarray   # (d_out, d_in)
    prompt_bias: np.ndarray     # (d_out,)
    clf_weight: np.ndarray      # (d_out, C)
    samples: np.ndarray         # (n, d_in)
    labels: np.ndarray          # (n,)

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


def random_case(in_dim, out_dim, num_classes, rng=None):
    rng = np.random.default_rng(rng)
    return EquivalenceCase(
        prompt_weight=rng.normal(size=(out_dim, in_dim)),
        prompt_bias=rng.normal(size=out_dim),
        clf_weight=rng.normal(size=(out_dim, num_classes)),
        samples=rng.normal(size=(NUM_SAMPLES, in_dim)),
        labels=rng.integers(0, num_classes, size=NUM_SAMPLES),
    )


def orthogonal_case(dim, num_classes, rng=None):
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
        samples=rng.normal(size=(NUM_SAMPLES, dim)),
        labels=rng.integers(0, num_classes, size=NUM_SAMPLES),
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


def gradient_steps(case, eta):
    """One descent step of mean cross-entropy at rate eta, from ``ad.backward``:
    (dWp, dbp, dWc) on the composed loss CE((h Wp^T + bp) Wc) and (dW', db')
    on the direct loss CE(h W' + b'). Biases are (1, width) rows."""
    h = ad.constant(case.samples)
    wp = ad.parameter(case.prompt_weight)
    bp = ad.parameter(case.prompt_bias[None, :])
    wc = ad.parameter(case.clf_weight)
    prompted = ad.add(ad.matmul(h, ad.transpose(wp)), bp)
    composed = ad.cross_entropy(ad.matmul(prompted, wc), case.labels)
    merged_w, merged_b = compose(case)
    w = ad.parameter(merged_w)
    b = ad.parameter(merged_b[None, :])
    direct = ad.cross_entropy(ad.add(ad.matmul(h, w), b), case.labels)
    # the two losses share no parameter: one backward of their sum gives each
    # parameter the gradient of its own loss
    params = [wp, bp, wc, w, b]
    grads = ad.backward(ad.add(composed, direct), params=params)
    return [-eta * grads[p] for p in params]


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


def verify_gradient_equivalence(case, eta):
    """One gradient-descent step at rate eta on the composed parameters;
    compare every induced merged-classifier change against the direct
    classifier step."""
    wp, bp, wc = case.prompt_weight, case.prompt_bias[None, :], case.clf_weight
    d, c = wp.shape[1], wc.shape[1]
    if wp.shape[0] != d:
        raise ValueError("gradient check needs a square prompt weight")
    if np.abs(wp.T @ wp - np.eye(d)).max() > ORTHO_TOL:
        raise ValueError("prompt weight is not orthogonal")
    if np.abs(wc.T @ wc - np.eye(c)).max() > ORTHO_TOL:
        raise ValueError("classifier weight does not have orthonormal columns")
    if np.abs(bp).max() > ORTHO_TOL:
        raise ValueError("gradient check requires zero prompt bias")

    d_wp, d_bp, d_wc, direct_w, direct_b = gradient_steps(case, eta)
    first_order = wp.T @ d_wc + d_wp.T @ wc
    true_change = (wp + d_wp).T @ (wc + d_wc) - wp.T @ wc
    induced_bias = d_bp @ wc + bp @ d_wc

    return GradientPathReport(
        eta=float(eta),
        clf_path_deviation=float(np.abs(wp.T @ d_wc - direct_w).max()),
        prompt_path_deviation=float(np.abs(d_wp.T @ wc - direct_w).max()),
        bias_path_deviation=float(np.abs(induced_bias - direct_b).max()),
        second_order_remainder=float(np.abs(true_change - first_order).max()),
        simultaneous_vs_direct=float(np.abs(first_order - direct_w).max()),
    )


@dataclass
class VerificationSummary:
    """Sweep maxima, and the one place that decides PASS or FAIL."""

    trials: int
    eta: float
    max_function_deviation: float
    prediction_agreement: float
    max_path_deviation: float
    max_remainder: float
    remainder_ratio: float
    max_simultaneous_gap: float

    @property
    def gradient_tol(self):
        return 50.0 * self.eta**2

    @property
    def verdicts(self):
        """Pass/fail of each checked report line, in report order."""
        return {
            "function": self.max_function_deviation <= FUNCTION_TOL,
            "agreement": self.prediction_agreement == 1.0,
            "paths": self.max_path_deviation <= self.gradient_tol,
            "remainder": (self.max_remainder <= self.gradient_tol
                          and abs(self.remainder_ratio - REMAINDER_RATIO) <= RATIO_SLACK),
        }

    @property
    def passed(self):
        return all(self.verdicts.values())


def run_verification(trials=1000, eta=1e-4, seed=0):
    """Random-case sweep used by the CLI and the acceptance gate; a sweep of
    no trials or of a zero step would pass without checking anything."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    rng = np.random.default_rng(seed)
    max_fn_dev = max_path = max_rem = max_sim = 0.0
    min_agree = 1.0
    ratios = []
    for _ in range(trials):
        d_in = int(rng.integers(2, MAX_DIM + 1))
        d_out = int(rng.integers(2, MAX_DIM + 1))
        classes = int(rng.integers(2, MAX_CLASSES + 1))
        case = random_case(d_in, d_out, classes, rng=rng)
        max_fn_dev = max(max_fn_dev, verify_function_equivalence(case, 10, rng=rng))
        min_agree = min(min_agree, prediction_agreement(case, 10, rng=rng))

        dim = max(2, d_in)
        classes = min(classes, dim)
        ocase = orthogonal_case(dim, classes, rng=rng)
        full = verify_gradient_equivalence(ocase, eta)
        half = verify_gradient_equivalence(ocase, eta / 2.0)
        max_path = max(max_path, full.max_path_deviation)
        max_rem = max(max_rem, full.second_order_remainder)
        max_sim = max(max_sim, full.simultaneous_vs_direct)
        if half.second_order_remainder > 0:
            ratios.append(full.second_order_remainder / half.second_order_remainder)
    ratio = float(np.median(ratios)) if ratios else REMAINDER_RATIO
    return VerificationSummary(
        trials=trials,
        eta=eta,
        max_function_deviation=max_fn_dev,
        prediction_agreement=min_agree,
        max_path_deviation=max_path,
        max_remainder=max_rem,
        remainder_ratio=ratio,
        max_simultaneous_gap=max_sim,
    )


def format_report(summary):
    s, tol = summary, summary.gradient_tol
    verdict = {name: "PASS" if ok else "FAIL" for name, ok in s.verdicts.items()}
    lines = [
        f"cases: {s.trials}, eta: {s.eta:g}",
        f"function equivalence: max deviation {s.max_function_deviation:.3e} "
        f"(tol {FUNCTION_TOL:g}) -> {verdict['function']}",
        f"prediction agreement: {s.prediction_agreement * 100:.2f}% -> {verdict['agreement']}",
        f"gradient paths (per-parameter vs direct step): max deviation "
        f"{s.max_path_deviation:.3e} (tol {tol:.3e}) -> {verdict['paths']}",
        f"second-order remainder: {s.max_remainder:.3e} (tol {tol:.3e}), "
        f"eta/2 ratio {s.remainder_ratio:.3f} "
        f"(expect {REMAINDER_RATIO:g} +- {RATIO_SLACK:g}) -> {verdict['remainder']}",
        f"note: simultaneous two-parameter step moves the merged classifier by "
        f"~2x the direct step (max gap {s.max_simultaneous_gap:.3e}); each "
        f"single-parameter path matches exactly.",
        f"overall: {'PASS' if s.passed else 'FAIL'}",
    ]
    return "\n".join(lines)
