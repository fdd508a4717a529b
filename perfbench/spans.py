"""Span tracing of the uniprompt modules, installed from outside the program.

A traced pass replaces the public functions of each module with wrappers that
record one span per call (name, start, end, parent, run id) into in-memory
lists, plus exact counts (flops, nnz, bytes, epochs) taken from the call's
arguments and result. Every namespace that bound a function through
``from .x import y`` is patched, and ``uninstall`` puts every original back.
Nothing is written until the caller dumps the spans at the end of the run.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
import time
from pathlib import Path

# (module, function) pairs wrapped by name; "Class.method" patches the class.
# Every registered autodiff op is wrapped too (see ``targets``).
TARGETS = (
    ("autodiff", "sub"),
    ("autodiff", "backward"),
    ("autodiff", "adam_step"),
    ("graphs", "load_graph_bundle"),
    ("graphs", "knn_prompt_init"),
    ("graphs", "symmetric_normalize"),
    ("graphs", "SparseAdj.from_coo"),
    ("encoder", "encode"),
    ("encoder", "classify"),
    ("encoder", "encoder_checkpoint_hash"),
    ("encoder", "load_encoder"),
    ("prompt", "run_method"),
    ("prompt", "bootstrap_fuse"),
    ("prompt", "random_support_like"),
    ("pretrain", "pretrain"),
    ("pretrain", "pretrain_with_history"),
    ("pretrain", "infonce_loss"),
    ("pretrain", "scaled_cosine_error"),
    ("harness", "run_experiment"),
    ("harness", "noise_robustness"),
    ("harness", "sample_k_shot"),
    ("harness", "evaluate"),
    ("harness", "ResultTable.to_csv"),
    ("seeds", "rng_stream"),
)


def targets(package):
    """TARGETS plus one entry per op in ``autodiff.REGISTERED_OPS``."""
    return [("autodiff", op) for op in package.autodiff.REGISTERED_OPS] + list(TARGETS)


# Operations: each tuning run and each pretraining call starts a new run id.
OPERATIONS = {"prompt.run_method", "pretrain.pretrain", "pretrain.pretrain_with_history"}

# Spans subtracted from a tuning run before dividing by its epochs.
PER_RUN_SETUP = ("graphs.knn_prompt_init", "prompt.random_support_like")

NOISE_CELL = "harness.noise_robustness"


def method_key(method):
    """Metric-safe method id: ``ablate:simple_add`` -> ``ablate-simple_add``."""
    return method.replace(":", "-")


class Tracer:
    """In-memory span recorder. Spans are parallel lists indexed by span id;
    ``parents`` holds -1 for a root span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names, self.starts, self.ends, self.parents, self.runs = [], [], [], [], []
        self.counts = collections.Counter()
        self.epochs = collections.Counter()
        self._stack = []
        self._run = 0
        self._next_run = 1
        self._patches = []

    # -- recording ---------------------------------------------------------

    def open(self, name, operation=False):
        outer_run = self._run
        if operation:
            self._run = self._next_run
            self._next_run += 1
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.runs.append(self._run)
        self.ends.append(None)
        self._stack.append((span, outer_run))
        self.starts.append(self.clock())
        return span

    def close(self, span):
        end = self.clock()
        top, outer_run = self._stack.pop()
        if top != span:
            raise RuntimeError(f"span {self.names[span]} closed out of order")
        self.ends[span] = end
        self._run = outer_run

    def inside(self, name):
        return any(self.names[span] == name for span, _ in self._stack)

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every target in ``package`` and each module that imported it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for module_name, attr in targets(package):
            module = sys.modules[f"{package.__name__}.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                self._patches.append((cls, meth, raw, wrapped))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapped))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        """Restore every patched attribute; fail loudly if one was re-patched."""
        patches, self._patches = self._patches, []
        for owner, key, original, wrapped in reversed(patches):
            current = vars(owner)[key]
            if current is not wrapped:
                raise RuntimeError(f"{owner.__name__}.{key} changed while traced")
            setattr(owner, key, original)

    def _wrap(self, fn, name):
        tracer = self
        count = _COUNTERS.get(name)
        operation = name in OPERATIONS
        label = _LABELS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(tracer, args, kwargs)}"
            span = tracer.open(span_name, operation)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(tracer, span_name, args, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def durations(self):
        return [end - start for start, end in zip(self.starts, self.ends)]

    def summary(self):
        """{span name: (calls, inclusive s, self s)}. Inclusive time skips spans
        nested inside a span of the same name, so recursion is not counted
        twice; self time is a span's duration minus its children's."""
        dur = self.durations()
        child = [0.0] * len(dur)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[span]
        out = {}
        for span, name in enumerate(self.names):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            if not self._has_ancestor(span, name):
                incl += dur[span]
            out[name] = (calls + 1, incl, self_s + dur[span] - child[span])
        return out

    def _has_ancestor(self, span, name):
        parent = self.parents[span]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def run_time_less(self, prefix, excluded):
        """{span name: summed duration minus the topmost descendant spans named
        in ``excluded``} for every span whose name starts with ``prefix``."""
        dur = self.durations()
        children = collections.defaultdict(list)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(span)
        out = collections.Counter()
        for span, name in enumerate(self.names):
            if not name.startswith(prefix):
                continue
            spent = dur[span]
            stack = list(children[span])
            while stack:
                sub = stack.pop()
                if self.names[sub] in excluded:
                    spent -= dur[sub]
                else:
                    stack.extend(children[sub])
            out[name] += spent
        return out

    def dump(self, path):
        """Write every span as one tab-separated line."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w") as fh:
            fh.write("span\tparent\trun\tname\tstart_s\tend_s\n")
            for span, name in enumerate(self.names):
                fh.write(f"{span}\t{self.parents[span]}\t{self.runs[span]}\t{name}\t"
                         f"{self.starts[span]!r}\t{self.ends[span]!r}\n")
        os.replace(tmp, path)


def _spmm_flops(tracer, name, args, result):
    adj, x = args[0], args[1]
    nnz = adj.pattern.nnz if hasattr(adj, "pattern") else adj.nnz
    tracer.counts[f"{name}.flops"] += 2 * nnz * x.shape[1]


def _matmul_flops(tracer, name, args, result):
    (m, k), n = args[0].shape, args[1].shape[1]
    tracer.counts[f"{name}.flops"] += 2 * m * k * n


def _knn_nnz(tracer, name, args, result):
    tracer.counts[f"{name}.nnz"] += result.nnz


def _bundle_bytes(tracer, name, args, result):
    tracer.counts[f"{name}.bytes"] += sum(
        f.stat().st_size for f in Path(args[0]).iterdir() if f.is_file())


def _run_epochs(tracer, name, args, result):
    tracer.epochs[name.rsplit(".", 1)[1]] += result.epochs_run


def _pretrain_epochs(tracer, name, args, result):
    tracer.counts[f"{name}.epochs"] += args[1].epochs


_COUNTERS = {
    "autodiff.spmm": _spmm_flops,
    "autodiff.matmul": _matmul_flops,
    "graphs.knn_prompt_init": _knn_nnz,
    "graphs.load_graph_bundle": _bundle_bytes,
    "prompt.run_method": _run_epochs,
    "pretrain.pretrain": _pretrain_epochs,
    "pretrain.pretrain_with_history": _pretrain_epochs,
}


def _method_label(tracer, args, kwargs):
    method = method_key(args[0] if args else kwargs["method"])
    if method == "uniprompt" and tracer.inside(NOISE_CELL):
        return "uniprompt-noisy"
    return method


def _objective_label(tracer, args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return cfg.objective


_LABELS = {
    "prompt.run_method": _method_label,
    "pretrain.pretrain": _objective_label,
    "pretrain.pretrain_with_history": _objective_label,
}
