"""The benchmark's tracer wraps uniprompt functions by name
(``perfbench/spans.py``); a traced run fails if one of them is gone, and
reads nothing for one that the program stops calling."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import uniprompt
from uniprompt import pretrain
from uniprompt.harness import generate_sbm


def load_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_spans().targets(uniprompt)
    assert ("encoder", "encode") in targets and ("graphs", "SparseAdj.from_coo") in targets
    missing = []
    for module_name, attr in targets:
        # a "Class.method" entry is patched on the class that defines it
        scope = vars(importlib.import_module(f"uniprompt.{module_name}"))
        *owner, name = attr.split(".")
        if owner:
            scope = vars(scope[owner[0]]) if owner[0] in scope else {}
        if name not in scope:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


@pytest.mark.parametrize("objective, loss", [("graphmae", "scaled_cosine_error"),
                                             ("grace", "infonce_loss")])
def test_one_pretraining_epoch_calls_its_traced_loss_once(objective, loss, monkeypatch):
    # the tracer rebinds the module attribute, as here; an epoch that reached
    # its loss another way would read 0 s under pretrain.<loss> and fail nothing
    calls = []
    original = getattr(pretrain, loss)

    def counted(*args, **kwargs):
        calls.append(objective)
        return original(*args, **kwargs)

    monkeypatch.setattr(pretrain, loss, counted)
    graph = generate_sbm(60, 3, 0.3, 0.03, 8, 3.0, seed=0)
    pretrain.pretrain(graph, pretrain.PretrainConfig(objective, epochs=1, hidden_dim=8,
                                                     embed_dim=8))
    assert calls == [objective]
