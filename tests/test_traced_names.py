"""The benchmark's tracer wraps uniprompt functions by name
(``perfbench/spans.py``); a traced run fails if one of them is gone."""

import importlib
import importlib.util
from pathlib import Path

import uniprompt


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
