"""What the uniprompt modules import.

scipy's CSR kernels are loaded without the ``scipy.sparse`` package:
``autodiff`` loads the one extension module ``scipy.sparse._sparsetools``
from its file, so no uniprompt process pays for the package's ~300 modules.
The guard runs in a fresh interpreter, since this test process imports
``scipy.sparse`` for its oracles.

No module imports a name it never uses, apart from the listed exemptions."""

import ast
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import uniprompt
from uniprompt import autodiff as ad

KERNELS = "scipy.sparse._sparsetools"

GUARD = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys

    import numpy as np

    import uniprompt
    for info in pkgutil.iter_modules(uniprompt.__path__):
        importlib.import_module(f"uniprompt.{info.name}")
    from uniprompt import autodiff as ad
    from uniprompt.graphs import SparseAdj

    adj = SparseAdj.from_coo(4, [3, 0, 2, 0, 1], [0, 2, 1, 2, 3], [1.5, 2.0, -1.0, 0.25, 3.0])
    values = ad.parameter(adj.data.reshape(-1, 1))
    x = ad.parameter(np.arange(12.0).reshape(4, 3))
    out = ad.spmm(ad.SparseTensor(adj, values), x)
    ad.backward(ad.row_mean(ad.transpose(ad.row_mean(out))))
    assert x.grad is not None and values.grad is not None
    loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
    assert "scipy.sparse" not in sys.modules, loaded

    import scipy.sparse as sp
    assert sys.modules["scipy.sparse._sparsetools"] is ad.sparsetools
    mat = sp.csr_matrix((adj.data, adj.indices, adj.indptr), shape=(4, 4))
    y = np.random.default_rng(0).normal(size=(4, 5))
    got = np.zeros((4, 5))
    ad.sparsetools.csr_matvecs(4, 4, 5, adj.indptr, adj.indices, adj.data, y.ravel(), got.ravel())
    assert got.tobytes() == (mat @ y).tobytes()
    assert ad.spmm(adj, ad.constant(y)).data.tobytes() == (mat @ y).tobytes()
    print("ok")
""")


def test_no_uniprompt_module_imports_the_scipy_sparse_package():
    src = str(Path(uniprompt.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", GUARD], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_a_loaded_kernel_module_is_reused(monkeypatch):
    stand_in = types.ModuleType(KERNELS)
    monkeypatch.setitem(sys.modules, KERNELS, stand_in)
    assert ad._load_sparsetools() is stand_in


def test_a_missing_kernel_file_raises_naming_its_path(monkeypatch, tmp_path):
    # a scipy install without the extension: no fallback to the package
    monkeypatch.delitem(sys.modules, KERNELS)
    spec = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(ad.importlib.util, "find_spec",
                        lambda name: spec if name == "scipy" else None)
    expected = str(tmp_path / "sparse" / "_sparsetools")
    with pytest.raises(ImportError, match="missing") as raised:
        ad._load_sparsetools()
    assert expected in str(raised.value)
    assert KERNELS not in sys.modules


# (module, imported name) pairs that are bound for other modules' use
UNUSED_IMPORT_EXEMPTIONS = {
    # the package's submodules, bound on ``uniprompt`` and listed in __all__
    **{("__init__", name): "a submodule re-export"
       for name in ("autodiff", "graphs", "harness", "hyperparams", "pretrain", "prompt",
                    "theory")},
    ("prompt", "knn_prompt_init"): "perfbench's tracer wraps it in every namespace that "
                                   "imported it, and its test asserts this one",
}


def _unused_imports(tree):
    """Names bound by the imports of ``tree`` that it never reads. A dotted
    ``import a.b`` counts as used only where ``a.b`` itself is read."""
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            # a.b.c reads a, a.b and a.b.c; ast.walk visits the inner nodes too
            base, path = node.value, [node.attr]
            while isinstance(base, ast.Attribute):
                base, path = base.value, [base.attr, *path]
            if isinstance(base, ast.Name):
                read.add(".".join([base.id, *path]))
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", sorted(Path(uniprompt.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    unused = [name for name in _unused_imports(ast.parse(path.read_text()))
              if (path.stem, name) not in UNUSED_IMPORT_EXEMPTIONS]
    assert unused == []


def test_unused_import_guard_reads_names_and_dotted_paths():
    tree = ast.parse("import a.b\nimport a.c\nimport d as e\nfrom f import g, h as i\n"
                     "from __future__ import annotations\nx = a.b.run(g)\n")
    assert _unused_imports(tree) == ["a.c", "e", "i"]
