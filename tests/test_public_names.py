"""Public names: every ``__all__`` entry resolves and has a caller outside
the tests, every attribute the benchmark in ``apnbench/`` patches or reads
still exists, the set-up of each benchmarked workload runs, and its tracer
still sees the translate closure's calls."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import apnlab
from apnlab import bitlinalg, invariants
from apnlab.gf2n import field_new
from apnlab.vbf import UnivariatePoly, to_table

from conftest import unskipped_closure

APNBENCH = Path(__file__).resolve().parent.parent / "apnbench"
MODULES = sorted(f"apnlab.{m.name}" for m in pkgutil.iter_modules(apnlab.__path__))
BENCHMARKED = [w["name"] for w in json.loads(
    (APNBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def _load(name: str):
    """Import ``apnbench/<name>.py`` by path, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"_apnbench_{name}", APNBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["apnlab"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    exec(f"from {name} import *", {})


def test_span_tracer_patches_existing_attributes():
    # install() looks every traced function and method up by name and
    # raises AttributeError or KeyError when one is gone
    tracer = _load("spans").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.spans == []
    from apnlab.gf2n import Field

    # the table-build span reads the cache slot directly
    assert hasattr(Field(4), "_exp")


@pytest.mark.parametrize("name", BENCHMARKED)
def test_benchmark_setup_runs(monkeypatch, name):
    # each benchmarked workload's set-up calls apnlab by name and reads what
    # it returns; a rename or a new return type fails here first
    monkeypatch.syspath_prepend(str(APNBENCH))
    state = _load("workloads").WORKLOADS[name].setup(1)
    assert isinstance(state, dict)


def test_worker_metadata_reads_existing_attributes():
    meta = _load("worker")._meta()
    assert meta["gf2basis_backend"] == "numpy"


def test_span_tracer_sees_the_translate_closure(monkeypatch):
    # the benchmark's per-layer evidence reads the closure's xor_permute and
    # absorb calls; with 64-row chunks the skip fires on Gold n=5
    monkeypatch.setattr(bitlinalg, "_CHUNK_ROWS", 64)
    absorbed = []

    class Counting(bitlinalg.GF2Basis):
        def absorb(self, rows, out=None):
            absorbed.append(rows.shape[0])
            return super().absorb(rows, out)

    monkeypatch.setattr(invariants, "GF2Basis", Counting)
    spans = _load("spans")
    table = to_table(UnivariatePoly.monomial(field_new(5), 3))
    tracer = spans.Tracer()
    tracer.install()
    try:
        rank_value = invariants.gamma_rank(table).gamma_rank
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, 0.0)
    assert metrics["invariants.rounds"] == 2 * 5
    assert metrics["bitlinalg.absorb_rows"] == sum(absorbed)
    assert metrics["bitlinalg.absorb_pivots"] == rank_value
    assert sum(absorbed) < unskipped_closure(table, 64)[3]


#: Paper lemmas that criterion 8 checks; no command calls them.
_UNREFERENCED_BY_DESIGN = {"verify_subfield_scaled_permutations",
                           "verify_adjoint_permutation_agreement"}


def _all_entries(tree: ast.Module) -> list[str]:
    """The strings of a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree: ast.Module, strings: bool) -> set[str]:
    """Names and attribute names the module reads (an assignment is no
    reference), and with ``strings`` its string constants (the benchmark's
    tracer patches by name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_has_a_caller():
    # an __all__ entry that no module of the package (its __init__ aside)
    # and no benchmark file reaches is dead code kept alive by its own tests
    src = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
           for p in Path(apnlab.__file__).parent.glob("*.py")
           if p.stem != "__init__"}
    reached = set().union(
        *(_references(tree, strings=False) for tree in src.values()),
        *(_references(ast.parse(p.read_text(encoding="utf-8")), strings=True)
          for p in APNBENCH.glob("*.py")))
    dead = [f"{module}.{name}" for module, tree in sorted(src.items())
            for name in _all_entries(tree)
            if name not in reached and name not in _UNREFERENCED_BY_DESIGN]
    assert dead == []


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names the module imports and never loads; a function parameter of the
    same name (a pytest fixture) counts as a load."""
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    return sorted(imported - read)


def test_every_import_is_read():
    # an import that nothing in its module loads is dead weight; the package
    # __init__ imports only to re-export, so it is exempt
    files = [p for p in sorted(Path(apnlab.__file__).parent.glob("*.py"))
             if p.stem != "__init__"] + sorted(Path(__file__).parent.glob("*.py"))
    unread = [f"{p.parent.name}/{p.name}: {name}" for p in files
              for name in _unread_imports(ast.parse(p.read_text(encoding="utf-8")))]
    assert unread == []
