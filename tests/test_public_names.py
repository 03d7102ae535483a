"""Public names: every ``__all__`` entry resolves, and every attribute the
benchmark in ``apnbench/`` patches or reads still exists."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import apnlab

APNBENCH = Path(__file__).resolve().parent.parent / "apnbench"
MODULES = sorted(f"apnlab.{m.name}" for m in pkgutil.iter_modules(apnlab.__path__))


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


def test_worker_metadata_reads_existing_attributes():
    meta = _load("worker")._meta()
    assert meta["gf2basis_backend"] == "numpy"
