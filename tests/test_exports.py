"""Every exported name resolves to an attribute, so a stale entry in an
``__all__`` cannot break ``from orthoforms import *`` unnoticed; and every
name the traced benchmark wraps still exists, so deleting one cannot break
``benchmark/run.py --trace 1`` unnoticed."""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import orthoforms

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"

MODULES = [orthoforms] + [
    importlib.import_module(f"orthoforms.{info.name}")
    for info in pkgutil.iter_modules(orthoforms.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_attributes() -> dict:
    """(owner, name) -> value for every attribute of the loaded orthoforms
    modules and of the classes they define."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "orthoforms" and not mod_name.startswith("orthoforms."):
            continue
        for attr, value in vars(module).items():
            out[module, attr] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                out.update(((value, a), v) for a, v in vars(value).items())
    return out


def test_benchmark_tracer_installs_and_restores():
    """benchmark/layers.py installs on a fresh tracer without a missing
    name, and restoring leaves every library attribute as it was."""
    tracer = _bench_module("tracer").Tracer()
    before = _library_attributes()
    try:
        _bench_module("layers").install(tracer)
        assert tracer._patches
    finally:
        tracer.restore()
    after = _library_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
