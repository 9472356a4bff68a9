"""Every exported name resolves to an attribute, so a stale entry in an
``__all__`` cannot break ``from orthoforms import *`` unnoticed."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import orthoforms

MODULES = [orthoforms] + [
    importlib.import_module(f"orthoforms.{info.name}")
    for info in pkgutil.iter_modules(orthoforms.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing

