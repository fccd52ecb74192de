"""Every public name a module declares exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fedhosp

MODULES = ["fedhosp"] + [f"fedhosp.{m.name}" for m in pkgutil.iter_modules(fedhosp.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
