"""Each package module imports only the package modules below it.

The layers, lowest first: checks, the one value check of every config class,
option, wire message and ``HospitalDataset``, imports no package module and
may be imported by every other; features, models, metrics and transport
import no package module but checks; data builds on features alone, as the
stand-in for the restricted clinical data; federation on data, metrics,
models and transport; experiment on everything below it, and cli on everything.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fedhosp

PACKAGE = Path(fedhosp.__file__).parent
_BELOW_EXPERIMENT = {"checks", "data", "features", "federation", "metrics", "models",
                     "transport"}
# module -> the package modules it may import
ALLOWED = {
    "checks": set(),
    "features": {"checks"},
    "models": {"checks"},
    "metrics": {"checks"},
    "transport": {"checks"},
    "data": {"checks", "features"},
    "federation": {"checks", "data", "metrics", "models", "transport"},
    "experiment": _BELOW_EXPERIMENT,
    "cli": _BELOW_EXPERIMENT | {"experiment"},
}


def _package_module(dotted: str) -> str | None:
    """``data`` for ``fedhosp.data`` or ``fedhosp.data.x``; None outside the package."""
    parts = dotted.split(".")
    return parts[1] if parts[0] == "fedhosp" and len(parts) > 1 else None


def package_imports(source: str) -> set[str]:
    """Every package module a module's ``source`` imports, at top level or in a function."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {_package_module(alias.name) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "fedhosp" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            if base == "fedhosp":  # from . import transport
                found |= {alias.name for alias in node.names}
            else:
                found.add(_package_module(base))
    return found - {None}


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_a_module_imports_only_the_layers_below_it(module):
    assert package_imports((PACKAGE / f"{module}.py").read_text()) <= ALLOWED[module]


def test_the_import_parser_sees_every_form():
    source = ("import fedhosp.models\nfrom . import transport as tp\nfrom .data import x\n"
              "from fedhosp.metrics import y\nfrom fedhosp import features\nimport numpy\n"
              "from numpy import fedhosp\ndef f():\n    from .federation import z\n")
    assert package_imports(source) == {"models", "transport", "data", "metrics", "features",
                                       "federation"}
