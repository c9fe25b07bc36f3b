"""Public-API smoke tests: every exported name resolves and is documented."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.relational",
    "repro.deps",
    "repro.cfd",
    "repro.cind",
    "repro.md",
    "repro.repair",
    "repro.cqa",
    "repro.propagation",
    "repro.condensed",
    "repro.workloads",
]

MODULES = PACKAGES + [
    "repro.paper",
    "repro.errors",
    "repro.cli",
    "repro.rules_json",
    "repro.registry",
    "repro.session",
    "repro.relational.algebra",
    "repro.relational.csvio",
    "repro.relational.predicates",
    "repro.relational.query",
    "repro.deps.armstrong",
    "repro.deps.normalize",
    "repro.cfd.normal_form",
    "repro.cfd.inference",
    "repro.md.dedup",
    "repro.md.blocking",
    "repro.repair.master",
    "repro.cqa.aggregates",
    "repro.propagation.derive",
    "repro.condensed.wsd",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    """Every public class/function reachable from a package __all__ has a
    docstring — the deliverable's 'doc comments on every public item'."""
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if callable(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_an_import_without_numpy_fails_at_import_naming_numpy():
    """numpy is a dependency, not an option: with it unimportable,
    ``import repro.engine`` itself raises one ``ImportError`` that names
    numpy — no detect has to run for the missing dependency to show."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import repro.engine\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "    sys.exit(3)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 3, (done.stdout, done.stderr)
    assert "numpy" in done.stdout and done.stderr == ""
