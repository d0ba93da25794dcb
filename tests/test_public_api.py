"""Public-API contract tests: exports exist, are documented, and importable."""

from __future__ import annotations

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.a2a",
    "repro.core.x2y",
    "repro.core.multiway",
    "repro.binpack",
    "repro.covering",
    "repro.engine",
    "repro.obs",
    "repro.planner",
    "repro.service",
    "repro.workloads",
    "repro.apps",
    "repro.analysis",
    "repro.io",
    "repro.cli",
    "repro.utils",
    "repro.exceptions",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize(
    "module_name",
    [m for m in PUBLIC_MODULES if m not in ("repro.cli", "repro.exceptions", "repro.utils")],
)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_are_documented(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    names = exported if exported is not None else [
        n for n in dir(module) if not n.startswith("_")
    ]
    undocumented = []
    for name in names:
        obj = getattr(module, name, None)
        # Only classes and functions carry docstrings; type aliases and
        # registry dicts are documented at the module level.
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_star_import_is_clean():
    namespace: dict[str, object] = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate API check
    assert "solve_a2a" in namespace
    assert "A2AInstance" in namespace
