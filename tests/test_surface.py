"""The package's public names: each is declared once, in its module's
__all__, and the package re-exports those lists in import order."""

import ast
import importlib
import inspect

import pytest

import subgauss

MODULES = ["core", "errors", "optimize", "oracles", "report", "sums", "verify"]


def test_package_all_is_the_modules_all_in_order():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"subgauss.{name}").__all__
    assert subgauss.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in MODULES:
        module = importlib.import_module(f"subgauss.{name}")
        for public in module.__all__:
            assert getattr(subgauss, public) is getattr(module, public)
    assert subgauss.__version__ == importlib.import_module("subgauss._version").__version__


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_defined_where_declared(name):
    module = importlib.import_module(f"subgauss.{name}")
    defined = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert set(module.__all__) <= defined - {"__all__"}
