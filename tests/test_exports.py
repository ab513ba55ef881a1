"""Every name a heislab module lists in ``__all__`` exists in that module, so a
deleted function left in ``__all__`` fails here rather than at import time of
a caller's ``from heislab.x import *``; and the library itself uses every such
name, so an API that only the tests call fails here too."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import heislab

MODULES = ["heislab"] + [f"heislab.{m.name}" for m in pkgutil.iter_modules(heislab.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_are_defined(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


# exported names that no node names in full: `metric invert` and `metric
# sphericalize` reach these through the f-string "{command}_space" of
# `cli._metric_map`
BUILT_NAMES = {"finite_metric.invert_space", "finite_metric.sphericalize_space"}


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets)


def _named(node):
    """The name a Name, an Attribute or a string constant says, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _within(roots) -> set:
    return {id(node) for root in roots for node in ast.walk(root)}


# the one module that reads each name: the chunk size of `util._sampled`, and
# the stdout that the CLI writes as it writes `--output`
OWNERS = {"_CHUNK": {"util"}, "stdout": {"cli"}}


def test_each_decision_has_one_owner():
    readers = {name: set() for name in OWNERS}
    for path in Path(heislab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.name if isinstance(node, ast.alias) else _named(node)
            if name in readers:
                readers[name].add(path.stem)
    assert readers == OWNERS


def test_every_exported_name_is_called_in_the_library():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(heislab.__file__).parent.glob("*.py")}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    docstrings = [scope.body[0] for scope in nodes
                  if isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                        ast.AsyncFunctionDef)) and ast.get_docstring(scope)]
    skipped = _within(docstrings + [node for node in nodes if _is_all(node)])
    uncalled = set()
    for stem, tree in trees.items():
        if stem == "__init__":
            continue  # the package's __all__ lists its submodules
        exported = ast.literal_eval(next(node.value for node in tree.body if _is_all(node)))
        for name in exported:
            ignored = skipped | _within(node for node in tree.body  # its own def or class
                                        if getattr(node, "name", None) == name)
            if not any(_named(node) == name and id(node) not in ignored for node in nodes):
                uncalled.add(f"{stem}.{name}")
    assert uncalled == BUILT_NAMES
