"""The traced benchmark names library functions and their parameters in
``perfbench/run.py`` (LAYERS) and ``perfbench/tracing.py`` (SPECIAL_COUNTS);
``--trace 1`` aborts when one of them no longer exists."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assigned_dict(path, name):
    """The dict literal assigned to ``name`` at the top level of a file."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value, node
    raise AssertionError(f"{path.name} assigns no {name}")


def layer_names():
    value, _ = assigned_dict(PERFBENCH / "run.py", "LAYERS")
    return [ast.literal_eval(key) for key in value.keys]


def special_counts():
    """Traced name -> parameters its counter reads through ``_bound(...)[name]``."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            bound[node.name] = {
                sub.slice.value for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Call)
                and getattr(sub.value.func, "id", None) == "_bound"}
    value, _ = assigned_dict(PERFBENCH / "tracing.py", "SPECIAL_COUNTS")
    return {ast.literal_eval(k): bound[v.id] for k, v in zip(value.keys, value.values)}


def resolve(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"heislab.{module_name}")
    assert attr in module.__all__, f"{name} is not in the __all__ of heislab.{module_name}"
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
    return fn


@pytest.mark.parametrize("name", layer_names() + list(special_counts()))
def test_traced_name_is_a_public_function(name):
    resolve(name)


def test_counters_bind_existing_parameters():
    params = {name: names for name, names in special_counts().items() if names}
    assert set().union(*params.values()) == {"samples", "quads"}
    for name, names in params.items():
        signature = inspect.signature(resolve(name))
        assert names <= set(signature.parameters), (name, names)
