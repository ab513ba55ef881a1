"""The traced benchmark names library functions and their parameters in
``perfbench/run.py`` (LAYERS) and ``perfbench/tracing.py`` (SPECIAL_COUNTS),
and its counters read fields of the results; ``--trace 1`` aborts when one
of them no longer exists."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from heislab import hlie

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


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_calls():
    """Traced name -> (args, kwargs) of one small real call."""
    h_c1 = hlie.algebra_from_name("H_C:1")
    d = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0))) + 1.0 - np.eye(6)
    return {
        "hlie.check_h_type": ((h_c1,), {"samples": 50}),
        "hlie.check_j2": ((hlie.algebra_from_name("H_H:1"),), {"samples": 50}),
        "inversion.verify_inversion": ((h_c1,), {"samples": 200, "seed": 1}),
        "distortion.estimate_quasimobius": ((d, d), {"samples": 100, "seed": 1}),
        "distortion.estimate_regularity": ((h_c1, [0.5, 5.0]), {"samples": 2000, "seed": 1}),
        "distortion.cross_ratio_rows": ((d, np.array([[0, 1, 2, 3], [2, 3, 4, 5]])), {}),
        "util.canonical_json": (({"a": 1.5},), {}),
    }


@pytest.mark.parametrize("name", sorted(special_counts()))
def test_counters_read_real_results(name):
    # each counter reads fields such as pairs_used, samples and statistics[...]
    counter = load_tracing().SPECIAL_COUNTS[name]
    args, kwargs = small_calls()[name]
    fn = resolve(name)
    rows, nbytes, used, attempted = counter(fn, args, kwargs, fn(*args, **kwargs))
    assert all(isinstance(c, int) and c >= 0 for c in (rows, nbytes, used, attempted))
    assert rows + nbytes > 0
    assert used <= attempted and (used > 0) == (attempted > 0)
