"""Names the benchmark's tracer wraps must keep resolving in `rk`, as a
kind of object the tracer knows how to wrap, so a change that deletes,
renames or re-kinds one fails here and not only in traced benchmark
runs."""

import ast
import importlib
from pathlib import Path
from types import FunctionType

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    """`TARGETS` read from the tracer's source, which is neither run nor
    compiled to a cache file."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("layer,path", [
    (layer, path) for layer, path, _fn in _targets()] + [("weyl", "mat_mul")])
def test_traced_name_resolves(layer, path):
    owner = importlib.import_module("rk." + layer)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in vars(owner)
    # the tracer wraps a plain function, a property's getter or a
    # classmethod's function; anything else (a cached_property, say) it
    # would wrap as a plain function and break
    assert isinstance(vars(owner)[attr], (FunctionType, property, classmethod))
