"""The benchmark harness under perfbench/ reaches into websift by name: its
tracer patches module attributes and its input generator imports functions.
These tests fail when a rename or deletion in websift would break
`perfbench/run.py --trace 1` or input generation."""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)


def test_tracer_patches_resolve(perfbench_path):
    import measure

    assert measure.install_tracer(False) is None
    tracer = measure.install_tracer(True)
    try:
        assert tracer is not None
    finally:
        tracer.unpatch()


def websift_imports(path):
    """(module, name) for every `from websift... import name` in a file."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "websift"
        for alias in node.names
    ]


@pytest.mark.parametrize("script", ["gen.py", "child.py", "measure.py"])
def test_websift_names_imported_by_the_harness_exist(perfbench_path, script):
    importlib.import_module(script[:-3])
    names = websift_imports(os.path.join(PERFBENCH, script))
    assert names
    for module, name in names:
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            importlib.import_module(f"{module}.{name}")   # a submodule
