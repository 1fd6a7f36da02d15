"""Every name a module imports is used there or re-exported, every module
imports only the standard library and nullkan, and the benchmark tracer's
targets exist."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nullkan"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import except `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detector_flags_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nloads('1')\n")
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"os", "dumps"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib(path):
    # The package has no runtime dependencies.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    outside = {
        m for m in modules
        if m.split(".")[0] not in sys.stdlib_module_names | {"nullkan"}
    }
    assert not outside, f"{path.name}: non-stdlib imports {sorted(outside)}"


def test_tracer_targets_exist():
    # The traced benchmark run patches these by name, so a rename would
    # otherwise surface only when someone runs it with --trace 1.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function in tracer.TIMED:
        target = getattr(importlib.import_module(f"nullkan.{module}"), function, None)
        assert inspect.isfunction(target), f"nullkan.{module}.{function}"
    fincat = importlib.import_module("nullkan.fincat")
    assert inspect.isgeneratorfunction(fincat.enumerate_functors)
