"""Every name a module imports is used there or re-exported, the CLI
imports no numpy, and the benchmark tracer's targets exist."""

import ast
import importlib.util
import inspect
import os
import subprocess
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


def test_cli_import_does_not_load_numpy():
    # numpy serves validate_category only; every other command runs without it.
    env = dict(os.environ)
    paths = [str(SRC.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    code = "import nullkan.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
