"""Every name a module imports is used there or re-exported, and no function
imports it again; every function and class the package defines is
referenced somewhere; every module imports only the standard library and
nullkan; budget errors are raised only by the step meter and the
minimality guard; the benchmark tracer's targets exist; and importing the
CLI loads every traced module but not `dataclasses` or `inspect`."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nullkan"
ROOT = SRC.parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def reimported_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line, for every import inside a function of a name that the
    module already imports at the top."""
    top = imported_names(
        ast.Module([n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))], [])
    )
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out |= {k: v for k, v in imported_names(node).items() if k in top}
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_reimports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    again = reimported_names(tree)
    assert not again, f"{path.name}: imported again inside a function {again}"


def test_reimport_detector_flags_a_local_import():
    tree = ast.parse(
        "import os\nfrom json import dumps\n"
        "def f():\n    import os\n    import sys\n    return os, sys\n"
        "def g():\n    from json import dumps, loads\n    return dumps, loads\n"
    )
    assert reimported_names(tree) == {"os": 4, "dumps": 8}


def constructor_sites(tree: ast.Module, cls: str) -> set[str]:
    """Qualified names of the functions (or "<module>") that call `cls`."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == cls:
                    out.add(prefix.rstrip(".") or "<module>")
            visit(child, prefix)

    visit(tree, "")
    return out


def test_budget_errors_come_from_the_meter_and_the_guard():
    # Every exhaustive search counts its steps with fincat's meter; only
    # the minimality guard refuses on a fixed bound instead.
    sites = {
        (path.name, site)
        for path in sorted(SRC.glob("*.py"))
        for site in constructor_sites(
            ast.parse(path.read_text(encoding="utf-8")), "BudgetExceeded"
        )
    }
    assert sites == {("fincat.py", "_Meter.step"), ("construct.py", "verify_minimality")}


def test_constructor_detector_finds_each_site():
    tree = ast.parse(
        "class M:\n    def step(self):\n        raise E('x', 1)\n"
        "def g():\n    def inner():\n        return fincat.E('y', 2)\n    return inner\n"
        "ERR = E('z', 3)\ndef h():\n    return F()\n"
    )
    assert constructor_sites(tree, "E") == {"M.step", "g.inner", "<module>"}


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Qualified name -> line, for every non-dunder function and class,
    methods and nested definitions included."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    out[prefix + name] = child.lineno
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    """Names, attributes, imported names and string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_is_used():
    # A definition that nothing in the package, its tests or the benchmark
    # refers to is dead code.
    scanned = [
        *SRC.glob("*.py"),
        *(ROOT / "tests").rglob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
    ]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in scanned}
    referenced = set().union(*map(referenced_names, trees.values()))
    unused = [
        f"{path.name}:{line} {qualname}"
        for path in sorted(SRC.glob("*.py"))
        for qualname, line in defined_names(trees[path]).items()
        if qualname.rsplit(".", 1)[-1] not in referenced
    ]
    assert not unused, f"unreferenced definitions: {unused}"


def test_definition_detector_flags_an_unused_function():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def idle(self): pass\n"
        "def f(): return A().used()\n"
        "def g(): pass\n"
        "def h(): pass\n"
        "HOOKS = [f, 'h']\n"
    )
    referenced = referenced_names(tree)
    unused = {q for q in defined_names(tree) if q.rsplit(".", 1)[-1] not in referenced}
    assert unused == {"A.idle", "g"}


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


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_exist():
    # The traced benchmark run patches these by name, so a rename would
    # otherwise surface only when someone runs it with --trace 1.
    tracer = load_tracer()
    for module, function in tracer.TIMED:
        target = getattr(importlib.import_module(f"nullkan.{module}"), function, None)
        assert inspect.isfunction(target), f"nullkan.{module}.{function}"
    fincat = importlib.import_module("nullkan.fincat")
    assert inspect.isgeneratorfunction(fincat.enumerate_functors)


def test_cli_import_loads_traced_modules_but_no_dataclasses():
    # Every verdict is a fresh process that pays for what `import
    # nullkan.cli` loads, and the traced benchmark run wraps the modules
    # that import has loaded.
    probe = (
        "import sys; before = set(sys.modules); import nullkan.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = set(
        subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
    )
    assert not loaded & {"dataclasses", "inspect"}
    assert {f"nullkan.{home}" for home, _ in load_tracer().TIMED} <= loaded
