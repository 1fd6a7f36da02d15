"""Every name a module imports is used there or re-exported, and no function
imports it again; every function and class the package defines is
referenced somewhere; every module imports only the standard library and
nullkan; budget errors are raised only by the step meter and the
minimality guard; every parameter default is overridden by some call in
the package, bar a listed few; every module stays under 8,192 parser
tokens; the benchmark tracer's targets exist; and importing the CLI loads
every traced module but not `dataclasses` or `inspect`, and no standard
library module outside a pinned list."""

import ast
import functools
import importlib.util
import inspect
import os
import subprocess
import sys
import tokenize
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


def test_categories_are_validated_through_the_kept_report():
    # Every verdict reads the report `validated` keeps on the category, so
    # each category is validated once per run; only `materialize` validates
    # its comma and nullity categories directly, as nothing else reads them.
    sites = {
        (path.name, site)
        for path in sorted(SRC.glob("*.py"))
        for site in constructor_sites(
            ast.parse(path.read_text(encoding="utf-8")), "validate_category"
        )
    }
    assert sites == {("fincat.py", "validated"), ("cli.py", "_cmd_materialize")}


def test_setup_functors_are_checked_through_the_kept_reports():
    # Every functor is checked through the report `checked` keeps on it,
    # as every category is validated through `validated`: A1, the
    # saturation gate, `build_comma` and an associativity certificate all
    # read it, so j2, j1 and pi are checked once per run.
    sites = {
        (path.name, site)
        for path in sorted(SRC.glob("*.py"))
        for site in constructor_sites(
            ast.parse(path.read_text(encoding="utf-8")), "check_functor"
        )
    }
    assert sites == {("fincat.py", "checked")}


def test_only_build_comma_names_a_square():
    # A square's name is made once, when `build_comma` builds it; functors
    # between comma categories map squares by index and keep the target's
    # names.  An error may still name a square that is missing, so the
    # exception of every `raise` is left out of the search.
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                node.exc = None
        sites |= {(path.name, site) for site in constructor_sites(tree, "comma_mor")}
    assert sites == {("comma.py", "build_comma")}


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


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(qualified function name, parameter, place) for every parameter with
    a default; place is the index of the positional argument that fills it
    in a call (after `self` or `cls` in a method), None if keyword-only."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                skip = int(in_class and bool(pos) and pos[0].arg in ("self", "cls"))
                for i in range(len(pos) - len(a.defaults), len(pos)):
                    out.append((prefix + child.name, pos[i].arg, i - skip))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((prefix + child.name, arg.arg, None))
                visit(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return out


def passes(call: ast.Call, param: str, place: int | None) -> bool:
    """Does the call pass `param` by keyword or `**`, or by position or `*`?"""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return place is not None and (
        len(call.args) > place or any(isinstance(a, ast.Starred) for a in call.args)
    )


def called_as(qualname: str) -> str:
    """The name a call uses for the function `qualname`: a class's own name
    for its `__init__`, else the function's."""
    *outer, name = qualname.split(".")
    return outer[-1] if name == "__init__" and outer else name


def unpassed_defaults(trees: dict[str, ast.Module]) -> set[str]:
    """"module.function.parameter" for each parameter with a default that no
    call to a function of that name (see `called_as`), in any of the trees,
    passes."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return {
        f"{module}.{qualname}.{param}"
        for module, tree in trees.items()
        for qualname, param, place in defaulted_parameters(tree)
        if not any(passes(c, param, place) for c in calls.get(called_as(qualname), ()))
    }


# Defaults that only tests override: the seams and references they use.
UNPASSED_DEFAULTS = {
    # The argument list; the console script passes none.
    "cli.main.argv",
    # The seam for broken assignments.
    "construct.verify_invariance.assignment",
    # check_universal is a reference for the Kan steps.
    "kan.check_universal.target_transports",
    "kan.check_universal.budget",
    # run_lemma_suite passes these budgets by position, through the
    # checker it takes from LEMMA_CHECKS.
    "lemmas.check_precompose_invariance.budget",
    "lemmas.check_comma_inherits_adjoint.budget",
    "lemmas.check_kan_restrict_source.budget",
    "lemmas.check_kan_after_composite.budget",
}


def test_every_default_is_passed_inside_the_package():
    # A default that no call in the package overrides is an option that
    # only tests set, and a second code path to keep working.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert unpassed_defaults(trees) == UNPASSED_DEFAULTS


def test_default_detector_flags_an_unpassed_parameter():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "class K:\n    def m(self, x=0, y=0): pass\n"
        "def g(p=0, q=0): pass\n"
        "def h(r=0): pass\n"
        "f(0, 1, d=4)\nK().m(5)\ng(**opts)\nh(*args)\n"
    )
    assert unpassed_defaults({"mod": tree}) == {"mod.f.c", "mod.K.m.y"}


def test_default_detector_reads_a_class_call_as_its_init():
    tree = ast.parse(
        "class K:\n    def __init__(self, a=0, b=0): pass\n"
        "    def m(self, c=0): pass\n"
        "K(1)\nK().m(c=2)\n"
    )
    assert unpassed_defaults({"mod": tree}) == {"mod.K.__init__.b"}


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


# CPython 3.11's parser doubles its token buffers once a module passes
# 8,192 tokens; compiling such a module adds about 0.5 MB to the peak RSS
# of every command that imports it without cached bytecode.
PARSER_TOKENS = 8192


def parser_tokens(path: Path) -> int:
    """The tokens of `path` that reach the parser: all but comments and
    non-logical newlines."""
    with path.open(encoding="utf-8") as fh:
        skipped = (tokenize.COMMENT, tokenize.NL)
        return sum(t.type not in skipped for t in tokenize.generate_tokens(fh.readline))


def test_every_module_stays_under_the_parser_token_buffer():
    sizes = {path.name: parser_tokens(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in sizes.items() if n >= PARSER_TOKENS} == {}


def test_tracer_targets_exist():
    # The traced benchmark run patches these by name, so a rename would
    # otherwise surface only when someone runs it with --trace 1.
    tracer = load_tracer()
    for module, function in tracer.TIMED:
        target = getattr(importlib.import_module(f"nullkan.{module}"), function, None)
        assert inspect.isfunction(target), f"nullkan.{module}.{function}"
    fincat = importlib.import_module("nullkan.fincat")
    assert inspect.isgeneratorfunction(fincat.enumerate_functors)


@functools.cache
def modules_cli_import_adds() -> frozenset[str]:
    """The modules a fresh interpreter loads for `import nullkan.cli`."""
    probe = (
        "import sys; before = set(sys.modules); import nullkan.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return frozenset(
        subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
    )


def test_cli_import_loads_traced_modules_but_no_dataclasses():
    # Every verdict is a fresh process that pays for what `import
    # nullkan.cli` loads, and the traced benchmark run wraps the modules
    # that import has loaded.
    loaded = modules_cli_import_adds()
    assert not loaded & {"dataclasses", "inspect"}
    assert {f"nullkan.{home}" for home, _ in load_tracer().TIMED} <= loaded


# The standard library modules `import nullkan.cli` may add to those the
# interpreter has loaded at start-up.
CLI_STDLIB = {
    "__future__",
    "_blake2",
    "_hashlib",
    "_json",
    "argparse",
    "array",
    "gettext",
    "hashlib",
    "json",
    "json.decoder",
    "json.encoder",
    "json.scanner",
}


def test_cli_import_adds_only_pinned_stdlib_modules():
    # Most of a verdict's CPU is start-up, so a module the CLI starts to
    # load is added here on purpose, not by accident.
    loaded = {m for m in modules_cli_import_adds() if m.split(".")[0] != "nullkan"}
    assert loaded <= CLI_STDLIB, sorted(loaded - CLI_STDLIB)
