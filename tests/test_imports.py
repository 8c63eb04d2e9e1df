"""Every name a ktrunc module, script or test imports is used in that
file.  Every public function and class a ktrunc module defines, and every
public method and property of those classes, is read outside the tests;
every parameter default of those, and every dataclass field default, is
overridden by some call outside the tests.  The homology path, kgroups and
hh import no numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ktrunc"
# Where a public name of ktrunc must be read for it to count as used.
READERS = (SRC, ROOT / "scripts", ROOT / "bench")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


# bench/ stays out: bench/tests/test_bench.py imports ktrunc.cli for its
# side effect, marked noqa
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted((ROOT / "scripts").glob("*.py"))
                         + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "os (line 1)", "b (line 2)"]


def test_the_homology_path_loads_no_numpy():
    """A fresh import of ssengine, which loads cycbar and exactalg, leaves
    numpy out of sys.modules: only route A's enumeration (wittsplit) needs
    it."""
    code = "import sys, ktrunc.ssengine; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["kgroups", "--p", "3", "--e", "4", "--r", "3"],
    ["hh", "--p", "3", "--e", "3", "--m", "11", "--dump-page", "hfp"],
], ids=lambda argv: argv[0])
def test_the_kgroups_and_hh_paths_load_no_numpy(argv):
    """A fresh ktrunc.cli.main on kgroups or hh leaves numpy out of
    sys.modules: wittsplit imports it only where route A enumerates."""
    code = ("import sys; from ktrunc.cli import main; "
            f"code = main({argv!r}); "
            "print(code, 'numpy' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout
    assert proc.stderr == "0 False\n"


def loaded_names(source: str) -> set[str]:
    """Names a module reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def public_definitions(source: str):
    """(qualified name, name) of each public top-level function and class,
    and of each public method and property of a public class; names that
    start with an underscore, dunders among them, are not public."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and \
                            not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def unread_public_names(modules: dict[str, str],
                        readers: list[str]) -> list[str]:
    """Public definitions of `modules` (name to source) that no source in
    `readers` reads."""
    read = set().union(*map(loaded_names, readers))
    return [f"{module}.{qualified}" for module, source in modules.items()
            for qualified, name in public_definitions(source)
            if name not in read]


def repository_sources() -> tuple[dict[str, str], list[str]]:
    """The ktrunc modules by name, and the sources that count as their
    readers."""
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for folder in READERS
               for path in sorted(folder.rglob("*.py"))]
    return modules, readers


def test_every_public_name_is_read_outside_the_tests():
    modules, readers = repository_sources()
    assert unread_public_names(modules, readers) == []


def test_an_unread_public_name_is_reported():
    modules = {"m": "def used(): pass\ndef unused(): pass\n"
                    "class _Private: pass\nclass Shape: pass\n"}
    readers = ["import m\nm.used()\n", "from m import Shape\n"]
    assert unread_public_names(modules, readers) == ["m.unused"]


def test_an_unread_public_method_or_property_is_reported():
    modules = {"m": "class Shape:\n"
                    "    def __init__(self): pass\n"
                    "    def __eq__(self, other): pass\n"
                    "    def _helper(self): pass\n"
                    "    def area(self): pass\n"
                    "    def scaled(self): pass\n"
                    "    @property\n"
                    "    def size(self): pass\n"
                    "    @property\n"
                    "    def width(self): pass\n"
                    "class _Private:\n"
                    "    def unread(self): pass\n"}
    readers = ["from m import Shape\nShape().area()\nprint(Shape().size)\n"]
    assert unread_public_names(modules, readers) == [
        "m.Shape.scaled", "m.Shape.width"]


# Defaulted parameters no call outside the tests sets, on purpose.
UNSET_ON_PURPOSE = {
    # the console script calls main() with no arguments, so that argparse
    # reads sys.argv; the tests run the CLI in process through argv
    "cli.main(argv)",
}


def _defaulted(args: ast.arguments, skip: int):
    """(position, name) of each parameter with a default, after the first
    `skip` positional ones; position is None for a keyword-only one."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= max(first, skip):
            yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _init_fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """The fields of a dataclass that its __init__ takes, in order: all
    but those declared field(init=False)."""
    def in_init(item):
        return not (isinstance(item.value, ast.Call) and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant)
            and kw.value.value is False for kw in item.value.keywords))

    return [item for item in node.body if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name) and in_init(item)]


def defaulted_parameters(source: str):
    """(qualified name, name a call uses, position, parameter) of each
    defaulted parameter of a public top-level function, of a public method
    of a public class, and of its __init__ or __new__, which a call of the
    class sets; and of each defaulted field of a public dataclass."""
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            for pos, param in _defaulted(node.args, 0):
                yield node.name, node.name, pos, param
            continue
        if _is_dataclass(node):
            for pos, item in enumerate(_init_fields(node)):
                if item.value is not None:
                    yield node.name, node.name, pos, item.target.id
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in item.decorator_list)
            if item.name in ("__init__", "__new__"):
                qualified, called = node.name, node.name
            elif not item.name.startswith("_"):
                qualified, called = f"{node.name}.{item.name}", item.name
            else:
                continue
            for pos, param in _defaulted(item.args, 0 if static else 1):
                yield qualified, called, pos, param


def passed_arguments(source: str) -> dict[str, set]:
    """For each name called (bare or as an attribute), what its calls
    pass: positions, keywords, ("*", i) for an unpacked sequence at
    position i and "**" for an unpacked mapping."""
    passed: dict[str, set] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        into = passed.setdefault(name, set())
        for i, arg in enumerate(node.args):
            into.add(("*", i) if isinstance(arg, ast.Starred) else i)
        into.update(kw.arg or "**" for kw in node.keywords)
    return passed


def unset_parameters(modules: dict[str, str],
                     readers: list[str]) -> list[str]:
    """module.name(parameter) of each defaulted parameter of `modules`
    (name to source) that no call in `readers` passes by position, by
    keyword or through **kwargs."""
    passed: dict[str, set] = {}
    for source in readers:
        for name, args in passed_arguments(source).items():
            passed.setdefault(name, set()).update(args)

    def is_set(called, pos, param):
        args = passed.get(called, set())
        return (param in args or "**" in args or pos is not None and (
            pos in args or any(isinstance(a, tuple) and a[1] <= pos
                               for a in args)))

    return [f"{module}.{qualified}({param})"
            for module, source in modules.items()
            for qualified, called, pos, param in defaulted_parameters(source)
            if not is_set(called, pos, param)]


def test_every_defaulted_parameter_is_set_outside_the_tests():
    modules, readers = repository_sources()
    assert set(unset_parameters(modules, readers)) == UNSET_ON_PURPOSE


def test_an_unset_parameter_is_reported():
    modules = {"m": "from dataclasses import dataclass, field\n"
                    "def f(a, b=1, c=2, d=3, *, k=4, j=5): pass\n"
                    "def g(a=1, b=2): pass\n"
                    "def h(a=1): pass\n"
                    "def _private(a=1): pass\n"
                    "class Shape:\n"
                    "    def __init__(self, size=1, depth=2): pass\n"
                    "    def scaled(self, by=2): pass\n"
                    "    @staticmethod\n"
                    "    def unit(side=1): pass\n"
                    "    def _helper(self, x=1): pass\n"
                    "@dataclass(frozen=True)\n"
                    "class Point:\n"
                    "    x: int\n"
                    "    norm: int = field(init=False)\n"
                    "    y: int = 0\n"
                    "    z: int = 0\n"}
    readers = ["import m\nm.f(0, 1, k=3)\nm.g(**{'a': 2})\n",
               "from m import Shape, Point, h\nShape(3)\nShape.unit(2)\n"
               "Point(1, 2)\nh(*[5])\nShape().scaled()\n"]
    assert unset_parameters(modules, readers) == [
        "m.f(c)", "m.f(d)", "m.f(j)", "m.Shape(depth)",
        "m.Shape.scaled(by)", "m.Point(z)"]
