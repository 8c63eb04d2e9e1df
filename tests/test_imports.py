"""Every name a ktrunc module imports is used in that module, and every
public function and class it defines, and every public method and property
of those classes, is read outside the tests."""

import ast
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "os (line 1)", "b (line 2)"]


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


def test_every_public_name_is_read_outside_the_tests():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for folder in READERS
               for path in sorted(folder.rglob("*.py"))]
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
