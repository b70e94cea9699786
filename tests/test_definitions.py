"""No dead definitions in the package: every function, method and class in
src/superdegen is exported in `superdegen.__all__` or named somewhere in the
program's own code (src/, tools/ and perfbench/, their test files left out).
A name counts when it is read as a name or an attribute, imported, or given
as a dotted path to perfbench's layer wrappers.  Dunder methods are called
by the language and are not checked."""

import ast
from pathlib import Path

import superdegen

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superdegen"

# name -> why it stays although no program code names it
ALLOWED = {
    "random_group_element": "the tests use it, and perfbench/inputs.py documents its basis changes against it",
}

# the wrapper tables of perfbench/layers.py: (metric, module, dotted path)
_WRAPPER_TABLES = ("SPANS", "SPAN_COUNTS", "COUNTS")


def _program_files():
    for folder in ("src", "tools", "perfbench"):
        yield from (p for p in sorted((ROOT / folder).rglob("*.py")) if not p.name.startswith("test_"))


def _wrapped_paths(tree):
    """The parts of the dotted paths in the wrapper tables of layers.py."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id in _WRAPPER_TABLES
                                                for t in node.targets):
            for row in ast.literal_eval(node.value):
                yield from row[2].split(".")


def _named():
    names = set()
    for path in _program_files():
        tree = ast.parse(path.read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
        if path == ROOT / "perfbench" / "layers.py":
            names.update(_wrapped_paths(tree))
    return names


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{path.name}:{node.lineno}", node.name


def test_every_definition_has_a_caller():
    named, exported = _named(), set(superdegen.__all__)
    dead = [f"{where} {name}" for where, name in _definitions()
            if name not in named and name not in exported and name not in ALLOWED]
    assert dead == []


def test_the_allow_list_is_needed():
    named, exported = _named(), set(superdegen.__all__)
    defined = {name for _, name in _definitions()}
    assert all(name in defined and name not in named and name not in exported for name in ALLOWED)
