"""No dead definitions in the package: every function, method and class in
src/superdegen is exported in `superdegen.__all__` or named somewhere in the
program's own code (src/, tools/ and perfbench/, their test files left out).
A function or class counts when its name is read as a name or an attribute,
imported, or given as a dotted path to perfbench's layer wrappers.  A method
counts only when it is read as an attribute or named in such a path, so a
local variable of the same name does not keep it.  Dunder methods are called
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
    """(names, attributes): every name the program code reads, and those of
    them it reads as an attribute or names in a wrapper path."""
    names, attributes = set(), set()
    for path in _program_files():
        tree = ast.parse(path.read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
        if path == ROOT / "perfbench" / "layers.py":
            attributes.update(_wrapped_paths(tree))
    return names | attributes, attributes


def _definitions():
    """(where, name, is a method) of every non-dunder definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{path.name}:{node.lineno}", node.name, id(node) in methods


def _uncalled():
    (named, attributes), exported = _named(), set(superdegen.__all__)
    return {(where, name) for where, name, method in _definitions()
            if name not in (attributes if method else named) and name not in exported}


def test_every_definition_has_a_caller():
    dead = sorted(f"{where} {name}" for where, name in _uncalled() if name not in ALLOWED)
    assert dead == []


def test_the_allow_list_is_needed():
    assert set(ALLOWED) <= {name for _, name in _uncalled()}
