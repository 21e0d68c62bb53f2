"""Package-wide source checks."""

import ast
from pathlib import Path

import haarint

SOURCES = sorted(Path(haarint.__file__).parent.glob("*.py"))


def _definitions(node) -> list:
    """Names a module-level statement defines that must have a reader: a
    private (_name) function or class, or a constant (NAME = ...)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        private = node.name.startswith("_") and not node.name.startswith("__")
        return [node.name] if private else []
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def test_every_private_helper_has_a_caller():
    # a module-level _name function or class, and a module-level constant,
    # must be referenced somewhere in the package outside its own
    # definition; one with no caller or reader is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    refs = []  # (module, line, name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.lineno, node.attr))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _definitions(node):
                if not any(ref == name and not (
                        where == module and node.lineno <= line <= node.end_lineno)
                        for where, line, ref in refs):
                    unused.append(f"{module}:{name}")
    assert not unused
