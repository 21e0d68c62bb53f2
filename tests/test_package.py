"""Package-wide source checks."""

import ast
from pathlib import Path

import haarint

SOURCES = sorted(Path(haarint.__file__).parent.glob("*.py"))


def test_every_private_helper_has_a_caller():
    # a module-level _name function or class must be referenced somewhere in
    # the package outside its own definition; one with no caller is dead code
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
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            if not any(name == node.name and not (
                    where == module and node.lineno <= line <= node.end_lineno)
                    for where, line, name in refs):
                unused.append(f"{module}:{node.name}")
    assert not unused
