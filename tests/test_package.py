"""Package-wide source checks."""

import ast
from pathlib import Path

import haarint

SOURCES = sorted(Path(haarint.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"

# public functions and classes kept for library users although nothing in
# the package reads them; a name re-exported in haarint.__all__ needs no entry
LIBRARY_API = {"Tableau.column", "Tableau.entry", "Tableau.row_major", "bloch_vector",
               "contract", "purify", "symplectic_j", "traceless_project"}


def _private_definitions(node) -> list:
    """Names a module-level statement defines that must have a reader: a
    private (_name) function or class, or a constant (NAME = ...)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        private = node.name.startswith("_") and not node.name.startswith("__")
        return [(node.name, node)] if private else []
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [(t.id, node) for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def _public_definitions(node) -> list:
    """A public module-level function or class, and the public methods and
    properties of a public class (as Class.name)."""
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
        return []
    members = [(f"{node.name}.{item.name}", item) for item in node.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return [(node.name, node)] + (members if isinstance(node, ast.ClassDef) else [])


def _unread(trees: dict, definitions) -> list:
    """module:name for each (name, defining node) that definitions finds
    in a module body with no reference anywhere in trees outside that
    node; a Class.name member is referenced only as an attribute (x.name),
    a module-level name also as a bare name."""
    refs = []  # (module, line, name, whether an attribute)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.lineno, node.attr, True))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            for name, where in definitions(node):
                member = "." in name
                attr = name.split(".")[-1]
                if not any(ref == attr and (is_attr or not member) and not (
                        at == module and where.lineno <= line <= where.end_lineno)
                        for at, line, ref, is_attr in refs):
                    unused.append(f"{module}:{name}")
    return unused


def _unlisted_public(trees: dict) -> list:
    return [found for found in _unread(trees, _public_definitions)
            if found.split(":")[1] not in LIBRARY_API | set(haarint.__all__)]


def _package_trees() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in SOURCES}


def test_every_private_helper_has_a_caller():
    # a module-level _name function or class, and a module-level constant,
    # must be referenced somewhere in the package outside its own
    # definition; one with no caller or reader is dead code
    assert not _unread(_package_trees(), _private_definitions)


def test_every_public_name_has_a_reader_or_is_library_api():
    # a public function or class, or a public method or property of a
    # public class, that nothing in the package reads is either published
    # (haarint.__all__, LIBRARY_API) or test-only code, which belongs in
    # tests/helpers.py
    trees = _package_trees()
    assert not _unlisted_public(trees)
    defined = {name for tree in trees.values() for node in tree.body
               for name, _ in _public_definitions(node)}
    assert LIBRARY_API <= defined


def _append(tree, source: str):
    extra = ast.parse(source)
    ast.increment_lineno(extra, tree.body[-1].end_lineno)
    tree.body += extra.body


def _append_method(tree, cls: str, source: str):
    """Add the function in source, indented, to the body of class cls."""
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    extra = ast.parse(source)
    ast.increment_lineno(extra, tree.body[-1].end_lineno)
    node.body += extra.body


def test_public_check_flags_test_only_code():
    # the check above on a package that still carries a test-only slot
    # permutation, matrix product and tensor product method; a bare name
    # that spells the method (here in an f-string) does not read it
    trees = _package_trees()
    _append(trees["entropy.py"], "def _label(tensor):\n"
                                 "    return f'{tensor}'\n")
    _append(trees["tensors.py"], "def apply_permutation(p, t):\n"
                                 "    return permute({p: 1}, t)\n")
    _append(trees["perms.py"], "def mat_mul(a, b):\n"
                                   "    return [[sum(x * y for x, y in zip(r, c))"
                                   " for c in zip(*b)] for r in a]\n")
    _append_method(trees["tensors.py"], "SparseTensor",
                   "def tensor(self, other):\n"
                   "    return SparseTensor(self.order + other.order)\n")
    assert _unlisted_public(trees) == ["perms.py:mat_mul", "tensors.py:SparseTensor.tensor",
                                       "tensors.py:apply_permutation"]


def _read_library_api(trees: dict) -> list:
    """The LIBRARY_API entries that something in the package reads: their
    exemption has gone stale."""
    unread = {found.split(":")[1] for found in _unread(trees, _public_definitions)}
    return sorted(LIBRARY_API - unread)


def test_library_api_lists_only_unread_names():
    # an entry is exempt only while nothing in the package reads it; once
    # something does, it leaves LIBRARY_API
    assert not _read_library_api(_package_trees())


def test_library_api_check_flags_read_entries():
    # the check above on a package that reads one exempt function and one
    # exempt method
    trees = _package_trees()
    _append(trees["su2.py"], "def _first(state, t):\n"
                             "    return entropy.bloch_vector(state), t.column(1)\n")
    assert _read_library_api(trees) == ["Tableau.column", "bloch_vector"]


def _int_literal(node) -> bool:
    """An int literal, or a sum, difference, product or power of them."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Pow)):
        return _int_literal(node.left) and _int_literal(node.right)
    return isinstance(node, ast.Constant) and type(node.value) is int


def _functools_name(node):
    """x for the attribute functools.x, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "functools":
        return node.attr
    return None


def _unbounded_caches(trees: dict) -> list:
    """module:line of each cache without an explicit bound: functools.cache,
    a functools.lru_cache used bare or whose maxsize is neither an int
    literal nor a module constant bound to one, and either name imported
    from functools, which would hide it from this check."""
    found = []
    for module, tree in trees.items():
        constants = {t.id for node in tree.body if isinstance(node, ast.Assign)
                     and _int_literal(node.value) for t in node.targets if isinstance(t, ast.Name)}
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _functools_name(node.func) == "lru_cache":
                called.add(node.func)
                size = node.args[0] if node.args else next(
                    (k.value for k in node.keywords if k.arg == "maxsize"), None)
                if not (_int_literal(size) or isinstance(size, ast.Name) and size.id in constants):
                    found.append(f"{module}:{node.lineno}")
        for node in ast.walk(tree):
            name = _functools_name(node)
            bare = name == "lru_cache" and node not in called
            imported = isinstance(node, ast.ImportFrom) and node.module == "functools" \
                and bool({a.name for a in node.names} & {"cache", "lru_cache"})
            if name == "cache" or bare or imported:
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_every_cache_is_bounded():
    # caches are bounded: each functools.lru_cache names its maxsize, and
    # functools.cache, which never evicts, is not used
    assert not _unbounded_caches(_package_trees())


def test_cache_check_flags_unbounded_caches():
    # the check above on a package that carries each kind of unbounded
    # cache, next to two bounded ones it must pass
    trees = _package_trees()
    base = trees["su2.py"].body[-1].end_lineno
    _append(trees["su2.py"], "@functools.cache\n"
                             "def _a(): pass\n"
                             "@functools.lru_cache\n"
                             "def _b(): pass\n"
                             "@functools.lru_cache(maxsize=None)\n"
                             "def _c(): pass\n"
                             "_LIMIT = None\n"
                             "@functools.lru_cache(_LIMIT)\n"
                             "def _d(): pass\n"
                             "from functools import cache\n"
                             "_SIZE = 2 ** 4\n"
                             "@functools.lru_cache(_SIZE)\n"
                             "def _e(): pass\n"
                             "@functools.lru_cache(maxsize=8, typed=True)\n"
                             "def _f(): pass\n")
    assert _unbounded_caches(trees) == sorted(f"su2.py:{base + k}" for k in (1, 3, 5, 8, 10))


def _layout_modules(readme: str) -> list:
    """The modules the rows of the README's library-layout table name."""
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `haarint.")]
    return [row.split("`")[1].removeprefix("haarint.") for row in rows]


def test_readme_layout_lists_every_module():
    # one row per module of the package, none for a module that is gone
    listed = _layout_modules(README.read_text())
    assert sorted(listed) == sorted(path.stem for path in SOURCES if path.stem != "__init__")
    assert len(listed) == len(set(listed))
