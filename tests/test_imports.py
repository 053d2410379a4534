"""Every name a module imports is read in the scope that imports it, and
every name a function stores is read in that function or a scope nested in it.

An unused import still costs its compile and import time in every cold
process, and a top-level one can load a whole submodule for nothing.  The
package ``__init__`` imports nothing of its own and is not scanned.  Every
field of a private record is read somewhere in the package, too: a field
that is only ever stored is memory and code for nothing.  The same holds
for a private top-level function or class that nothing outside its own
body reads, and for an error class that no other module names and no
error class derives from.

No module generates code at run time either: records are plain classes, not
``dataclasses``, and nothing calls ``exec`` or ``eval``.
"""

import ast
from pathlib import Path

import quiverfold as qf

SRC = Path(qf.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each imported name that is not read in the module
    or function whose body imports it."""
    out = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        # imports of an inner function belong to that function's scope
        nested = {
            id(inner)
            for n in ast.walk(scope)
            if n is not scope and isinstance(n, FUNCTIONS)
            for inner in ast.walk(n)
        }
        read = {
            n.id
            for n in ast.walk(scope)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in ast.walk(scope):
            if id(node) in nested or not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    out.append((node.lineno, bound))
    return out


def test_no_module_imports_a_name_it_never_reads():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_the_scan_finds_an_unused_import():
    tree = ast.parse(
        "import json\n"
        "from math import gcd, lcm\n"
        "def f(x):\n"
        "    from .reps import rank\n"
        "    return lcm(x, x)\n"
        "def g():\n"
        "    from .gf import make_field\n"
        "    return make_field\n"
    )
    assert _unused_imports(tree) == [(1, "json"), (2, "gcd"), (4, "rank")]


def _unread_locals(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name a function stores and neither it nor a
    scope nested in it ever reads.  Names that start with ``_`` are stored
    unread on purpose, and a ``global`` or ``nonlocal`` name is not local."""
    out = []
    for scope in (n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)):
        # stores of an inner function belong to that function's scope
        nested = {
            id(inner)
            for n in ast.walk(scope)
            if n is not scope and isinstance(n, FUNCTIONS)
            for inner in ast.walk(n)
        }
        read, stored, shared = set(), {}, set()
        for n in ast.walk(scope):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif id(n) in nested:
                continue
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                stored.setdefault(n.id, n.lineno)
            elif isinstance(n, (ast.Global, ast.Nonlocal)):
                shared.update(n.names)
        out += [
            (line, name)
            for name, line in stored.items()
            if name not in read and name not in shared and not name.startswith("_")
        ]
    return sorted(out)


def test_no_unread_locals():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        unread = _unread_locals(ast.parse(path.read_text(encoding="utf-8")))
        if unread:
            found[path.name] = unread
    assert found == {}


def test_the_scan_finds_an_unread_local():
    tree = ast.parse(
        "def f(xs):\n"
        "    k, v = xs\n"
        "    for i, x in enumerate(xs):\n"
        "        _, y = x\n"
        "    def g():\n"
        "        nonlocal v\n"
        "        v = y\n"
        "        w = 1\n"
        "    return g, v\n"
    )
    assert _unread_locals(tree) == [(2, "k"), (3, "i"), (8, "w")]


def _unread_private_fields(trees: dict[str, ast.Module]) -> list[str]:
    """``module._Class.field`` for each field of a private record class, one
    whose name starts with ``_`` and that ``_record`` makes, that no
    attribute read in any of the modules names.  A public record's fields
    are API and are not scanned."""
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or not cls.name.startswith("_"):
                continue
            makers = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "_record" for d in makers):
                continue
            out += [
                f"{module}.{cls.name}.{st.target.id}"
                for st in cls.body
                if isinstance(st, ast.AnnAssign) and st.target.id not in read
            ]
    return out


def test_no_unread_private_fields():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
    }
    assert _unread_private_fields(trees) == []


def test_the_scan_finds_an_unread_private_field():
    trees = {
        "a": ast.parse(
            "@_record(frozen=False)\n"
            "class _Box:\n"
            "    width: int\n"
            "    depth: int\n"
            "    label: str = ''\n"
            "@_record\n"
            "class Report:\n"
            "    total: int\n"
            "class _Plain:\n"
            "    kept: int\n"
        ),
        "b": ast.parse("def f(box):\n    box.label = 'x'\n    return box.width\n"),
    }
    assert _unread_private_fields(trees) == ["a._Box.depth", "a._Box.label"]


def _reads(node: ast.AST) -> set[str]:
    """Names a node reads, as plain names or as attributes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _dead_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each private top-level function or class of a
    module other than ``__init__`` that no top-level statement of the
    package reads, its own definition aside; and ``errors.name`` for each
    error class that no other module reads and no error class derives from."""
    defs = (*FUNCTIONS, ast.ClassDef)
    reads = [(st, _reads(st)) for tree in trees.values() for st in tree.body]
    out = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if not isinstance(node, defs) or not node.name.startswith("_"):
                continue
            if not any(node.name in names for st, names in reads if st is not node):
                out.append(f"{module}.{node.name}")
    errors = [n for n in trees["errors"].body if isinstance(n, ast.ClassDef)]
    named = {name for module, tree in trees.items() if module != "errors" for name in _reads(tree)}
    bases = {name for cls in errors for base in cls.bases for name in _reads(base)}
    out += [f"errors.{cls.name}" for cls in errors if cls.name not in named | bases]
    return out


def test_no_dead_helpers():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
    }
    assert _dead_helpers(trees) == []


def test_the_scan_finds_a_dead_helper():
    trees = {
        "errors": ast.parse(
            "class Base(Exception):\n    pass\n"
            "class Raised(Base):\n    pass\n"
            "class Orphan(Base):\n    pass\n"
        ),
        "a": ast.parse(
            "from .errors import Raised\n"
            "def _used():\n    raise Raised\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Unread:\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "__init__": ast.parse("def _lazy(name):\n    return name\n"),
    }
    assert _dead_helpers(trees) == ["a._recursive", "a._Unread", "errors.Orphan"]


def _generated_code(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each import of ``dataclasses`` and each call of
    ``exec`` or ``eval``: code generated at run time, which a cold start
    pays to compile."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names if a.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            out.append((node.lineno, node.module))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("exec", "eval"):
                out.append((node.lineno, node.func.id))
    return out


def test_no_module_generates_code():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        generated = _generated_code(ast.parse(path.read_text(encoding="utf-8")))
        if generated:
            found[path.name] = generated
    assert found == {}


def test_the_scan_finds_generated_code():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import field\n"
        "def f(src):\n"
        "    exec(src)\n"
        "    return eval(src)\n"
    )
    assert _generated_code(tree) == [(1, "dataclasses"), (2, "dataclasses"), (4, "exec"), (5, "eval")]
