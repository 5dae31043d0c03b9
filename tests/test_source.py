"""Source checks on the package: every import a module makes is used, and
every private name it defines is read by some module of the package. Each
line on the load path costs start-up time to compile, and an unused import
also loads what it names; a private name no module reads is dead code."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "morphlens"
# `__init__.py` imports to re-export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from itertools import chain, pairwise\nimport os.path\nimport re as regex\nlist(pairwise(x))\n"
    assert unused_imports(source) == ["chain", "os", "regex"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def private_definitions(tree):
    """The private names a module defines: its top-level functions, classes
    and assignments, and the methods of its top-level classes (dunders are
    not private)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef):
            names += [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
    return [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def unread_private_names(sources):
    """`module: name` for each private name that a module of `sources` (a
    dict of file name to source) defines and no module reads, by name or as
    an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{name}: {n}" for name, tree in trees.items() for n in private_definitions(tree) if n not in read]


def test_unread_private_names_are_found():
    sources = {
        "a.py": (
            "_USED = 1\n_UNUSED: int = 2\n_STORED = 3\nPUBLIC = 4\ndef _helper(): pass\n"
            "class _C:\n    def __init__(self): self._n()\n    def _m(self): pass\n    def _n(self): pass\n"
        ),
        "b.py": "from a import _USED, _C\nimport a\nprint(_USED, _C)\na._STORED = 0\n",
    }
    assert unread_private_names(sources) == ["a.py: _UNUSED", "a.py: _STORED", "a.py: _helper", "a.py: _m"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []
