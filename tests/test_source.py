"""Source checks on the package: every import a module makes is used. Each
line on the load path costs start-up time to compile, and an unused import
also loads what it names."""

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
