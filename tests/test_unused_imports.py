"""No module of the package imports a name that it never reads.

Checked with the standard library's ``ast``: a name bound by an import
counts as read when the module's code mentions it anywhere else.
``__init__.py`` is checked too: its public names load on first use and
are not imported there.  ``from __future__`` is skipped, since it binds
no name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "risksharing"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\n"
    assert unused_imports(source + "print(sys, e)\n") == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == [], path.name
