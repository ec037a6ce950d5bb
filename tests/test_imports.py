"""Every module-level import of a package module is used in that module.

No linter ships with the project, so this scan stands in for one: each
``src/braidpbw/*.py`` is parsed with ``ast``, and a name bound by a
module-level ``import`` or ``from ... import`` must be read somewhere in
the module, in code or in a quoted annotation.  ``__init__.py`` is exempt:
its re-exports of the error classes are the package's public names.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "braidpbw"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of the source and never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    trees = [tree]
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                trees.append(ast.parse(annotation.value, mode="eval"))
    read = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .multilinear import Vec, lift, vec_equal as equal\n"
              "def f(v: 'Vec') -> bool:\n"
              "    return equal(v, {})\n")
    assert unused_imports(source) == ["os", "lift"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == [], module
