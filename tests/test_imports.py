"""Every module-level import of a project module is used in that module.

No linter ships with the project, so this scan stands in for one: each
``src/braidpbw/*.py``, ``tests/*.py`` and ``scripts/*.py`` is parsed with
``ast``, and a name bound by a module-level ``import`` or ``from ... import``
must be read somewhere in the module, in code or in a quoted annotation.
``__init__.py`` is exempt: its re-exports of the error classes are the
package's public names.  An import statement marked ``# noqa: F401`` is
deliberate (a module imported for its side effects) and is skipped.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidpbw"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(str(p.relative_to(ROOT)) for d in ("tests", "scripts")
                 for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of the source and never read;
    an import whose statement carries ``# noqa: F401`` binds none."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if any("# noqa: F401" in lines[n - 1] for n in range(node.lineno, node.end_lineno + 1)):
            continue
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
              "import sys  # noqa: F401\n"
              "from .multilinear import (  # noqa: F401\n"
              "    mul_at)\n"
              "from .multilinear import Vec, lift, vec_equal as equal\n"
              "def f(v: 'Vec') -> bool:\n"
              "    return equal(v, {})\n")
    assert unused_imports(source) == ["os", "lift"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == [], module


@pytest.mark.parametrize("path", SCRIPTS)
def test_no_unused_imports_in_tests_and_scripts(path):
    assert unused_imports((ROOT / path).read_text()) == [], path
