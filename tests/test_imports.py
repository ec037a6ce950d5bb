"""Every module-level import of a project module is used in that module,
and every private module-level function or class of the package is read in
its own module.

No linter ships with the project, so this scan stands in for one: each
``src/braidpbw/*.py``, ``tests/*.py`` and ``scripts/*.py`` is parsed with
``ast``, and a name bound by a module-level ``import`` or ``from ... import``
must be read somewhere in the module, in code or in a quoted annotation.
``__init__.py`` is exempt: its re-exports of the error classes are the
package's public names.  An import statement marked ``# noqa: F401`` is
deliberate (a module imported for its side effects) and is skipped.  In
``src/braidpbw``, a module-level ``def`` or ``class`` whose name starts
with one underscore must be read outside its own body, so that a helper
whose last caller is gone does not stay behind.
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


def orphaned_private(source: str) -> list[str]:
    """The module-level private functions and classes of the source that no
    other statement of the module reads; reads inside their own body, such
    as a recursive call, do not count."""
    tree = ast.parse(source)
    private = [node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    return [node.name for node in private
            if not any(isinstance(n, ast.Name) and n.id == node.name
                       for other in tree.body if other is not node for n in ast.walk(other))]


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


def test_the_scan_finds_an_orphaned_private_helper():
    source = ("def _used():\n"
              "    return 1\n"
              "def _recursive(n):\n"
              "    return _recursive(n - 1) if n else _used()\n"
              "class _Orphan:\n"
              "    pass\n"
              "def __getattr__(name):\n"
              "    raise AttributeError(name)\n"
              "def public():\n"
              "    return 2\n")
    assert orphaned_private(source) == ["_recursive", "_Orphan"]


@pytest.mark.parametrize("module", MODULES)
def test_no_orphaned_private_helpers(module):
    assert orphaned_private((PACKAGE / module).read_text()) == [], module
