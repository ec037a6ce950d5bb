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
whose last caller is gone does not stay behind.  Every ``:func:``,
``:class:``, ``:data:``, ``:meth:`` and ``:attr:`` role in a docstring of
``src/braidpbw`` must name something that exists, so that a reference to a
removed name does not stay behind either.
"""
import ast
import re
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


ROLE = re.compile(r":(func|class|data|meth|attr):`~?([^`]+)`")


def _namespace(tree) -> tuple[set, dict]:
    """(module-level names, {class name: attribute names}) of a module: the
    names bound by its top-level imports, defs, classes and assignments, and
    for each top-level class the names bound in its body and the attributes
    of self assigned in its __init__."""
    def targets(node):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n for n in ast.walk(t) if isinstance(n, (ast.Name, ast.Attribute)))

    names, classes = set(), {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        names |= {t.id for t in targets(node) if isinstance(t, ast.Name)}
        if isinstance(node, ast.ClassDef):
            attrs = classes[node.name] = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    attrs.add(item.name)
                attrs |= {t.id for t in targets(item) if isinstance(t, ast.Name)}
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    attrs |= {t.attr for stmt in ast.walk(item) for t in targets(stmt)
                              if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                              and t.value.id == "self"}
    return names, classes


def _resolves(role: str, target: str, tree) -> bool:
    """Whether a role's target names something in the module of tree, or,
    as a braidpbw.<module>... path, in that module of the package."""
    parts = target.split(".")
    if parts[0] == "braidpbw":
        path = PACKAGE / f"{parts[1]}.py" if len(parts) > 1 else PACKAGE / "__init__.py"
        if not path.exists():
            return False
        if len(parts) <= 2:
            return True
        return _resolves(role, ".".join(parts[2:]), ast.parse(path.read_text()))
    names, classes = _namespace(tree)
    if len(parts) == 1:
        return target in names or (role in ("meth", "attr")
                                   and any(target in attrs for attrs in classes.values()))
    return len(parts) == 2 and parts[1] in classes.get(parts[0], ())


def dangling_references(source: str) -> list[str]:
    """The docstring roles of the source whose target does not resolve."""
    tree = ast.parse(source)
    docs = [ast.get_docstring(node) for node in ast.walk(tree) if isinstance(
        node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return [f":{role}:`{target}`" for doc in docs if doc
            for role, target in ROLE.findall(doc) if not _resolves(role, target, tree)]


def test_the_scan_finds_a_dangling_docstring_reference():
    source = ('"""See :func:`helper`, :class:`Box`, :data:`LIMIT`, :func:`os`,\n'
              ':meth:`Box.put`, :attr:`Box.size`, :attr:`size`, :meth:`~Box.put`,\n'
              ':class:`~braidpbw.linalg.Coordinates`,\n'
              ':attr:`braidpbw.linalg.Coordinates.standard`\n'
              'and :func:`_gone`, :attr:`Box.gone`, :meth:`gone`, :func:`size`,\n'
              ':func:`braidpbw.nowhere.f`, :func:`braidpbw.linalg.gone`."""\n'
              "import os\n"
              "LIMIT = 3\n"
              "def helper():\n"
              '    """Not :func:`Box.put.inner`."""\n'
              "class Box:\n"
              "    def __init__(self):\n"
              "        self.size = 0\n"
              "    def put(self):\n"
              "        pass\n")
    assert dangling_references(source) == [
        ":func:`_gone`", ":attr:`Box.gone`", ":meth:`gone`", ":func:`size`",
        ":func:`braidpbw.nowhere.f`", ":func:`braidpbw.linalg.gone`", ":func:`Box.put.inner`"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_docstring_references_resolve(module):
    assert dangling_references((PACKAGE / module).read_text()) == [], module
