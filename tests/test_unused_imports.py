"""No unused imports in ``src/repro`` or ``tests`` (AST scan, no clock).

CI lints with ``ruff check`` and pyflakes' ``F`` rules; this scan pins
the most common of them, F401 (a name imported and never used), in the
tier-1 suite, so a checkout without ruff still catches it.  A name
counts as used when the module reads it anywhere — quoted annotations
included — or lists it in ``__all__``.  Imports in ``__init__.py`` are
re-exports and are not checked; an import carrying ``# noqa`` is
skipped.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "repro").rglob("*.py"),
                *(ROOT / "tests").rglob("*.py")])


def _imports(tree, lines):
    """``(bound name, line)`` of every checked import."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _annotation_names(tree):
    """Names read by string annotations (``x: "Delta"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                yield from (name.id for name in ast.walk(quoted)
                            if isinstance(name, ast.Name))


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else [])
        if ("__all__" in {getattr(target, "id", None) for target in targets}
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(element.value for element in node.value.elts
                        if isinstance(element, ast.Constant))
    return used


def unused_imports(text):
    """``(line, name)`` of every unused import in module ``text``."""
    tree = ast.parse(text)
    used = _used(tree)
    return [(line, name) for name, line in _imports(tree, text.splitlines())
            if name not in used]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_the_scan_sees_an_unused_import():
    assert unused_imports(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "from json import dumps, loads\n"
        "__all__ = ['dumps']\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "def f(x: 'Optional[OrderedDict]'):\n"
        "    return x\n") == [(1, "os"), (4, "loads")]
