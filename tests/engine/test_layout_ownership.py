"""``model/values.py`` is the only module that knows how ``Oid`` and
``Record`` (or any other object) are laid out.

The engine used to build pending objects, key records and oids with
``object.__new__`` plus raw ``__dict__`` writes, and primed their
private ``_hash`` from the outside — copies of a constructor that no
constructor change could reach.  The unchecked constructors
(``Oid.keyed_unchecked``, ``Record.presorted``) live next to the
classes they build; everything else goes through them.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
LAYOUT_OWNER = PACKAGE / "model" / "values.py"


def layout_pokes(tree):
    """``object.__new__`` references and ``<not self>.__dict__`` reads."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value.id if isinstance(node.value, ast.Name) else None
        if node.attr == "__new__" and owner == "object":
            yield node.lineno, "object.__new__"
        elif node.attr == "__dict__" and owner != "self":
            yield node.lineno, f"{owner or '<expr>'}.__dict__"


def test_only_values_py_bypasses_constructors():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == LAYOUT_OWNER:
            continue
        for line, what in layout_pokes(ast.parse(path.read_text())):
            found.append(f"{path.relative_to(PACKAGE)}:{line}: {what}")
    assert found == []


def test_the_scan_sees_what_it_forbids():
    pokes = list(layout_pokes(ast.parse(
        "new = object.__new__\n"
        "state = oid.__dict__\n"
        "mine = self.__dict__\n"
        "other = make().__dict__\n")))
    assert pokes == [(1, "object.__new__"), (2, "oid.__dict__"),
                     (4, "<expr>.__dict__")]
