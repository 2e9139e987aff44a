"""One identity codec (AST scan).

Every mapping between an object identity and JSON — dumps, snapshots,
WAL records, the store's canonical rendering, label-addressed deltas —
goes through :mod:`repro.io.json_io`.  The decision used to be made in
six places that drifted apart: compaction derived the labels again and
re-pointed them, and two decoders failed differently on one malformed
oid.  These scans fail when a second copy comes back.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
TREES = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
         for path in sorted(PACKAGE.rglob("*.py"))}


def functions():
    """``(module, name, node)`` of every function, nested ones too."""
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, node.name, node


def _is_call(node, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _enumerates_sorted_extent(node):
    """``enumerate(sorted(<instance>.objects_of(...), ...))`` — the
    ``Class#n`` label derivation numbers a class's sorted extent."""
    if not (_is_call(node, "enumerate") and node.args
            and _is_call(node.args[0], "sorted") and node.args[0].args):
        return False
    extent = node.args[0].args[0]
    return (isinstance(extent, ast.Call)
            and isinstance(extent.func, ast.Attribute)
            and extent.func.attr == "objects_of")


def test_oid_tag_lives_in_one_module():
    users = sorted({module for module, tree in TREES.items()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and node.value == "$oid"})
    assert users == ["io/json_io.py"]


def test_dump_labels_are_derived_once():
    derivations = {(module, name) for module, name, node in functions()
                   for inner in ast.walk(node)
                   if _enumerates_sorted_extent(inner)}
    assert derivations == {("io/json_io.py", "dump_labels")}


def test_instance_codecs_walk_through_value_codecs():
    codecs = {name: node for module, name, node in functions()
              if module == "io/json_io.py"
              and name in ("instance_to_json", "instance_from_json")}
    assert set(codecs) == {"instance_to_json", "instance_from_json"}
    for name, node in codecs.items():
        nested = [getattr(inner, "name", "<lambda>")
                  for inner in ast.walk(node)
                  if inner is not node and isinstance(
                      inner, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda))]
        assert not nested, (name, nested)


def test_second_resolver_is_gone():
    assert not [module for module, tree in TREES.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                and node.name == "_OidResolver"]
