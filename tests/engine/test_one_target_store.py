"""One pass, one target store (AST scan, no clock).

The batch executor and the incremental session used to be two
implementations of the paper's single pass: two pending stores, two
assemblers, two freezes, two copies of the normal-form and
well-formedness checks.  Now the session starts from
``Executor.run_program``, keeps the executor's ``TargetStore`` and
freezes through ``TargetStore.freeze`` as the batch pass does; these
scans fail when a second copy comes back.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
TREES = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
         for path in sorted(PACKAGE.rglob("*.py"))}


def _calls():
    """``(callee name, module:enclosing class)`` of every call."""
    for module, tree in TREES.items():
        owners = {id(node): owner.name for owner in ast.walk(tree)
                  if isinstance(owner, ast.ClassDef)
                  for node in ast.walk(owner)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                yield callee, f"{module}:{owners.get(id(node), '<module>')}"


CALLS = list(_calls())


def call_sites(name):
    return [site for callee, site in CALLS if callee == name]


def raised_messages(exception):
    """The literal text of every ``raise <exception>(...)``."""
    for tree in TREES.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == exception):
                yield "".join(
                    part.value for part in ast.walk(node.exc)
                    if isinstance(part, ast.Constant)
                    and isinstance(part.value, str))


def test_one_assembler():
    assert call_sites("assemble_target_value") \
        == ["engine/executor.py:TargetStore"]
    assert call_sites("assemble") == ["engine/executor.py:TargetStore"]


def test_one_class_holds_pending_target_state():
    # One place builds stores, and the store alone builds its entries:
    # the session adopts the executor's store instead of filling its own.
    assert call_sites("TargetStore") == ["engine/executor.py:Executor"]
    assert call_sites("_PendingObject") \
        == ["engine/executor.py:TargetStore"]


def test_the_session_has_no_whole_program_pass_of_its_own():
    imported = {alias.name
                for node in ast.walk(TREES["engine/incremental.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "Executor" in imported
    assert "stream_plan_columnar" not in imported
    assert "assemble_target_value" not in imported


def test_normal_form_checks_have_one_definition():
    messages = list(raised_messages("ExecutionError"))
    for phrase in ("body mentions non-source class",
                   "belongs to no target class"):
        assert sum(phrase in message for message in messages) == 1, phrase


def test_one_freeze_checks_the_target_once():
    # Completeness (Section 3.2) and well-formedness (Section 2.1) are
    # checked by the one freeze, batch and incremental alike, with one
    # message each; ``Instance.validate`` stays the model-level reference.
    messages = list(raised_messages("ExecutionError"))
    for phrase in ("incomplete transformation", "ill-formed instance",
                   "which is not in the instance"):
        assert sum(phrase in message for message in messages) == 1, phrase
    assert [site for site in call_sites("check_value")
            if site.startswith("engine/")] \
        == ["engine/executor.py:TargetStore"]
    assert not [node for tree in TREES.values() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_refreeze"]
