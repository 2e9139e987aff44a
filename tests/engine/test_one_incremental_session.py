"""One incremental session (AST and text scans, no clock).

Transformation clauses and constraint clauses are Horn clauses in one
language over one source, so one session maintains both: one source
instance, one ``ReverseIndex`` of it, one index pool and one
three-phase step that swaps the source once.  These scans fail when a
second session — its own poisoned state, source index, swap or rebase —
comes back.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
INCREMENTAL = PACKAGE / "engine" / "incremental.py"
TREE = ast.parse(INCREMENTAL.read_text())


def _calls(attribute):
    return [node for node in ast.walk(TREE)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == attribute]


def test_one_class_holds_the_poisoned_state():
    owners = {owner.name for owner in ast.walk(TREE)
              if isinstance(owner, ast.ClassDef)
              for node in ast.walk(owner)
              if isinstance(node, ast.Attribute) and node.attr == "_poisoned"
              and isinstance(node.ctx, ast.Store)}
    assert owners == {"IncrementalTransform"}


def test_the_source_is_reverse_indexed_once():
    built = [ast.unparse(node.args[0]) for node in ast.walk(TREE)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "ReverseIndex"]
    assert sorted(built) == ["self.target", "source"]


def test_one_swap_and_one_rebase_per_step():
    assert len(_calls("apply_to")) == 1
    assert len(_calls("rebase")) == 1


def test_the_second_session_is_gone_from_the_source_tree():
    gone = ("IncrementalAudit", "IncrementalStats", "AuditDeltaResult",
            "begin_incremental_audit", "audit_delta")
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        for name in gone:
            assert name not in text, (path.relative_to(PACKAGE), name)
