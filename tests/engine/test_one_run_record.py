"""One run record (AST scan, no clock).

A batch pass, an incremental step and a constraint audit all run on one
``IndexPool``, and each reports its work in one ``ExecutionStats``.
They used to report it three ways: the pass synced the pool's counters
into its stats, the step never charged its probes to itself, and the
audit kept mirrored counters and its own stats line on
``ConstraintReport``.  These scans fail when a second bookkeeping comes
back.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
TREES = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
         for path in sorted(PACKAGE.rglob("*.py"))}


def _definitions():
    """``(module, enclosing class or None, node)`` of every function and
    class-level annotated field."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    yield module, node.name, member
            else:
                yield module, None, node


DEFINITIONS = list(_definitions())


def _name(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                      ast.Name):
        return node.target.id
    return None


def defined(owner, name):
    return [module for module, cls, node in DEFINITIONS
            if cls == owner and _name(node) == name]


def attribute_uses(attr):
    return [module for module, tree in TREES.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == attr]


def test_the_second_bookkeeping_is_gone():
    for name in ("stats_line", "_sync_index_stats", "_pool_counters"):
        assert not [module for module, _, node in DEFINITIONS
                    if _name(node) == name], name
    assert not defined("ColumnStore", "stats")
    assert not defined("ColumnStore", "refresh")
    # Derived as ``hits + misses``, never counted.
    assert not attribute_uses("lookups")
    assert not defined("ExecutionStats", "scans_avoided")
    assert not attribute_uses("scans_avoided")


def enclosing(predicate):
    """``(module, class, definition)`` of every node matching
    ``predicate``."""
    return {(module, cls, _name(node)) for module, cls, node in DEFINITIONS
            for inner in ast.walk(node) if predicate(inner)}


def test_pool_activity_is_charged_by_one_definition():
    # Reading a pool's probe counters is charging them to a run; only
    # ``ExecutionStats.charging`` does it, for each of the three runs.
    assert enclosing(lambda node: isinstance(node, ast.Attribute)
                     and node.attr in ("hits", "misses")
                     and isinstance(node.ctx, ast.Load)) \
        == {("engine/executor.py", "ExecutionStats", "charging")}
    assert enclosing(lambda node: isinstance(node, ast.Call)
                     and getattr(node.func, "attr", None) == "charging") \
        == {("engine/executor.py", "Executor", "run_program"),
            ("engine/incremental.py", "IncrementalTransform",
             "apply_delta"),
            ("constraints/audit.py", None, "audit_constraints")}


def test_constraint_report_holds_no_counters():
    fields = [(node.target.id, ast.unparse(node.annotation))
              for module, cls, node in DEFINITIONS
              if cls == "ConstraintReport"
              and isinstance(node, ast.AnnAssign)]
    assert fields == [("checked", "int"),
                      ("violations", "Dict[str, List[Violation]]"),
                      ("stats", "ExecutionStats"), ("plan", "AuditPlan")]


def test_the_registry_reads_the_record_not_any_object():
    publish, = (node for module, cls, node in DEFINITIONS
                if module == "obs/metrics.py"
                and _name(node) == "publish_engine_stats")
    assert ast.unparse(publish.args.args[1].annotation) == "ExecutionStats"
    assert not [node for node in ast.walk(publish)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"]
