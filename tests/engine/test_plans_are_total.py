"""Plans are total: every production body runs its join plan (AST scan).

The planner's static readiness is the dynamic matcher's, so a body the
planner cannot order is one the matcher stops on too — a "run the
dynamic matcher instead" branch can never produce a row.  Such a body
is refused when it is planned (``PlanError``), and the dynamic order
is left to the reference: the matcher lives in :mod:`repro.oracle`,
which alone enumerates with it (:meth:`repro.query.Query.run`
delegates there).  Production has no matcher at all — its stages run
on an :class:`~repro.semantics.match.IndexPool`.  The scalar plan
runner is gone as well: a constraint's head runs once over its whole
body batch, as an anti-join.  And so is the row-at-a-time step
fallback: every plan step, a pattern's included, is a batch stage, and
value-at-a-time unification is the reference's.
"""

import ast
import pathlib
import re

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
MODULES = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
           for path in sorted(PACKAGE.rglob("*.py"))}

#: Where the dynamic order may still be called.
REFERENCE_MODULES = {"oracle.py"}
#: ``PlanError`` turned into the read side's own validation errors.
READ_SIDE_CONVERSIONS = {"query/query.py", "program/compile.py"}


def _dynamic_calls(text):
    return [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("solutions", "satisfiable")]


def _plan_error_handlers(text):
    handlers = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {getattr(sub, "id", getattr(sub, "attr", None))
                     for sub in ast.walk(node.type)}
            if "PlanError" in names:
                handlers.append(node.lineno)
    return handlers


def test_only_the_references_enumerate_in_the_dynamic_order():
    callers = {name: lines for name, text in MODULES.items()
               if (lines := _dynamic_calls(text))}
    assert callers.keys() == REFERENCE_MODULES, callers


def _name_uses(text, word):
    """Lines defining, importing or naming ``word``."""
    uses = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        uses.extend(node.lineno for name in names if name == word)
    return sorted(uses)


def test_no_matcher_outside_the_oracle():
    users = {name: lines for name, text in MODULES.items()
             if (lines := _name_uses(text, "Matcher"))}
    assert users.keys() == REFERENCE_MODULES, users


def test_unification_is_the_oracles():
    """Production destructures a pattern with column operations
    (``repro.engine.columnar.compile_pattern``); value-at-a-time
    unification is the reference matcher's alone — nothing under
    ``engine/`` nor ``semantics/match.py`` defines, imports or calls
    it."""
    users = {name: lines for name, text in MODULES.items()
             if (lines := _name_uses(text, "unify_term"))}
    assert users.keys() == REFERENCE_MODULES, users


#: The production matcher's machinery: its private columns for a pool
#: over another instance, its plan runner and its pool parameter.
#: Stages take the pool itself (``repro.engine.columnar``).
MATCHER_WRAPPER = ("_own_columns", "run_plan_columnar", "index_pool")


def test_the_matcher_wrapper_is_gone():
    found = sorted((name, word) for name, text in MODULES.items()
                   for word in MATCHER_WRAPPER
                   if re.search(rf"\b{word}\b", text))
    assert found == []


def test_plan_errors_are_caught_only_by_analysis_and_the_read_side():
    catchers = {name: lines for name, text in MODULES.items()
                if (lines := _plan_error_handlers(text))}
    outside = {name: lines for name, lines in catchers.items()
               if not name.startswith("analysis/")}
    assert outside.keys() == READ_SIDE_CONVERSIONS, catchers
    assert all(len(lines) == 1 for lines in outside.values()), outside


def test_the_fallback_vocabulary_is_gone():
    words = ("unplanned", "planned_bodies", "planned_heads", "use_indexes",
             "repro_matcher_plan_fallback_total", "_fallback_stage",
             "_expand_step", "step_vectorizable", "fallback_steps")
    found = sorted((name, word) for name, text in MODULES.items()
                   for word in words if re.search(rf"\b{word}\b", text))
    assert found == []


#: The scalar plan runner: one binding dict at a time through a plan.
#: Constraint heads run as one batch anti-join instead
#: (``repro.engine.columnar.unextended_rows``).
SCALAR_RUNNER = ("plan_satisfiable", "run_plan", "_run_steps")


def _scalar_runner_uses(text):
    uses = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name in SCALAR_RUNNER:
            uses.append((node.lineno, name))
    return uses


def test_the_scalar_plan_runner_is_gone():
    uses = {name: found for name, text in MODULES.items()
            if (found := _scalar_runner_uses(text))}
    assert uses == {}


def test_the_scans_see_what_they_look_for():
    sample = ("try:\n    m.solutions(b)\nexcept (ValueError, p.PlanError):\n"
              "    m.satisfiable(h)\n")
    assert _dynamic_calls(sample) == [2, 4]
    assert _plan_error_handlers(sample) == [3]
    assert _plan_error_handlers("try:\n    f()\nexcept Exception:\n"
                                "    pass\n") == []
    assert _scalar_runner_uses(
        "def run_plan(s):\n    return s._run_steps(plan_satisfiable)\n"
        "m.run_plan_columnar(p)\n") == [
            (1, "run_plan"), (2, "_run_steps"), (2, "plan_satisfiable")]
    assert _name_uses(
        "from .match import Matcher as M\nclass Matcher:\n    pass\n"
        "import repro.oracle.Matcher\nx = oracle.Matcher(i)\n"
        "y = Matcher\nMatchError\n", "Matcher") == [1, 2, 4, 5, 6]
    assert _name_uses("def unify_term(t):\n    return unify_term(t)\n",
                      "unify_term") == [1, 2]
