"""Semantics of WOL clauses: evaluation, matching, satisfaction."""

from .eval import Binding, EvalError, evaluate, is_evaluable, project, skolem_key
from .match import MatchError, unify_term
from .satisfaction import (Violation, clause_violations, merge_instances,
                           program_violations, satisfies_clause,
                           satisfies_program)

__all__ = [
    "Binding", "EvalError", "evaluate", "is_evaluable", "project",
    "skolem_key",
    "MatchError", "unify_term",
    "Violation", "clause_violations", "merge_instances",
    "program_violations", "satisfies_clause", "satisfies_program",
]
