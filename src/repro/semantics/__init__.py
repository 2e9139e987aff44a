"""Semantics of WOL clauses: evaluation, matching, satisfaction."""

from .eval import Binding, EvalError, evaluate, is_evaluable, project, skolem_key
from .match import MatchError
from .satisfaction import (Violation, clause_violations, merge_instances,
                           program_violations, satisfies_clause)

__all__ = [
    "Binding", "EvalError", "evaluate", "is_evaluable", "project",
    "skolem_key",
    "MatchError",
    "Violation", "clause_violations", "merge_instances",
    "program_violations", "satisfies_clause",
]
