"""The Morphase system: compile WOL programs and run transformations."""

from .metadata import generate_target_key_clauses, key_clause_for
from .system import Morphase, MorphaseError, MorphaseResult

__all__ = [
    "generate_target_key_clauses", "key_clause_for",
    "Morphase", "MorphaseError", "MorphaseResult",
]
