"""The Morphase compilation pipeline: SNF, congruence, normal form."""

from .snf import SnfError, is_snf_atom, is_snf_clause, snf_clause
from .congruence import Congruence, KeyPaths, Unsatisfiable, congruence_of
from .keyclauses import (KeyClause, derive_identity,
                         key_paths_from_spec, recognise_key_clause,
                         recognise_source_key_paths)
from .optimize import (clause_signature, is_body_satisfiable,
                       simplify_clause)
from .normalize import (NormalizationError, NormalizationOptions,
                        NormalizationReport, NormalizedProgram, normalize)

__all__ = [
    "SnfError", "is_snf_atom", "is_snf_clause", "snf_clause",
    "Congruence", "KeyPaths", "Unsatisfiable", "congruence_of",
    "KeyClause", "derive_identity", "key_paths_from_spec",
    "recognise_key_clause", "recognise_source_key_paths",
    "clause_signature", "is_body_satisfiable", "simplify_clause",
    "NormalizationError", "NormalizationOptions", "NormalizationReport",
    "NormalizedProgram", "normalize",
]
