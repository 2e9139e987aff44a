"""The WOL language (paper Section 3): AST, parser, static checks."""

from .ast import (AstError, Atom, Clause, Const, EqAtom, InAtom,
                  KIND_CONSTRAINT, KIND_TRANSFORMATION, LeqAtom, LtAtom,
                  MemberAtom, NeqAtom, Program, Proj, RecordTerm, SkolemTerm,
                  Term, UNIT_CONST, Var, VariantTerm)
from .lexer import LexError, tokenize
from .parser import (ParseError, parse_atom, parse_clause, parse_program,
                     parse_term, resolve_memberships)
from .pretty import format_clause, format_program
from .range_restriction import (RangeRestrictionError,
                                check_range_restriction,
                                unrestricted_variables)
from .typecheck import TypeReport, TypecheckError, check_clause

__all__ = [
    "AstError", "Atom", "Clause", "Const", "EqAtom", "InAtom",
    "KIND_CONSTRAINT", "KIND_TRANSFORMATION", "LeqAtom", "LtAtom",
    "MemberAtom", "NeqAtom", "Program", "Proj", "RecordTerm", "SkolemTerm",
    "Term", "UNIT_CONST", "Var", "VariantTerm",
    "LexError", "tokenize",
    "ParseError", "parse_atom", "parse_clause", "parse_program",
    "parse_term", "resolve_memberships",
    "format_clause", "format_program",
    "RangeRestrictionError", "check_range_restriction",
    "unrestricted_variables",
    "TypeReport", "TypecheckError", "check_clause",
]
