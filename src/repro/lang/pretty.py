"""Pretty printing of WOL programs.

``str(term)`` / ``str(atom)`` / ``str(clause)`` already render valid
concrete syntax; this module adds layout for whole programs (wrapping long
clauses, aligning the implication arrow).  Pretty-printed output re-parses
to an equal AST (``tests/properties/test_lang_properties.py``).
"""

from __future__ import annotations

from typing import List

from .ast import Clause, Program


def format_atoms(atoms, indent: str = "  ", width: int = 72) -> str:
    """Comma-separated atoms, wrapped at ``width`` columns."""
    parts = [str(atom) for atom in atoms]
    lines: List[str] = []
    current = ""
    for index, part in enumerate(parts):
        candidate = part if not current else f"{current}, {part}"
        if current and len(indent) + len(candidate) > width:
            lines.append(current + ",")
            current = part
        else:
            current = candidate
    if current:
        lines.append(current)
    return ("\n" + indent).join(lines)


def format_clause(clause: Clause, width: int = 72) -> str:
    """Render one clause with the head and body on separate lines."""
    prefix = ""
    if clause.kind is not None:
        prefix += clause.kind + " "
    if clause.name is not None:
        prefix += clause.name + ":"
    lines: List[str] = []
    if prefix:
        lines.append(prefix)
    head = format_atoms(clause.head, indent="  ", width=width)
    if not clause.body:
        lines.append(f"  {head};")
        return "\n".join(lines)
    body = format_atoms(clause.body, indent="     ", width=width)
    lines.append(f"  {head}")
    lines.append(f"  <= {body};")
    return "\n".join(lines)


def format_program(program: Program, width: int = 72) -> str:
    """Render a whole program, one blank line between clauses."""
    return "\n\n".join(format_clause(clause, width) for clause in program)
