"""Recognition and application of key clauses (paper Sections 3.1, 4.1).

Target-side key clauses like ::

    Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;

tell the normaliser how to *identify* the objects a transformation clause
creates: a producer's head must determine the key attributes, from which the
Skolem identity is derived (the combination of (T1)/(T3) with (C3) in the
paper's Section 4.1).

Source-side key clauses like the paper's (C8) ::

    X = Y <= X in CountryE, Y in CountryE, X.name = Y.name;

are recognised into :data:`~repro.normalization.congruence.KeyPaths` and fed
to the congruence engine's key-merging (Example 4.1's optimisation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.ast import (Atom, Clause, Const, EqAtom, MemberAtom, Proj,
                        SkolemTerm, Term, Var)
from ..model.keys import KeySpec
from .congruence import Congruence, Unsatisfiable, congruence_of


@dataclass(frozen=True)
class KeyClause:
    """A recognised target key clause.

    ``object_var`` is the clause's variable for the keyed object and
    ``skolem`` its head identity; ``definitions`` are the SNF body atoms
    tracing the Skolem arguments from the object.
    """

    class_name: str
    object_var: str
    skolem: SkolemTerm
    definitions: Tuple[EqAtom, ...]
    source: Clause

    def __str__(self) -> str:
        return str(self.source)


def recognise_key_clause(clause: Clause) -> Optional[KeyClause]:
    """Recognise an SNF clause of key shape, or return None.

    Shape: head is a single ``X = Mk_C(...)``; body is ``X in C`` plus
    definition atoms ``V = rhs`` that (transitively) trace the Skolem
    arguments from ``X``.
    """
    if len(clause.head) != 1:
        return None
    head = clause.head[0]
    if not (isinstance(head, EqAtom) and isinstance(head.left, Var)
            and isinstance(head.right, SkolemTerm)):
        return None
    object_var = head.left.name
    skolem = head.right
    class_name = skolem.class_name

    member_found = False
    definitions: List[EqAtom] = []
    for atom in clause.body:
        if isinstance(atom, MemberAtom):
            if not (isinstance(atom.element, Var)
                    and atom.element.name == object_var
                    and atom.class_name == class_name):
                return None
            member_found = True
        elif isinstance(atom, EqAtom):
            definitions.append(atom)
        else:
            return None
    if not member_found:
        return None
    return KeyClause(class_name, object_var, skolem,
                     tuple(definitions), clause)


def derive_identity(congruence: Congruence, object_term: Term,
                    key_clause: KeyClause) -> Optional[SkolemTerm]:
    """Instantiate a key clause against a clause's congruence.

    ``object_term`` is the clause's variable for an object of the key's
    class.  The key clause's definition atoms are matched (in dependency
    order) by congruence lookups; when every Skolem argument resolves the
    derived identity is returned, otherwise None — the clause does not
    determine the object's key.
    """
    binding: Dict[str, Term] = {key_clause.object_var: object_term}
    pending = list(key_clause.definitions)
    progress = True
    while pending and progress:
        progress = False
        still: List[EqAtom] = []
        for atom in pending:
            resolved = _resolve_definition(congruence, atom, binding)
            if resolved:
                progress = True
            else:
                still.append(atom)
        pending = still

    args: List[Tuple[Optional[str], Term]] = []
    for label, arg in key_clause.skolem.args:
        if isinstance(arg, Const):
            args.append((label, arg))
            continue
        assert isinstance(arg, Var)
        value = binding.get(arg.name)
        if value is None:
            return None
        args.append((label, value))
    return SkolemTerm(key_clause.class_name, tuple(args))


def _resolve_definition(congruence: Congruence, atom: EqAtom,
                        binding: Dict[str, Term]) -> bool:
    """Try to bind ``atom.left`` by looking its rhs up in the congruence."""
    assert isinstance(atom.left, Var)
    if atom.left.name in binding:
        return False
    rhs = atom.right
    if any(name not in binding for name in rhs.variables()):
        return False
    instantiated = rhs.substitute(binding)
    try:
        value = congruence.lookup_rhs(instantiated)
    except ValueError:
        return False
    if value is None:
        return False
    binding[atom.left.name] = value
    return True


def recognise_source_key_paths(clause: Clause) -> Optional[Tuple[str, Tuple[Tuple[str, ...], ...]]]:
    """Recognise a (C8)-style source key clause into key paths.

    Shape: head ``X = Y``; body ``X in C, Y in C`` plus *pure* projection
    definitions implying ``X.p = Y.p`` for a set of attribute paths ``p``.
    Returns ``(class_name, paths)`` or None.

    Soundness: a key clause must be *unconditional*.  Bodies mentioning
    other objects, comparisons, constructions or constants (e.g. the
    paper's (C5), which only equates cities whose ``is_capital`` is true)
    are conditional equalities and are rejected — merging on them would be
    unsound.
    """
    if len(clause.head) != 1:
        return None
    head = clause.head[0]
    if not (isinstance(head, EqAtom) and isinstance(head.left, Var)
            and isinstance(head.right, Var)):
        return None
    x_name, y_name = head.left.name, head.right.name
    members: Dict[str, str] = {}
    for atom in clause.body:
        if isinstance(atom, MemberAtom):
            if not isinstance(atom.element, Var):
                return None
            members[atom.element.name] = atom.class_name
        elif isinstance(atom, EqAtom):
            # Only variable/projection equations over variables: anything
            # with constants or constructions makes the clause conditional.
            if not isinstance(atom.left, Var):
                return None
            if isinstance(atom.right, Var):
                continue
            if not (isinstance(atom.right, Proj)
                    and isinstance(atom.right.subject, Var)):
                return None
        else:
            return None
    if set(members) != {x_name, y_name}:
        return None
    if members.get(x_name) is None or members.get(x_name) != members.get(y_name):
        return None
    class_name = members[x_name]

    try:
        congruence = congruence_of(clause.body)
    except Unsatisfiable:
        return None

    x_paths = _paths_from(congruence, clause.body, x_name)
    y_paths = _paths_from(congruence, clause.body, y_name)
    shared: List[Tuple[str, ...]] = []
    for path, rep in sorted(x_paths.items()):
        other = y_paths.get(path)
        if other is not None and other == rep:
            shared.append(path)
    # Drop paths extending another shared path: if the body equated
    # ``X.country = Y.country`` then ``country.name`` equality is implied
    # and redundant — the faithful (and sound) key keeps the prefix.
    shared = [path for path in shared
              if not any(other != path and path[:len(other)] == other
                         for other in shared)]
    if not shared:
        return None
    return class_name, tuple(shared)


def _paths_from(congruence: Congruence, atoms: Sequence[Atom],
                root: str, max_depth: int = 4) -> Dict[Tuple[str, ...], Term]:
    """All projection paths from ``root`` recorded in the atoms, with the
    representative each path reaches."""
    out: Dict[Tuple[str, ...], Term] = {}
    frontier: List[Tuple[Tuple[str, ...], Term]] = [((), Var(root))]
    attrs = sorted({atom.right.attr for atom in atoms
                    if isinstance(atom, EqAtom)
                    and isinstance(atom.right, Proj)})
    for _ in range(max_depth):
        next_frontier: List[Tuple[Tuple[str, ...], Term]] = []
        for path, term in frontier:
            for attr in attrs:
                try:
                    value = congruence.lookup_projection(term, attr)
                except ValueError:
                    continue
                if value is None:
                    continue
                new_path = path + (attr,)
                if new_path not in out:
                    out[new_path] = value
                    next_frontier.append((new_path, value))
        frontier = next_frontier
        if not frontier:
            break
    return out


def key_paths_from_spec(keys: KeySpec) -> Dict[str, Tuple[Tuple[Tuple[str, ...], ...], ...]]:
    """Alternative-key metadata from a schema-level key specification.

    Each class gets one alternative: the tuple of its key function's paths.
    """
    out: Dict[str, Tuple[Tuple[Tuple[str, ...], ...], ...]] = {}
    for cname in keys.classes():
        fn = keys.key_for(cname)
        out[cname] = (tuple(path for _, path in fn.components),)
    return out
