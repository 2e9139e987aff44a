"""Normal-form derivation for WOL transformation programs (paper Section 5).

A transformation clause in *normal form* completely defines an insert into
the target database in terms of the source database only: its body contains
no target classes, and its head identifies a target object (by Skolem key)
and supplies its attribute values.  Morphase trades compile-time expense for
run-time efficiency by rewriting a program so that all clauses are in normal
form; the result can then be applied in a single pass.

The pipeline implemented here:

1. **SNF** every clause (:mod:`repro.normalization.snf`).
2. **Classify** clauses: source constraints, target key clauses, producers
   (head creates target objects), assigners (head writes attributes of
   target objects identified in the body), and residual constraints.
3. **Derive identities** for created objects from key clauses
   (Section 4.1: keys determine transformations).
4. **Close producers**: unfold body references to target classes through
   the producers of those classes, in topological order of the
   identity-dependency graph; a cycle violates Morphase's non-recursiveness
   restriction and is reported.
5. **Merge assigners** into producers, one combination per choice of
   assigner per missing attribute — the source of the potential exponential
   blow-up the paper reports when constraints are omitted; with constraints
   the congruence engine rejects unsatisfiable combinations and collapses
   redundant joins (Section 4.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..lang.ast import (
    Atom, Clause, EqAtom, InAtom, MemberAtom, Program, Proj, SkolemTerm, Term,
    Var)
from ..lang.range_restriction import body_bound_variables
from ..model.keys import KeySpec
from ..model.schema import Schema
from .congruence import KeyPaths, Unsatisfiable, congruence_of
from .keyclauses import (KeyClause, derive_identity, key_paths_from_spec,
                         recognise_key_clause, recognise_source_key_paths)
from .optimize import clause_signature, is_body_satisfiable, simplify_clause
from .snf import snf_clause


class NormalizationError(Exception):
    """Raised when a program cannot be brought into normal form."""


@dataclass
class NormalizationOptions:
    """Tuning knobs, mirroring the paper's ablations.

    ``use_constraints``
        apply constraint knowledge: source-key merging of variables and
        rejection of unsatisfiable derived clauses (Section 4.2).  Off, the
        normaliser keeps every combination — the paper's exponential case.
    ``simplify``
        canonicalise bodies and drop unused definitions.
    ``max_clauses``
        guard against runaway blow-up; exceeded -> error.
    """

    use_constraints: bool = True
    simplify: bool = True
    max_clauses: int = 200_000
    #: (class, attribute) pairs that need not be covered by every emitted
    #: clause: the attribute accumulates at run time from separate merged
    #: clauses (and may be filled by executor defaults).  Used by the
    #: schema-evolution 'default' policy.
    optional_attributes: FrozenSet[Tuple[str, str]] = frozenset()


@dataclass
class NormalizationReport:
    """Statistics of one normalisation run (basis of benches E3/E4)."""

    input_clauses: int = 0
    input_size: int = 0
    normal_clauses: int = 0
    normal_size: int = 0
    producers: int = 0
    assigners: int = 0
    pruned_unsatisfiable: int = 0
    merged_combinations: int = 0
    uncovered: Dict[str, List[str]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0


@dataclass
class NormalizedProgram:
    """The output of :func:`normalize`."""

    clauses: Tuple[Clause, ...]
    source_constraints: Tuple[Clause, ...]
    target_constraints: Tuple[Clause, ...]
    key_clauses: Dict[str, KeyClause]
    source_key_paths: Dict[str, Tuple[Tuple[Tuple[str, ...], ...], ...]]
    report: NormalizationReport

    def program(self) -> Program:
        return Program(self.clauses)

    def size(self) -> int:
        return sum(clause.size() for clause in self.clauses)


# ----------------------------------------------------------------------
# Clause analysis
# ----------------------------------------------------------------------

@dataclass
class _Analyzed:
    """An SNF clause with its target-object structure extracted."""

    clause: Clause
    created: Dict[str, str]          # created var -> class (head members)
    identities: Dict[str, SkolemTerm]  # var -> head identity
    assigned_attrs: Dict[str, Set[str]]  # var -> attrs written in head
    external: Dict[str, str]         # body-identified target var -> class

    @property
    def name(self) -> str:
        return self.clause.name or "<anon>"


def _head_assignments(clause: Clause) -> Dict[str, Set[str]]:
    """Map object var -> attributes written by head atoms ``V = X.a``.

    Set-insertion handles (``V = X.a`` paired with a head ``E in V``) are
    not assignments: the attribute accumulates elements instead.
    """
    collection_vars = {
        atom.collection.name for atom in clause.head
        if isinstance(atom, InAtom) and isinstance(atom.collection, Var)}
    out: Dict[str, Set[str]] = {}
    for atom in clause.head:
        if (isinstance(atom, EqAtom) and isinstance(atom.right, Proj)
                and isinstance(atom.right.subject, Var)
                and not (isinstance(atom.left, Var)
                         and atom.left.name in collection_vars)):
            out.setdefault(atom.right.subject.name, set()).add(
                atom.right.attr)
    return out


def _analyze(clause: Clause, target_classes: FrozenSet[str]) -> _Analyzed:
    created: Dict[str, str] = {}
    for atom in clause.head:
        if (isinstance(atom, MemberAtom)
                and atom.class_name in target_classes
                and isinstance(atom.element, Var)):
            created[atom.element.name] = atom.class_name

    identities: Dict[str, SkolemTerm] = {}
    for atom in clause.head:
        if (isinstance(atom, EqAtom) and isinstance(atom.left, Var)
                and isinstance(atom.right, SkolemTerm)
                and atom.right.class_name in target_classes):
            identities[atom.left.name] = atom.right

    body_members: Dict[str, str] = {}
    for atom in clause.body:
        if (isinstance(atom, MemberAtom)
                and atom.class_name in target_classes
                and isinstance(atom.element, Var)):
            body_members[atom.element.name] = atom.class_name

    assigned = _head_assignments(clause)
    external = {var: cname for var, cname in body_members.items()
                if var in assigned and var not in created}
    return _Analyzed(clause, created, identities, assigned, external)


# ----------------------------------------------------------------------
# Identity derivation
# ----------------------------------------------------------------------

def _ensure_identities(analyzed: _Analyzed,
                       key_clauses: Mapping[str, KeyClause]) -> _Analyzed:
    """Add derived ``X = Mk_C(...)`` head atoms for created objects."""
    missing = [var for var in analyzed.created
               if var not in analyzed.identities]
    if not missing:
        return analyzed
    try:
        congruence = congruence_of(analyzed.clause.atoms())
    except Unsatisfiable as exc:
        raise NormalizationError(
            f"clause {analyzed.name}: head and body are "
            f"contradictory") from exc
    new_atoms: List[Atom] = []
    for var in missing:
        cname = analyzed.created[var]
        key_clause = key_clauses.get(cname)
        if key_clause is None:
            raise NormalizationError(
                f"clause {analyzed.name}: no key clause for target class "
                f"{cname}; cannot identify the created object {var}")
        identity = derive_identity(congruence, Var(var), key_clause)
        if identity is None:
            raise NormalizationError(
                f"clause {analyzed.name}: cannot derive the key of class "
                f"{cname} for object {var}; the clause does not determine "
                f"all key attributes")
        analyzed.identities[var] = identity
        new_atoms.append(EqAtom(Var(var), identity))
    clause = Clause(analyzed.clause.head + tuple(new_atoms),
                    analyzed.clause.body, name=analyzed.clause.name,
                    kind=analyzed.clause.kind)
    return _Analyzed(clause, analyzed.created, analyzed.identities,
                     analyzed.assigned_attrs, analyzed.external)


def _identity_args_evaluable(analyzed: _Analyzed) -> None:
    bound = body_bound_variables(analyzed.clause)
    for var, identity in analyzed.identities.items():
        if var not in analyzed.created:
            continue
        for name in identity.variables():
            if name not in bound and name not in analyzed.created:
                raise NormalizationError(
                    f"clause {analyzed.name}: key argument {name} of "
                    f"{identity} is not determined by the body")


# ----------------------------------------------------------------------
# Unfolding
# ----------------------------------------------------------------------

def _assignment_value(producer: Clause, object_var: str,
                      attr: str) -> Optional[Term]:
    """The value the producer's head assigns to ``object_var.attr``."""
    for atom in producer.head:
        if (isinstance(atom, EqAtom) and isinstance(atom.right, Proj)
                and isinstance(atom.right.subject, Var)
                and atom.right.subject.name == object_var
                and atom.right.attr == attr):
            return atom.left
    return None


def _unfold_member(clause: Clause, member: MemberAtom,
                   producer: _Analyzed) -> Optional[Clause]:
    """Replace a body ``Y in D`` through one closed producer of ``D``.

    Returns the unfolded clause, or None when a read of ``Y`` cannot be
    resolved against the producer's head assignments.
    """
    assert isinstance(member.element, Var)
    y = member.element.name
    renamed = producer.clause.rename_apart(clause.variables())
    produced_var = None
    for var, cname in producer.created.items():
        if cname == member.class_name:
            produced_var = var
            break
    if produced_var is None:
        return None
    # Recover the renamed names by positional correspondence.
    rename_map = _infer_renaming(producer.clause, renamed)
    produced_var = rename_map.get(produced_var, produced_var)
    identity = None
    for atom in renamed.head:
        if (isinstance(atom, EqAtom) and isinstance(atom.left, Var)
                and atom.left.name == produced_var
                and isinstance(atom.right, SkolemTerm)):
            identity = atom.right
            break
    if identity is None:
        return None

    new_body: List[Atom] = []
    for atom in clause.body:
        if atom == member:
            continue
        if (isinstance(atom, EqAtom) and isinstance(atom.right, Proj)
                and isinstance(atom.right.subject, Var)
                and atom.right.subject.name == y):
            value = _assignment_value(renamed, produced_var,
                                      atom.right.attr)
            if value is None:
                return None
            new_body.append(EqAtom(atom.left, value))
            continue
        new_body.append(atom)
    new_body.extend(renamed.body)
    new_body.append(EqAtom(Var(y), identity))
    return Clause(clause.head, tuple(new_body), name=clause.name,
                  kind=clause.kind)


def _infer_renaming(original: Clause, renamed: Clause) -> Dict[str, str]:
    """Variable mapping between a clause and its renamed-apart copy."""
    mapping: Dict[str, str] = {}
    for orig_atom, new_atom in zip(original.atoms(), renamed.atoms(),
                                   strict=True):
        _match_vars(orig_atom, new_atom, mapping)
    return mapping


def _match_vars(orig, new, mapping: Dict[str, str]) -> None:
    orig_terms = orig.terms() if isinstance(orig, Atom) else [orig]
    new_terms = new.terms() if isinstance(new, Atom) else [new]
    for o, n in zip(orig_terms, new_terms, strict=True):
        for osub, nsub in zip(o.walk(), n.walk(), strict=True):
            if isinstance(osub, Var) and isinstance(nsub, Var):
                mapping[osub.name] = nsub.name


def _close_clause(analyzed: _Analyzed, target_classes: FrozenSet[str],
                  closed: Mapping[str, List[_Analyzed]],
                  keep_members: FrozenSet[str],
                  key_paths: Optional[KeyPaths],
                  options: NormalizationOptions,
                  report: NormalizationReport) -> List[Clause]:
    """Unfold all body target members (except ``keep_members`` vars)."""
    results: List[Clause] = []
    worklist: List[Clause] = [analyzed.clause]
    while worklist:
        clause = worklist.pop()
        member = None
        for atom in clause.body:
            if (isinstance(atom, MemberAtom)
                    and atom.class_name in target_classes
                    and isinstance(atom.element, Var)
                    and atom.element.name not in keep_members):
                member = atom
                break
        if member is None:
            results.append(clause)
            continue
        producers = closed.get(member.class_name, [])
        for producer in producers:
            unfolded = _unfold_member(clause, member, producer)
            if unfolded is None:
                continue
            if options.use_constraints and not is_body_satisfiable(
                    unfolded, key_paths):
                report.pruned_unsatisfiable += 1
                continue
            worklist.append(unfolded)
            if (len(worklist) + len(results)) > options.max_clauses:
                raise NormalizationError(
                    "normalisation exceeded the clause budget "
                    f"({options.max_clauses}); the program may be "
                    "recursive or exponentially ambiguous")
    return results


# ----------------------------------------------------------------------
# Assigner merging
# ----------------------------------------------------------------------

def _merge_assigner(producer: _Analyzed, producer_var: str,
                    assigner: _Analyzed, assigner_var: str
                    ) -> Optional[Clause]:
    """Merge one closed assigner into one closed producer."""
    renamed = assigner.clause.rename_apart(producer.clause.variables())
    rename_map = _infer_renaming(assigner.clause, renamed)
    x_a = rename_map.get(assigner_var, assigner_var)
    # Substitute the assigner's object variable by the producer's.
    substituted = renamed.substitute({x_a: Var(producer_var)})

    body: List[Atom] = list(producer.clause.body)
    for atom in substituted.body:
        if (isinstance(atom, MemberAtom)
                and isinstance(atom.element, Var)
                and atom.element.name == producer_var):
            continue  # the producer's own membership
        if (isinstance(atom, EqAtom) and isinstance(atom.right, Proj)
                and isinstance(atom.right.subject, Var)
                and atom.right.subject.name == producer_var):
            value = _assignment_value(producer.clause, producer_var,
                                      atom.right.attr)
            if value is None:
                return None  # reads an attribute the producer lacks
            body.append(EqAtom(atom.left, value))
            continue
        body.append(atom)

    head = list(producer.clause.head) + [
        atom for atom in substituted.head if atom not in producer.clause.head]
    name_parts = [producer.clause.name or "p", assigner.clause.name or "a"]
    return Clause(tuple(head), tuple(body), name="+".join(name_parts),
                  kind=producer.clause.kind)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def normalize(program: Program, source_schema: Schema,
              target_schema: Schema,
              source_keys: Optional[KeySpec] = None,
              options: Optional[NormalizationOptions] = None
              ) -> NormalizedProgram:
    """Rewrite ``program`` into an equivalent normal-form program.

    ``source_schema`` / ``target_schema`` decide which classes are read and
    which are written; ``source_keys`` supplies schema-level surrogate keys
    for the optimiser (key clauses inside the program are recognised too).
    """
    options = options or NormalizationOptions()
    report = NormalizationReport()
    start = time.perf_counter()

    source_classes = frozenset(source_schema.class_names())
    target_classes = frozenset(target_schema.class_names())
    overlap = source_classes & target_classes
    if overlap:
        raise NormalizationError(
            f"source and target schemas share classes: {sorted(overlap)}")

    report.input_clauses = len(program)
    report.input_size = program.size()

    snf_clauses = [snf_clause(clause) for clause in program]

    source_constraints: List[Clause] = []
    target_constraints: List[Clause] = []
    key_clauses: Dict[str, KeyClause] = {}
    producers: List[_Analyzed] = []
    assigners: List[_Analyzed] = []
    source_key_paths: Dict[str, Tuple[Tuple[Tuple[str, ...], ...], ...]] = {}
    if source_keys is not None:
        source_key_paths.update(key_paths_from_spec(source_keys))

    for clause in snf_clauses:
        mentioned = clause.classes_mentioned()
        unknown = mentioned - source_classes - target_classes
        if unknown:
            raise NormalizationError(
                f"clause {clause.name or clause}: unknown classes "
                f"{sorted(unknown)}")
        touches_target = bool(mentioned & target_classes)
        if not touches_target:
            source_constraints.append(clause)
            recognised = recognise_source_key_paths(clause)
            if recognised is not None:
                cname, paths = recognised
                existing = source_key_paths.get(cname, ())
                if paths not in existing:
                    source_key_paths[cname] = existing + (paths,)
            continue
        key_clause = recognise_key_clause(clause)
        if key_clause is not None and key_clause.class_name in target_classes:
            if key_clause.class_name in key_clauses:
                raise NormalizationError(
                    f"multiple key clauses for class "
                    f"{key_clause.class_name}")
            key_clauses[key_clause.class_name] = key_clause
            continue
        analyzed = _analyze(clause, target_classes)
        if analyzed.created:
            if analyzed.external:
                raise NormalizationError(
                    f"clause {analyzed.name}: creates objects and assigns "
                    f"attributes of other target objects in one clause; "
                    f"split it into separate clauses")
            producers.append(analyzed)
        elif analyzed.external:
            assigners.append(analyzed)
        else:
            target_constraints.append(clause)

    key_paths: Optional[KeyPaths] = (
        source_key_paths if options.use_constraints else None)

    report.producers = len(producers)
    report.assigners = len(assigners)

    # Identity derivation.
    producers = [_ensure_identities(p, key_clauses) for p in producers]
    for producer in producers:
        _identity_args_evaluable(producer)

    # Producer dependency graph over target classes.
    by_class: Dict[str, List[_Analyzed]] = {}
    deps: Dict[str, Set[str]] = {cname: set() for cname in target_classes}
    for producer in producers:
        body_targets = {
            atom.class_name for atom in producer.clause.body
            if isinstance(atom, MemberAtom)
            and atom.class_name in target_classes}
        for cname in set(producer.created.values()):
            by_class.setdefault(cname, []).append(producer)
            deps[cname] |= body_targets
    order = _topological(deps)

    # Close producers class by class.
    closed: Dict[str, List[_Analyzed]] = {}
    for cname in order:
        closed[cname] = []
        for producer in by_class.get(cname, []):
            for clause in _close_clause(producer, target_classes, closed,
                                        frozenset(), key_paths, options,
                                        report):
                if options.simplify:
                    simplified = simplify_clause(
                        clause, key_paths,
                        prune_unsat=options.use_constraints)
                    if simplified is None:
                        report.pruned_unsatisfiable += 1
                        continue
                    clause = simplified
                analyzed = _analyze(clause, target_classes)
                closed[cname].append(analyzed)

    # Close assigners (keep their object variables' memberships).
    closed_assigners: Dict[str, List[Tuple[str, _Analyzed]]] = {}
    for assigner in assigners:
        if len(assigner.external) != 1:
            raise NormalizationError(
                f"clause {assigner.name}: assigns attributes of "
                f"{len(assigner.external)} distinct target objects; only "
                f"one is supported")
        (obj_var, cname), = assigner.external.items()
        for clause in _close_clause(assigner, target_classes, closed,
                                    frozenset({obj_var}), key_paths,
                                    options, report):
            if options.simplify:
                simplified = simplify_clause(
                    clause, key_paths, prune_unsat=options.use_constraints)
                if simplified is None:
                    report.pruned_unsatisfiable += 1
                    continue
                clause = simplified
            analyzed = _analyze(clause, target_classes)
            closed_assigners.setdefault(cname, []).append(
                (obj_var, analyzed))

    # Combine producers with assigners per class.
    normal: List[Clause] = []
    signatures: Set[Tuple[str, str]] = set()
    uncovered: Dict[str, Set[str]] = {}
    for cname in order:
        # Set-valued attributes accumulate (and default to empty), so
        # they never gate completeness.
        from ..model.types import RecordType as _RecordType, SetType as _SetType
        ctype = target_schema.class_type(cname)
        attrs = {
            label for label in target_schema.attributes(cname)
            if not (isinstance(ctype, _RecordType)
                    and isinstance(ctype.field_type(label), _SetType))}
        for producer in closed.get(cname, []):
            produced_vars = [var for var, pc in producer.created.items()
                             if pc == cname]
            for produced_var in produced_vars:
                assigned = producer.assigned_attrs.get(produced_var, set())
                missing = sorted(attrs - assigned)
                candidates: List[List[Tuple[str, _Analyzed]]] = []
                covered_missing: List[str] = []
                optional_pairs: List[Tuple[str, _Analyzed]] = []
                for attr in missing:
                    options_for_attr = [
                        (objvar, assigner)
                        for objvar, assigner in closed_assigners.get(
                            cname, [])
                        if attr in assigner.assigned_attrs.get(objvar,
                                                               set())]
                    if (cname, attr) in options.optional_attributes:
                        # Optional: never required for completeness; its
                        # assigners merge as *additional* clauses whose
                        # writes accumulate at run time.
                        optional_pairs.extend(options_for_attr)
                        continue
                    if options_for_attr:
                        covered_missing.append(attr)
                        candidates.append(options_for_attr)
                    else:
                        uncovered.setdefault(cname, set()).add(attr)
                # Depth-first combination with early pruning: a partial
                # merge that is already unsatisfiable kills its whole
                # subtree.  This is why constraint knowledge keeps
                # compilation tractable (Section 6) — without it the
                # full choices^attributes tree is materialised.
                def emit(clause: Clause) -> None:
                    if options.simplify:
                        simplified = simplify_clause(
                            clause, key_paths,
                            prune_unsat=options.use_constraints)
                        if simplified is None:
                            report.pruned_unsatisfiable += 1
                            return
                        clause = simplified
                    signature = clause_signature(clause)
                    if signature not in signatures:
                        signatures.add(signature)
                        normal.append(clause)
                    if len(normal) > options.max_clauses:
                        raise NormalizationError(
                            "normalisation exceeded the clause budget")

                def dfs(index: int, current: _Analyzed) -> None:
                    if index == len(candidates):
                        report.merged_combinations += 1
                        emit(current.clause)
                        # Optional attributes: also emit the combination
                        # extended by each optional assigner (one at a
                        # time; the keyed object accumulates them).
                        for objvar, assigner in optional_pairs:
                            extended = _merge_assigner(
                                current, produced_var, assigner, objvar)
                            if extended is None:
                                continue
                            if options.use_constraints and \
                                    not is_body_satisfiable(extended,
                                                            key_paths):
                                report.pruned_unsatisfiable += 1
                                continue
                            emit(extended)
                        return
                    attr = covered_missing[index]
                    if attr in current.assigned_attrs.get(produced_var,
                                                          set()):
                        # An earlier assigner covered it already.
                        dfs(index + 1, current)
                        return
                    for objvar, assigner in candidates[index]:
                        merged = _merge_assigner(current, produced_var,
                                                 assigner, objvar)
                        if merged is None:
                            continue
                        if options.use_constraints and \
                                not is_body_satisfiable(merged, key_paths):
                            report.pruned_unsatisfiable += 1
                            continue
                        dfs(index + 1, _analyze(merged, target_classes))

                dfs(0, producer)

    # Combination can yield several clauses with the same ancestor names
    # (e.g. without pruning both variant branches survive): disambiguate.
    seen_names: Dict[str, int] = {}
    unique: List[Clause] = []
    for clause in normal:
        name = clause.name
        if name is not None:
            count = seen_names.get(name, 0) + 1
            seen_names[name] = count
            if count > 1:
                name = f"{name}#{count}"
        unique.append(Clause(clause.head, clause.body, name=name,
                             kind=clause.kind))
    normal = unique

    report.normal_clauses = len(normal)
    report.normal_size = sum(clause.size() for clause in normal)
    report.uncovered = {cname: sorted(attrs)
                        for cname, attrs in uncovered.items()}
    report.elapsed_seconds = time.perf_counter() - start

    return NormalizedProgram(
        clauses=tuple(normal),
        source_constraints=tuple(source_constraints),
        target_constraints=tuple(target_constraints),
        key_clauses=key_clauses,
        source_key_paths=source_key_paths,
        report=report)


def _topological(deps: Mapping[str, Set[str]]) -> List[str]:
    """Topological order (dependencies first); cycle -> error."""
    order: List[str] = []
    state: Dict[str, int] = {}

    def visit(node: str, stack: List[str]) -> None:
        mark = state.get(node, 0)
        if mark == 2:
            return
        if mark == 1:
            cycle = stack[stack.index(node):] + [node]
            raise NormalizationError(
                "recursive target-class dependency: "
                + " -> ".join(cycle)
                + " (Morphase requires non-recursive programs)")
        state[node] = 1
        stack.append(node)
        for dep in sorted(deps.get(node, ())):
            if dep != node:
                visit(dep, stack)
            else:
                raise NormalizationError(
                    f"recursive target-class dependency: {node} -> {node}")
        stack.pop()
        state[node] = 2
        order.append(node)

    for node in sorted(deps):
        visit(node, [])
    return order
