"""Congruence closure over SNF atom sets.

This is the reasoning core of the normaliser and of the constraint-based
optimiser (paper Section 4.2).  Given the atoms of an SNF clause it
maintains equivalence classes of variables/constants under:

* explicit equalities ``X = Y`` and ``X = c``;
* *functionality* of projection: two atoms ``V = X.a`` and ``W = X.a``
  imply ``V = W`` (congruence);
* *injectivity* of constructors: ``X = ins_l(V)`` and ``X = ins_l(W)``
  imply ``V = W``; likewise for record fields and Skolem arguments
  (Skolem functions are injective by definition, Section 3.1);
* *key constraints* on classes: two members of a keyed class whose key
  paths are provably equal are the same object (the paper's Example 4.1
  optimisation).

It simultaneously detects unsatisfiability: distinct constants identified,
clashing variant labels or Skolem classes, an object in two classes,
``X != X``, false constant comparisons.  Unsatisfiable clauses can never
fire and are rejected, "causing unsatisfiable rules to be rejected"
(Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..lang.ast import (
    Atom, Const, EqAtom, InAtom, LeqAtom, LtAtom, MemberAtom, NeqAtom, Proj,
    RecordTerm, SkolemTerm, Term, Var, VariantTerm)
from ..model.values import Record, Variant

#: One attribute path: a chain of attribute names.
Path = Tuple[str, ...]
#: One key: the tuple of paths whose combined value determines an object.
KeyTuple = Tuple[Path, ...]
#: Key metadata for the optimiser: class name -> *alternative* keys (a
#: class may have several independent keys; each alone suffices to merge).
KeyPaths = Mapping[str, Tuple[KeyTuple, ...]]


class Unsatisfiable(Exception):
    """The atom set can never be satisfied."""


@dataclass(frozen=True)
class _Node:
    """A union-find node id: variables by name, constants by value."""

    kind: str  # "var" | "const"
    payload: object

    def __str__(self) -> str:
        return str(self.payload)


def _var(name: str) -> _Node:
    return _Node("var", name)


def _const(value: object) -> _Node:
    # bool is an int in Python; tag the type to keep true != 1.
    return _Node("const", (type(value).__name__, value))


@dataclass(frozen=True)
class _App:
    """A function application over representative nodes (for congruence)."""

    op: str            # "proj:a" | "variant:l" | "record:l1,l2" | "skolem:C"
    args: Tuple[_Node, ...]


class Congruence:
    """Incremental congruence closure over SNF atoms."""

    def __init__(self, key_paths: Optional[KeyPaths] = None) -> None:
        self._parent: Dict[_Node, _Node] = {}
        self._members: Dict[_Node, Set[str]] = {}   # rep -> class names
        # rep -> constructor definition (injective): (_App)
        self._constructions: Dict[_Node, _App] = {}
        # app -> result rep (for functional lookups incl. projections)
        self._apps: Dict[_App, _Node] = {}
        self._key_paths = dict(key_paths or {})
        self._disequalities: List[Tuple[_Node, _Node]] = []

    # ------------------------------------------------------------------
    # Union-find
    # ------------------------------------------------------------------
    def _find(self, node: _Node) -> _Node:
        root = node
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(node, node) != node:
            self._parent[node], node = root, self._parent[node]
        return root

    def _union(self, left: _Node, right: _Node) -> None:
        left, right = self._find(left), self._find(right)
        if left == right:
            return
        if left.kind == "const" and right.kind == "const":
            raise Unsatisfiable(
                f"distinct constants equated: {left} = {right}")
        # Prefer constants as representatives, then original variables
        # over auxiliaries, then lexicographic for determinism.
        if _rep_priority(right) < _rep_priority(left):
            left, right = right, left
        self._parent[right] = left
        # Merge class memberships.
        if right in self._members:
            for cname in self._members.pop(right):
                self._add_membership(left, cname)
        # Merge constructor definitions (injectivity).  Checking *both*
        # merged roots keeps the closure order-independent: whichever
        # side carried the construction, it is re-anchored (and, when the
        # surviving root is a constant, reconciled) the same way.
        for node in (right, left):
            if node in self._constructions and self._find(node) != node:
                self._add_construction(node, self._constructions.pop(node))

    def _union_changed(self, left: _Node, right: _Node) -> bool:
        """Union returning whether the two roots were actually distinct."""
        if self._find(left) == self._find(right):
            return False
        self._union(left, right)
        return True

    def _reconcile_const_construction(self, const_node: _Node,
                                      app: _App) -> bool:
        """A constant equated with a constructed value.

        Order-independence requires this to behave identically whether
        the construction reaches the constant via :meth:`_union` (the
        constant becomes the representative of a constructed variable)
        or directly in :meth:`_add_construction` (``0 = <a: X>``).  The
        constant's *value* decides: a variant/record value with the same
        shape decomposes (unifying the construction's arguments with the
        value's components); anything else can never equal a constructed
        value and is Unsatisfiable.  Returns True when any decomposition
        merged previously distinct classes.
        """
        assert const_node.kind == "const"
        value = const_node.payload[1]  # (type tag, value)
        op, _, detail = app.op.partition(":")
        if op == "variant" and isinstance(value, Variant):
            if value.label != detail:
                raise Unsatisfiable(
                    f"constant {const_node} has variant label "
                    f"{value.label!r}, not {detail!r}")
            return self._union_changed(app.args[0], _const(value.value))
        if op == "record" and isinstance(value, Record):
            labels = tuple(detail.split(",")) if detail else ()
            if set(labels) != set(value.labels()):
                raise Unsatisfiable(
                    f"constant {const_node} has record labels "
                    f"{sorted(value.labels())}, not {sorted(labels)}")
            changed = False
            for label, arg in zip(labels, app.args, strict=False):
                changed |= self._union_changed(arg, _const(value.get(label)))
            return changed
        raise Unsatisfiable(
            f"constant {const_node} equated with a constructed "
            f"value ({app.op})")

    # ------------------------------------------------------------------
    # Node helpers
    # ------------------------------------------------------------------
    def _node_of(self, term: Term) -> _Node:
        if isinstance(term, Var):
            return self._find(_var(term.name))
        if isinstance(term, Const):
            return self._find(_const(term.value))
        raise ValueError(f"not an SNF-simple term: {term!r}")

    def _add_membership(self, rep: _Node, class_name: str) -> None:
        rep = self._find(rep)
        if rep.kind == "const":
            raise Unsatisfiable(
                f"constant {rep} asserted to be in class {class_name}")
        classes = self._members.setdefault(rep, set())
        if classes and class_name not in classes:
            other = sorted(classes)[0]
            raise Unsatisfiable(
                f"object in two classes: {class_name} and {other}")
        classes.add(class_name)

    def _add_construction(self, rep: _Node, app: _App) -> None:
        rep = self._find(rep)
        if rep.kind == "const":
            # Constructions are never stored under constant reps: the
            # clash (or decomposition) happens right here, in whichever
            # atom/argument order the constant and the construction meet.
            self._reconcile_const_construction(rep, app)
            return
        existing = self._constructions.get(rep)
        if existing is None:
            self._constructions[rep] = app
            return
        if existing.op != app.op or len(existing.args) != len(app.args):
            raise Unsatisfiable(
                f"conflicting constructions {existing.op} vs {app.op}")
        # Injectivity: unify the arguments pairwise.
        for old, new in zip(existing.args, app.args, strict=True):
            self._union(old, new)

    def _register_app(self, app: _App, result: _Node) -> None:
        """Functional lookup table (projection congruence)."""
        existing = self._apps.get(app)
        if existing is None:
            self._apps[app] = result
        else:
            self._union(existing, result)

    # ------------------------------------------------------------------
    # Atom ingestion
    # ------------------------------------------------------------------
    def add_atom(self, atom: Atom) -> None:
        if isinstance(atom, EqAtom):
            self._add_equality(atom.left, atom.right)
        elif isinstance(atom, MemberAtom):
            self._add_membership(self._node_of(atom.element),
                                 atom.class_name)
        elif isinstance(atom, NeqAtom):
            self._disequalities.append(
                (self._node_of(atom.left), self._node_of(atom.right)))
        elif isinstance(atom, (InAtom, LtAtom, LeqAtom)):
            pass  # no equational content
        else:
            raise ValueError(f"unknown atom kind: {atom!r}")

    def _add_equality(self, left: Term, right: Term) -> None:
        if isinstance(right, (Var, Const)):
            self._union(self._node_of_fresh(left), self._node_of_fresh(right))
            return
        target = self._node_of_fresh(left)
        if isinstance(right, Proj):
            app = _App(f"proj:{right.attr}",
                       (self._node_of_fresh(right.subject),))
            self._register_app(app, target)
            return
        if isinstance(right, VariantTerm):
            app = _App(f"variant:{right.label}",
                       (self._node_of_fresh(right.payload),))
            self._add_construction(target, app)
            self._register_app(app, target)
            return
        if isinstance(right, RecordTerm):
            labels = ",".join(right.labels())
            app = _App(f"record:{labels}", tuple(
                self._node_of_fresh(value) for _, value in right.fields))
            self._add_construction(target, app)
            self._register_app(app, target)
            return
        if isinstance(right, SkolemTerm):
            arg_labels = ",".join(
                label if label is not None else f"arg{index}"
                for index, (label, _) in enumerate(right.args))
            app = _App(f"skolem:{right.class_name}:{arg_labels}", tuple(
                self._node_of_fresh(value) for _, value in right.args))
            self._add_construction(target, app)
            self._register_app(app, target)
            return
        raise ValueError(f"not an SNF right-hand side: {right!r}")

    def _node_of_fresh(self, term: Term) -> _Node:
        node = self._node_of(term)
        return node

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Run congruence + key merging to a fixpoint, then check."""
        for _ in range(10_000):
            if not (self._congruence_round() or self._key_round()):
                break
        else:  # pragma: no cover - defensive
            raise RuntimeError("congruence closure did not converge")
        self._check_disequalities()

    def _congruence_round(self) -> bool:
        """Re-canonicalise the app table; returns True on any merge."""
        changed = False
        rebuilt: Dict[_App, _Node] = {}
        for app, result in list(self._apps.items()):
            canon = _App(app.op, tuple(self._find(a) for a in app.args))
            result = self._find(result)
            existing = rebuilt.get(canon)
            if existing is None:
                rebuilt[canon] = result
            elif self._find(existing) != result:
                self._union(existing, result)
                changed = True
        self._apps = rebuilt
        # Re-canonicalise constructions (keys may have merged reps).
        constructions: Dict[_Node, _App] = {}
        for rep, app in list(self._constructions.items()):
            canon_rep = self._find(rep)
            canon_app = _App(app.op, tuple(self._find(a) for a in app.args))
            if canon_rep.kind == "const":
                # A constructed class was merged into a constant since
                # this entry was stored: reconcile, don't re-anchor.
                if self._reconcile_const_construction(canon_rep, canon_app):
                    changed = True
                continue
            if canon_rep in constructions:
                existing_app = constructions[canon_rep]
                if (existing_app.op != canon_app.op
                        or len(existing_app.args) != len(canon_app.args)):
                    raise Unsatisfiable(
                        f"conflicting constructions {existing_app.op} "
                        f"vs {canon_app.op}")
                for old, new in zip(existing_app.args, canon_app.args,
                                    strict=True):
                    if self._find(old) != self._find(new):
                        self._union(old, new)
                        changed = True
            else:
                constructions[canon_rep] = canon_app
        self._constructions = constructions
        return changed

    def _key_round(self) -> bool:
        """Merge same-class members with provably equal keys."""
        if not self._key_paths:
            return False
        changed = False
        by_class: Dict[str, List[_Node]] = {}
        for rep, classes in list(self._members.items()):
            rep = self._find(rep)
            for cname in classes:
                if cname in self._key_paths:
                    by_class.setdefault(cname, []).append(rep)
        for cname, reps in by_class.items():
            for paths in self._key_paths[cname]:
                signature: Dict[Tuple[_Node, ...], _Node] = {}
                for rep in reps:
                    key = self._key_signature(rep, paths)
                    if key is None:
                        continue
                    other = signature.get(key)
                    if other is None:
                        signature[key] = rep
                    elif self._find(other) != self._find(rep):
                        self._union(other, rep)
                        changed = True
        return changed

    def _key_signature(self, rep: _Node,
                       paths: Tuple[Tuple[str, ...], ...]
                       ) -> Optional[Tuple[_Node, ...]]:
        components: List[_Node] = []
        for path in paths:
            node = self._find(rep)
            for attr in path:
                step = self._apps.get(
                    _App(f"proj:{attr}", (self._find(node),)))
                if step is None:
                    return None
                node = self._find(step)
            components.append(node)
        return tuple(components)

    def _check_disequalities(self) -> None:
        for left, right in self._disequalities:
            if self._find(left) == self._find(right):
                raise Unsatisfiable(
                    f"disequality violated: {left} != {right}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def representative(self, term: Term) -> Term:
        """The canonical Var/Const for an SNF-simple term."""
        node = self._node_of(term)
        if node.kind == "const":
            return Const(node.payload[1])  # type: ignore[index]
        return Var(str(node.payload))

    def same(self, left: Term, right: Term) -> bool:
        return self._node_of(left) == self._node_of(right)

    def lookup_projection(self, subject: Term, attr: str) -> Optional[Term]:
        """The representative of ``subject.attr`` if recorded."""
        app = _App(f"proj:{attr}", (self._node_of(subject),))
        node = self._apps.get(app)
        if node is None:
            return None
        return self._node_to_term(self._find(node))

    def lookup_rhs(self, rhs: Term) -> Optional[Term]:
        """The representative equal to an SNF right-hand side, if recorded.

        ``rhs`` must have Var/Const leaves already resolvable in this
        congruence; returns None when no atom defined such a value.
        """
        if isinstance(rhs, (Var, Const)):
            return self._node_to_term(self._node_of(rhs))
        app = self._app_of_rhs(rhs)
        node = self._apps.get(app)
        if node is None:
            return None
        return self._node_to_term(self._find(node))

    def _app_of_rhs(self, rhs: Term) -> _App:
        if isinstance(rhs, Proj):
            return _App(f"proj:{rhs.attr}", (self._node_of(rhs.subject),))
        if isinstance(rhs, VariantTerm):
            return _App(f"variant:{rhs.label}",
                        (self._node_of(rhs.payload),))
        if isinstance(rhs, RecordTerm):
            labels = ",".join(rhs.labels())
            return _App(f"record:{labels}", tuple(
                self._node_of(value) for _, value in rhs.fields))
        if isinstance(rhs, SkolemTerm):
            arg_labels = ",".join(
                label if label is not None else f"arg{index}"
                for index, (label, _) in enumerate(rhs.args))
            return _App(f"skolem:{rhs.class_name}:{arg_labels}", tuple(
                self._node_of(value) for _, value in rhs.args))
        raise ValueError(f"not an SNF right-hand side: {rhs!r}")

    def _node_to_term(self, node: _Node) -> Term:
        if node.kind == "const":
            return Const(node.payload[1])  # type: ignore[index]
        return Var(str(node.payload))


def _rep_priority(node: _Node) -> Tuple[int, str]:
    """Lower sorts first: constants, then user variables, then auxiliaries."""
    if node.kind == "const":
        return (0, str(node.payload))
    name = str(node.payload)
    if name.startswith("_s"):
        return (2, name)
    return (1, name)


def congruence_of(atoms: Sequence[Atom],
                  key_paths: Optional[KeyPaths] = None) -> Congruence:
    """Build and close a congruence over ``atoms``.

    Raises :class:`Unsatisfiable` when the atoms are contradictory.
    """
    congruence = Congruence(key_paths)
    for atom in atoms:
        congruence.add_atom(atom)
    congruence.close()
    _check_constant_comparisons(atoms, congruence)
    return congruence


def _check_constant_comparisons(atoms: Sequence[Atom],
                                congruence: Congruence) -> None:
    for atom in atoms:
        if not isinstance(atom, (LtAtom, LeqAtom)):
            continue
        left = congruence.representative(atom.left)
        right = congruence.representative(atom.right)
        if isinstance(left, Const) and isinstance(right, Const):
            try:
                holds = (left.value < right.value
                         if isinstance(atom, LtAtom)
                         else left.value <= right.value)
            except TypeError:
                raise Unsatisfiable(
                    f"incomparable constants in {atom}") from None
            if not holds:
                raise Unsatisfiable(f"false comparison {atom}")
        elif (isinstance(atom, LtAtom)
                and congruence.same(atom.left, atom.right)):
            raise Unsatisfiable(f"irreflexive comparison {atom}")
