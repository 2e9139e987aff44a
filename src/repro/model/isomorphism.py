"""Instance isomorphism: equality up to renaming of object identities.

The paper's notion of the *unique smallest transformation* is "up to renaming
of object identities" (Section 3.2), and information-capacity arguments
(Section 4.3) compare instances modulo oid renaming.  This module decides
whether two instances of the same schema are isomorphic, i.e. whether there
is a bijection between their object identities, class by class, that makes
the valuations agree.

The search is a backtracking matcher guided by an oid-colouring refinement
(a light-weight analogue of the Weisfeiler-Lehman refinement used by graph
isomorphism solvers): oids are first partitioned by the shape of their value
with identities abstracted away, then matched within colour classes only.
Instances arising from transformations are usually keyed, making colour
classes tiny, so the search is effectively linear in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .instance import Instance
from .values import Oid, Record, Value, Variant, WolList, WolSet


def _shape(value: Value, colour: Dict[Oid, int]) -> object:
    """A hashable abstraction of ``value`` with oids replaced by colours."""
    if isinstance(value, Oid):
        return ("oid", value.class_name, colour.get(value, 0))
    if isinstance(value, Record):
        return ("rec", tuple(
            (label, _shape(fval, colour)) for label, fval in value.fields))
    if isinstance(value, Variant):
        return ("var", value.label, _shape(value.value, colour))
    if isinstance(value, WolSet):
        return ("set", tuple(sorted(
            (repr(_shape(e, colour)) for e in value))))
    if isinstance(value, WolList):
        return ("list", tuple(_shape(e, colour) for e in value))
    return ("base", value)


def _refine_colours(instance: Instance) -> Dict[Oid, int]:
    """Iteratively colour oids by the shape of their values."""
    colour: Dict[Oid, int] = {oid: 0 for oid in instance.all_oids()}
    for _ in range(instance.size() + 1):
        signatures = {
            oid: (oid.class_name, _shape(instance.value_of(oid), colour))
            for oid in colour}
        # Palette indices must be *canonical* (derived from signature
        # content, not visit order) so colours are comparable across
        # instances.
        palette = {sig: rank for rank, sig in enumerate(
            sorted(set(signatures.values()), key=repr))}
        next_colour = {oid: palette[signatures[oid]] for oid in colour}
        if next_colour == colour:
            break
        colour = next_colour
    return colour


@dataclass
class _MatchState:
    forward: Dict[Oid, Oid]
    backward: Dict[Oid, Oid]


def _values_match(left: Value, right: Value, state: _MatchState) -> bool:
    """Structural match of two values under the current oid mapping.

    Unmapped oid pairs are tentatively added to the mapping; the caller is
    responsible for snapshotting/restoring state on backtrack.
    """
    if isinstance(left, Oid) or isinstance(right, Oid):
        if not (isinstance(left, Oid) and isinstance(right, Oid)):
            return False
        if left.class_name != right.class_name:
            return False
        if left in state.forward:
            return state.forward[left] == right
        if right in state.backward:
            return False
        state.forward[left] = right
        state.backward[right] = left
        return True
    if isinstance(left, Record) and isinstance(right, Record):
        if left.labels() != right.labels():
            return False
        return all(_values_match(left.get(label), right.get(label), state)
                   for label in left.labels())
    if isinstance(left, Variant) and isinstance(right, Variant):
        return (left.label == right.label
                and _values_match(left.value, right.value, state))
    if isinstance(left, WolList) and isinstance(right, WolList):
        if len(left) != len(right):
            return False
        return all(_values_match(l, r, state)
                   for l, r in zip(left.elements, right.elements,
                                strict=True))
    if isinstance(left, WolSet) and isinstance(right, WolSet):
        if len(left) != len(right):
            return False
        return _match_sets(sorted(left, key=str), sorted(right, key=str),
                           state)
    return left == right


def _match_sets(left: List[Value], right: List[Value],
                state: _MatchState) -> bool:
    """Backtracking bipartite match between two equal-size value lists."""
    if not left:
        return True
    head, rest = left[0], left[1:]
    for index, candidate in enumerate(right):
        snapshot = (dict(state.forward), dict(state.backward))
        if _values_match(head, candidate, state):
            if _match_sets(rest, right[:index] + right[index + 1:], state):
                return True
        state.forward, state.backward = snapshot
    return False


def find_isomorphism(left: Instance, right: Instance,
                     budget: int = 1_000_000) -> Optional[Dict[Oid, Oid]]:
    """An oid bijection making the instances equal, or None.

    ``budget`` caps the number of backtracking steps; exceeding it raises
    :class:`RuntimeError` rather than silently reporting non-isomorphism.
    """
    if left.schema.classes != right.schema.classes:
        return None
    if left.class_sizes() != right.class_sizes():
        return None

    left_colour = _refine_colours(left)
    right_colour = _refine_colours(right)

    # Group by (class, colour histogram signature): candidate targets for
    # each left oid are right oids of the same class whose colour class has
    # the same cardinality profile.
    def colour_groups(instance: Instance, colour: Dict[Oid, int]
                      ) -> Dict[Tuple[str, object], List[Oid]]:
        groups: Dict[Tuple[str, object], List[Oid]] = {}
        for oid in instance.all_oids():
            sig = (oid.class_name,
                   repr(_shape(instance.value_of(oid), colour)))
            groups.setdefault(sig, []).append(oid)
        return groups

    left_groups = colour_groups(left, left_colour)
    right_groups = colour_groups(right, right_colour)
    if set(left_groups) != set(right_groups):
        return None
    if any(len(left_groups[sig]) != len(right_groups[sig])
           for sig in left_groups):
        return None

    order = [oid for sig in sorted(left_groups, key=repr)
             for oid in sorted(left_groups[sig], key=str)]
    state = _MatchState({}, {})
    steps = [0]

    def candidates(oid: Oid) -> List[Oid]:
        sig = (oid.class_name, repr(_shape(left.value_of(oid), left_colour)))
        return right_groups[sig]

    def extend(position: int) -> bool:
        steps[0] += 1
        if steps[0] > budget:
            raise RuntimeError("isomorphism search budget exceeded")
        if position == len(order):
            return True
        oid = order[position]
        if oid in state.forward:
            # Already forced by an earlier value match; check consistency.
            target = state.forward[oid]
            snapshot = (dict(state.forward), dict(state.backward))
            if _values_match(left.value_of(oid), right.value_of(target),
                             state) and extend(position + 1):
                return True
            state.forward, state.backward = snapshot
            return False
        for target in candidates(oid):
            if target in state.backward:
                continue
            snapshot = (dict(state.forward), dict(state.backward))
            state.forward[oid] = target
            state.backward[target] = oid
            if _values_match(left.value_of(oid), right.value_of(target),
                             state) and extend(position + 1):
                return True
            state.forward, state.backward = snapshot
        return False

    if extend(0):
        return dict(state.forward)
    return None


def isomorphic(left: Instance, right: Instance) -> bool:
    """True iff the instances are equal up to renaming of oids."""
    return find_isomorphism(left, right) is not None
