"""Shared hypothesis strategies for property-based tests."""

from __future__ import annotations

import string

from hypothesis import strategies as st

from repro.lang.ast import (Clause, Const, EqAtom, InAtom, LeqAtom, LtAtom,
                            MemberAtom, NeqAtom, Proj, RecordTerm,
                            SkolemTerm, Var, VariantTerm)
from repro.model import (BOOL, INT, STR, Record, UNIT_VALUE, Variant, WolList,
                         WolSet, record, set_of, variant)

# ----------------------------------------------------------------------
# Identifiers
# ----------------------------------------------------------------------

_LOWER = string.ascii_lowercase

label_names = st.text(_LOWER, min_size=1, max_size=6)
var_names = st.sampled_from(
    ["X", "Y", "Z", "N", "M", "V", "W", "P", "Q", "R"])
class_names = st.sampled_from(["CityE", "CountryE", "CityT", "CountryT"])
attr_names = st.sampled_from(["name", "language", "currency", "country",
                              "is_capital", "place", "capital"])

# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------

base_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(_LOWER, max_size=8),
    st.booleans(),
    st.just(UNIT_VALUE),
)


def values(max_depth: int = 3):
    """Arbitrary WOL values (no oids: those need an instance context)."""
    return st.recursive(
        base_values,
        lambda children: st.one_of(
            st.lists(st.tuples(label_names, children), max_size=3,
                     unique_by=lambda item: item[0]).map(
                         lambda fields: Record(tuple(fields))),
            st.tuples(label_names, children).map(
                lambda pair: Variant(pair[0], pair[1])),
            st.lists(children, max_size=3).map(
                lambda items: WolList(tuple(items))),
            st.lists(children, max_size=3).map(
                lambda items: WolSet(frozenset(items))),
        ),
        max_leaves=8)


# ----------------------------------------------------------------------
# Types (ground, bounded depth)
# ----------------------------------------------------------------------

base_types = st.sampled_from([INT, STR, BOOL])


def types(max_depth: int = 3):
    return st.recursive(
        base_types,
        lambda children: st.one_of(
            st.lists(st.tuples(label_names, children), min_size=1,
                     max_size=3,
                     unique_by=lambda item: item[0]).map(
                         lambda fields: record(**dict(fields))),
            st.lists(st.tuples(label_names, children), min_size=1,
                     max_size=3,
                     unique_by=lambda item: item[0]).map(
                         lambda choices: variant(**dict(choices))),
            children.map(set_of),
        ),
        max_leaves=6)


# ----------------------------------------------------------------------
# Terms and clauses
# ----------------------------------------------------------------------

constants = st.one_of(
    st.integers(min_value=-99, max_value=99).map(Const),
    st.text(_LOWER, max_size=6).map(Const),
    st.booleans().map(Const),
)


def terms(max_depth: int = 3):
    return st.recursive(
        st.one_of(var_names.map(Var), constants),
        lambda children: st.one_of(
            st.tuples(children, attr_names).map(
                lambda pair: Proj(pair[0], pair[1])),
            st.tuples(label_names, children).map(
                lambda pair: VariantTerm(pair[0], pair[1])),
            st.lists(st.tuples(label_names, children), min_size=1,
                     max_size=3,
                     unique_by=lambda item: item[0]).map(
                         lambda fields: RecordTerm(tuple(fields))),
            st.tuples(class_names,
                      st.lists(children, min_size=1, max_size=3)).map(
                          lambda pair: SkolemTerm(
                              pair[0],
                              tuple((None, arg) for arg in pair[1]))),
        ),
        max_leaves=6)


def atoms():
    term = terms()
    return st.one_of(
        st.tuples(term, class_names).map(
            lambda pair: MemberAtom(pair[0], pair[1])),
        st.tuples(term, term).map(lambda pair: EqAtom(*pair)),
        st.tuples(term, term).map(lambda pair: NeqAtom(*pair)),
        st.tuples(term, term).map(lambda pair: LtAtom(*pair)),
        st.tuples(term, term).map(lambda pair: LeqAtom(*pair)),
        st.tuples(term, term).map(lambda pair: InAtom(*pair)),
    )


def clauses():
    return st.tuples(
        st.lists(atoms(), min_size=1, max_size=4),
        st.lists(atoms(), max_size=4),
    ).map(lambda pair: Clause(tuple(pair[0]), tuple(pair[1])))
