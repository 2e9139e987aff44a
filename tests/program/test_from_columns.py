"""``ResultSet.from_columns`` keys a column batch exactly as
``from_rows`` keys its rows.

``from_columns`` encodes each distinct value of a column once and
splices every row's key from its columns' fragments; the reference
encodes every row as a dict and renders it whole.  For generated
batches of WOL values the two must agree on the keys, on the rows'
canonical JSON and on each row's column order — strings that JSON must
escape, floats including ``-0.0`` and NaN, records, variants, sets,
lists, keyed and anonymous oids, and columns mixing values that compare
equal but encode differently (``1`` / ``True`` / ``1.0``, ``0.0`` /
``-0.0``, ``WolSet.of(1)`` / ``WolSet.of(True)``).  A string's fragment
is its ``canonical_json`` text for any code point, lone surrogates
included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.json_io import (JsonIoError, canonical_json, identity_encoder,
                              keyed_oid_encoder, value_to_json)
from repro.model.values import (UNIT_VALUE, Oid, Record, Variant, WolList,
                                WolSet)
from repro.program import ResultSet, interp

from tests.properties.strategies import values as wol_values
from tests.properties.strategies import var_names

#: Pairs that compare (and hash) equal but encode differently.
LOOKALIKES = (
    1, True, 1.0, 0, False, 0.0, -0.0,
    WolSet.of(1), WolSet.of(True), WolSet.of(1.0),
    WolList.of(0), WolList.of(False), WolList.of(-0.0),
    Record.of(a=1), Record.of(a=True), Variant("v", 0.0), Variant("v", -0.0),
    Oid.keyed("K", 1), Oid.keyed("K", True), Oid.keyed("K", 1.0),
)
assert LOOKALIKES[0] == LOOKALIKES[1] == LOOKALIKES[2]
assert hash(WolSet.of(1)) == hash(WolSet.of(True))

#: Strings JSON must escape, non-ASCII text and template braces.
AWKWARD_STRINGS = ('"', "\\", "\x00", "\n\t", "\x1f", "é", " ",
                   "日本", "\U0001f600", "{", "}", "{}", "{0}", "%s", "")

ANONYMOUS = tuple(Oid.fresh("A") for _ in range(3))
#: Labels for two of the three anonymous oids: the third encodes by
#: its serial.
LABELLED = identity_encoder({ANONYMOUS[0]: "A#0", ANONYMOUS[1]: "A#1"}.get)

scalars = st.one_of(
    st.sampled_from(AWKWARD_STRINGS),
    st.text(max_size=6),
    st.integers(),
    st.floats(),
    st.sampled_from((-0.0, 0.0, float("nan"), float("inf"))),
    st.booleans(),
    st.just(UNIT_VALUE),
)

keyed_cells = st.one_of(
    scalars,
    st.sampled_from(LOOKALIKES),
    wol_values(),
    st.builds(Oid.keyed, st.sampled_from(("K", "L")), wol_values()),
    st.builds(lambda value: WolSet.of(value, "x"), scalars),
    st.builds(lambda value: Record.of(a=value, b=UNIT_VALUE), scalars),
    st.builds(lambda value: Variant("v", WolList.of(value)), scalars),
)
anonymous_cells = st.one_of(keyed_cells, st.sampled_from(ANONYMOUS))

column_names = st.one_of(var_names, st.text(max_size=3))


@st.composite
def batches(draw, cells):
    """``(columns, batch, count)``: a few columns, each drawn from a
    small pool of values so that rows repeat; some output columns are
    missing from the batch, and a hidden column rides along."""
    names = draw(st.lists(column_names, unique=True, max_size=4))
    count = draw(st.integers(min_value=0, max_value=12))
    batch = {}
    for name in names:
        pool = draw(st.lists(cells, min_size=1, max_size=4))
        batch[name] = draw(st.lists(st.sampled_from(pool), min_size=count,
                                    max_size=count))
    missing = draw(st.lists(column_names.filter(lambda n: n not in batch),
                            unique=True, max_size=1))
    columns = tuple(draw(st.permutations(names + missing)))
    batch["\0row\0hidden"] = list(range(count))
    return columns, batch, count


def reference(columns, batch, count, encoder):
    return ResultSet.from_rows(columns, (
        {name: value_to_json(batch[name][row], encoder)
         for name in columns if name in batch}
        for row in range(count)))


def assert_same(actual, expected):
    assert actual.columns == expected.columns
    assert actual.keys() == expected.keys()
    assert [canonical_json(row) for row in actual.rows] \
        == [canonical_json(row) for row in expected.rows]
    assert [list(row) for row in actual.rows] \
        == [list(row) for row in expected.rows]


@settings(max_examples=200, deadline=None)
@given(batches(keyed_cells))
def test_keyed_batches_key_like_rows(case):
    columns, batch, count = case
    assert_same(
        ResultSet.from_columns(columns, batch, count, keyed_oid_encoder),
        reference(columns, batch, count, keyed_oid_encoder))


@settings(max_examples=200, deadline=None)
@given(batches(anonymous_cells))
def test_anonymous_oids_key_like_rows(case):
    columns, batch, count = case
    assert_same(ResultSet.from_columns(columns, batch, count, LABELLED),
                reference(columns, batch, count, LABELLED))


def test_lookalikes_keep_their_own_encodings():
    """Every lookalike in one column: none borrows another's text."""
    column = list(LOOKALIKES) * 2
    result = ResultSet.from_columns(("V",), {"V": column}, len(column),
                                    keyed_oid_encoder)
    assert_same(result, reference(("V",), {"V": column}, len(column),
                                  keyed_oid_encoder))
    assert len(result.rows) == len(LOOKALIKES)


#: Any code point, lone surrogates included.
any_text = st.text(alphabet=st.one_of(
    st.characters(exclude_categories=()),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                  exclude_categories=())), max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(any_text, st.sampled_from(AWKWARD_STRINGS)),
                min_size=1, max_size=8),
       st.sampled_from(((), (1,), (1.0, True))))
def test_string_fragments_are_their_canonical_json(strings, others):
    """An all-string column and a string in a mixed column render as
    ``canonical_json`` renders the string."""
    for column in (strings, strings + list(others)):
        assert interp._fragments(column, keyed_oid_encoder) \
            == [canonical_json(value) for value in column]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=8),
       st.sampled_from(((), (True,), (False, 1.0))))
def test_int_fragments_are_their_canonical_json(ints, others):
    """An all-int column renders each int as ``canonical_json`` does;
    a boolean or a float among them keeps its own text."""
    for column in (ints, ints + list(others)):
        assert interp._fragments(column, keyed_oid_encoder) \
            == [canonical_json(value) for value in column]


def test_an_anonymous_oid_is_refused_as_a_row_would_be():
    batch = {"X": [Oid.keyed("K", 1), ANONYMOUS[0]]}
    with pytest.raises(JsonIoError, match="anonymous"):
        reference(("X",), batch, 2, keyed_oid_encoder)
    with pytest.raises(JsonIoError, match="anonymous"):
        ResultSet.from_columns(("X",), batch, 2, keyed_oid_encoder)


#: Columns whose values' texts are prefixes of one another, with the
#: canonical key order: ``"3" < "}"`` and ``"e" < "}"`` put the longer
#: number first in the last sorted column, ``", " < "3"`` and
#: ``", " < "e"`` put it second in a middle one.
PREFIX_CASES = [
    ({"N": [12, 123]}, ['{"N": 123}', '{"N": 12}']),
    ({"N": [1.5, 1.5e20]}, ['{"N": 1.5e+20}', '{"N": 1.5}']),
    ({"A": ["x", "x"], "N": [123, 12]},
     ['{"A": "x", "N": 123}', '{"A": "x", "N": 12}']),
    ({"N": [123, 12], "Z": [True, True]},
     ['{"N": 12, "Z": true}', '{"N": 123, "Z": true}']),
    ({"A": [0, 0], "N": [1.5e20, 1.5], "Z": ["z", "z"]},
     ['{"A": 0, "N": 1.5, "Z": "z"}', '{"A": 0, "N": 1.5e+20, "Z": "z"}']),
]


@pytest.mark.parametrize("batch, ordered", PREFIX_CASES)
def test_prefix_numbers_order_by_their_keys(batch, ordered):
    """Keys sort as whole strings: sorting rows by their values, or
    by their fragments, puts the shorter number first everywhere."""
    columns = tuple(reversed(sorted(batch)))
    count = len(next(iter(batch.values())))
    result = ResultSet.from_columns(columns, batch, count,
                                    keyed_oid_encoder)
    assert list(result.row_keys) == ordered
    assert result.row_keys == reference(columns, batch, count,
                                        keyed_oid_encoder).row_keys
