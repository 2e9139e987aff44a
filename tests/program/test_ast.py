"""AST round-trips: text DSL ⇄ canonical JSON AST ⇄ text.

The canonical JSON AST is the wire format; the text DSL is a
serialisation of it.  These tests pin the round-trip contract both on
hand-written programs and on hypothesis-generated ones, plus the
strictness of :meth:`QueryProgram.from_json` (it must reject anything
it would not itself emit).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.program import (PROGRAM_VERSION, DifferenceOp, IntersectOp,
                           LimitOp, ProgramParseError, ProjectOp, QueryOp,
                           QueryProgram, Statement, UnionOp, format_program,
                           format_statement, parse_program_text)

CANONICAL_TEXT = """program capitals;

caps = query { N | X in CityE, X.is_capital = true, N = X.name };
alln = query { N | X in CityE, N = X.name };
rest = difference alln, caps;
both = union caps, rest;
pair = intersect alln, both;
name = project pair -> N;
top = limit name 3;
"""


class TestTextRoundTrip:
    def test_parse_format_is_identity_on_canonical_text(self):
        program = parse_program_text(CANONICAL_TEXT)
        assert format_program(program) == CANONICAL_TEXT

    def test_format_parse_is_identity_on_ast(self):
        program = parse_program_text(CANONICAL_TEXT)
        assert parse_program_text(format_program(program)) == program

    def test_comments_and_whitespace_are_immaterial(self):
        noisy = """
        -- a comment
        program capitals;   # another comment
        caps = query { N | X in CityE, X.is_capital = true, N = X.name };
          alln=query { N | X in CityE, N = X.name }   ;
        rest = difference   alln ,caps;
        both = union caps, rest;
        pair = intersect alln, both;
        name = project pair ->N;
        top = limit name   3;
        """
        assert parse_program_text(noisy) \
            == parse_program_text(CANONICAL_TEXT)

    def test_statement_named_program_is_not_a_header(self):
        parsed = parse_program_text("program = query { X in CityE };")
        assert parsed.name is None
        assert [s.name for s in parsed.statements] == ["program"]

    def test_star_projection_means_all_variables(self):
        parsed = parse_program_text(
            "a = query { * | X in CityE, N = X.name };")
        assert parsed.statements[0].op == QueryOp(
            body="X in CityE, N = X.name", project=())

    def test_nested_braces_scan_to_balance(self):
        parsed = parse_program_text(
            "a = query { X in CityE, S = {1, 2} };")
        assert parsed.statements[0].op.body == "X in CityE, S = {1, 2}"

    @pytest.mark.parametrize("text", [
        "x = ;",                          # missing operator
        "x = query { unterminated ;",     # unbalanced brace
        "x = frobnicate a, b;",           # unknown operator
        "x = difference a;",              # wrong arity
        "x = difference a, b, c;",
        "x = project a -> ;",             # empty projection
        "x = limit a;",                   # missing count
        "x = query { a | b | c };" * 0 + "x = union;",  # empty inputs
        "= query { X in CityE };",        # missing name
        "x = query { X in CityE }",       # missing terminator
    ])
    def test_malformed_text_raises_parse_error(self, text):
        with pytest.raises(ProgramParseError):
            parse_program_text(text)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ProgramParseError, match="line 3"):
            parse_program_text(
                "a = query { X in CityE };\n\nb = nonsense a;\n")


class TestJsonRoundTrip:
    def test_to_json_from_json_is_identity(self):
        program = parse_program_text(CANONICAL_TEXT)
        assert QueryProgram.from_json(program.to_json()) == program

    def test_json_survives_serialisation(self):
        program = parse_program_text(CANONICAL_TEXT)
        wire = json.dumps(program.to_json(), sort_keys=True)
        assert QueryProgram.from_json(json.loads(wire)) == program

    def test_canonical_shape(self):
        program = parse_program_text(
            "caps = query { N | X in CityE, N = X.name };\n"
            "top = limit caps 2;")
        assert program.to_json() == {
            "version": PROGRAM_VERSION,
            "statements": [
                {"name": "caps", "op": "query",
                 "body": "X in CityE, N = X.name", "project": ["N"]},
                {"name": "top", "op": "limit", "input": "caps",
                 "count": 2},
            ]}

    @pytest.mark.parametrize("document", [
        "not an object",
        {"version": PROGRAM_VERSION},                      # no statements
        {"version": 99, "statements": []},                 # bad version
        {"statements": []},                                # no version
        {"version": PROGRAM_VERSION, "statements": {}},    # wrong type
        {"version": PROGRAM_VERSION, "statements": [],
         "extra": 1},                                      # unknown field
        {"version": PROGRAM_VERSION, "name": 7,
         "statements": []},                                # bad name type
        {"version": PROGRAM_VERSION, "statements": ["x"]},
        {"version": PROGRAM_VERSION, "statements": [
            {"name": "a", "op": "frobnicate"}]},           # unknown op
        {"version": PROGRAM_VERSION, "statements": [
            {"name": "a", "op": "query"}]},                # missing body
        {"version": PROGRAM_VERSION, "statements": [
            {"name": "a", "op": "query", "body": "X in C",
             "count": 3}]},                                # field of other op
        {"version": PROGRAM_VERSION, "statements": [
            {"name": "a", "op": "limit", "input": "b",
             "count": True}]},                             # bool as int
        {"version": PROGRAM_VERSION, "statements": [
            {"name": "a", "op": "difference",
             "inputs": ["b"]}]},                           # wrong arity
        {"version": PROGRAM_VERSION, "statements": [
            {"name": "a", "op": "union", "inputs": "b"}]},
    ])
    def test_from_json_rejects_drift(self, document):
        with pytest.raises(ProgramParseError):
            QueryProgram.from_json(document)


# ----------------------------------------------------------------------
# Property: random programs round-trip through both forms
# ----------------------------------------------------------------------

_names = st.sampled_from(
    ["a", "b", "c", "caps", "alln", "rest", "top", "x_1", "_tmp"])
_bodies = st.sampled_from([
    "X in CityE, N = X.name",
    "X in CityE, X.is_capital = true, N = X.name",
    "C in CountryE, N = C.name, L = C.language",
    "X in CityE, C = X.country, N = C.name",
])
_ops = st.one_of(
    st.tuples(_bodies,
              st.lists(st.sampled_from(["N", "X", "C", "L"]),
                       max_size=2, unique=True)).map(
        lambda pair: QueryOp(body=pair[0], project=tuple(pair[1]))),
    st.lists(_names, min_size=1, max_size=3).map(
        lambda names: UnionOp(sources=tuple(names))),
    st.lists(_names, min_size=1, max_size=3).map(
        lambda names: IntersectOp(sources=tuple(names))),
    st.tuples(_names, _names).map(
        lambda pair: DifferenceOp(left=pair[0], right=pair[1])),
    st.tuples(_names, st.lists(st.sampled_from(["N", "X", "C"]),
                               min_size=1, max_size=2, unique=True)).map(
        lambda pair: ProjectOp(source=pair[0],
                               columns=tuple(pair[1]))),
    st.tuples(_names, st.integers(min_value=-3, max_value=40)).map(
        lambda pair: LimitOp(source=pair[0], count=pair[1])),
)
_programs = st.builds(
    lambda name, pairs: QueryProgram(
        statements=tuple(Statement(name=n, op=op) for n, op in pairs),
        name=name),
    st.one_of(st.none(), _names),
    st.lists(st.tuples(_names, _ops), max_size=6))


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_programs)
    def test_text_and_json_round_trips(self, program):
        """parse(format(p)) == p and from_json(to_json(p)) == p.

        Holds for *every* structurally well-formed program — including
        ones static validation would reject (forward references, bad
        arity): serialisation is independent of validity.
        """
        assert parse_program_text(format_program(program)) == program
        assert QueryProgram.from_json(program.to_json()) == program

    @settings(max_examples=50, deadline=None)
    @given(_programs)
    def test_format_is_canonical(self, program):
        """Formatting is a fixed point: format(parse(format(p))) is
        format(p), and each statement renders on one line."""
        rendered = format_program(program)
        assert format_program(parse_program_text(rendered)) == rendered
        for statement in program.statements:
            assert format_statement(statement).endswith(";")
            assert "\n" not in format_statement(statement)
