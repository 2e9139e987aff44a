"""Program execution semantics, pinned differentially.

The oracle for every ``query`` statement is the batch
:class:`repro.query.Query` API run through the *dynamic* matcher; the
oracle for set algebra is plain Python set algebra over the oracle
rows.  The interpreter must agree byte-for-byte with the oracle (the
canonical row order makes that equality exact, not just set-equal).
"""

import json

import pytest

from repro.io.json_io import dump_oid_encoder, value_to_json
from repro.program import (ResultSet, compile_program, parse_program_text,
                           run_compiled, run_program)
from repro.query.query import Query
from repro.workloads import cities, genome

PROGRAM_TEXT = """
caps = query { N | X in CityE, X.is_capital = true, N = X.name };
alln = query { N | X in CityE, N = X.name };
rest = difference alln, caps;
both = union caps, rest;
some = intersect alln, both;
top = limit some 3;
"""


@pytest.fixture(scope="module")
def euro():
    return cities.sample_euro_instance()


def oracle_rows(instance, text):
    """Canonical row set via the *dynamic* batch Query API."""
    encoder = dump_oid_encoder(instance)
    query = Query.parse(text, classes=instance.schema.class_names())
    keyed = {}
    for row in query.run(instance):
        encoded = {name: value_to_json(value, encoder)
                   for name, value in row.items()}
        keyed.setdefault(json.dumps(encoded, sort_keys=True), encoded)
    return [keyed[key] for key in sorted(keyed)]


class TestQueryStatements:
    def test_single_query_matches_batch_oracle(self, euro):
        result = run_program(
            parse_program_text(
                "caps = query { N | X in CityE, X.is_capital = true, "
                "N = X.name };"),
            euro)
        assert list(result.result.rows) == oracle_rows(
            euro, "N | X in CityE, X.is_capital = true, N = X.name")

    def test_join_query_matches_batch_oracle(self, euro):
        body = ("N, L | X in CityE, C = X.country, N = X.name, "
                "L = C.language")
        result = run_program(
            parse_program_text(f"j = query {{ {body} }};"), euro)
        assert result.result.columns == ("N", "L")
        assert list(result.result.rows) == oracle_rows(euro, body)

    def test_program_query_statements_match_naive_oracle(self, euro):
        outcome = run_program(parse_program_text(PROGRAM_TEXT), euro)
        assert list(outcome.sets["caps"].rows) == oracle_rows(
            euro, "N | X in CityE, X.is_capital = true, N = X.name")
        assert list(outcome.sets["alln"].rows) == oracle_rows(
            euro, "N | X in CityE, N = X.name")

    def test_shards_parameter_is_gone(self, euro):
        """``shards=N`` ran N sequential shards in one process — more
        work for the same rows.  (The shard plans themselves went with
        the parallel engine; there is nothing left to partition.)"""
        program = parse_program_text("a = query { X in CityE };")
        compiled = compile_program(program, euro)
        with pytest.raises(TypeError, match="shards"):
            run_program(program, euro, shards=2)
        with pytest.raises(TypeError, match="shards"):
            run_compiled(compiled, euro, shards=2)
        trace, = run_compiled(compiled, euro).to_json()["statements"]
        assert "shards" not in trace

    def test_rows_are_duplicate_free_and_canonically_ordered(self, euro):
        # Projecting away the distinguishing column forces duplicates
        # at the binding level; the result set must collapse them.
        result = run_program(
            parse_program_text(
                "l = query { L | C in CountryE, L = C.language };"),
            euro)
        keys = [json.dumps(row, sort_keys=True)
                for row in result.result.rows]
        assert keys == sorted(set(keys))


class TestSetAlgebra:
    def test_algebra_matches_python_set_oracle(self, euro):
        program = parse_program_text(PROGRAM_TEXT)
        outcome = run_program(program, euro)
        caps = {json.dumps(r, sort_keys=True) for r in oracle_rows(
            euro, "N | X in CityE, X.is_capital = true, N = X.name")}
        alln = {json.dumps(r, sort_keys=True) for r in oracle_rows(
            euro, "N | X in CityE, N = X.name")}
        assert set(outcome.sets["rest"].keys()) == alln - caps
        assert set(outcome.sets["both"].keys()) == caps | (alln - caps)
        assert set(outcome.sets["some"].keys()) == alln & (caps | alln)
        assert list(outcome.sets["top"].keys()) \
            == list(outcome.sets["some"].keys())[:3]

    def test_project_drops_columns_and_duplicates(self, euro):
        outcome = run_program(parse_program_text(
            "a = query { N, L | C in CountryE, N = C.name, "
            "L = C.language };\n"
            "b = project a -> L;"), euro)
        expected = sorted({json.dumps({"L": row["L"]}, sort_keys=True)
                           for row in outcome.sets["a"].rows})
        assert list(outcome.sets["b"].keys()) == expected
        assert outcome.sets["b"].columns == ("L",)

    def test_limit_is_prefix_of_canonical_order(self, euro):
        outcome = run_program(parse_program_text(
            "a = query { N | X in CityE, N = X.name };\n"
            "b = limit a 2;"), euro)
        assert list(outcome.sets["b"].rows) \
            == list(outcome.sets["a"].rows)[:2]

    def test_limit_beyond_size_is_whole_set(self, euro):
        outcome = run_program(parse_program_text(
            "a = query { N | X in CityE, N = X.name };\n"
            "b = limit a 9999;"), euro)
        assert outcome.sets["b"].rows == outcome.sets["a"].rows


class TestCarriedKeys:
    def test_every_set_carries_the_keys_of_its_rows(self, euro):
        outcome = run_program(parse_program_text(
            PROGRAM_TEXT + "proj = project alln -> N;"), euro)
        for name, result in outcome.sets.items():
            assert result.row_keys is not None, name
            assert list(result.row_keys) == [
                json.dumps(row, sort_keys=True) for row in result.rows], name

    def test_set_built_without_keys_derives_them_on_demand(self, euro):
        """``ResultSet(columns, rows)`` is public API (``run_compiled``
        builds the empty result that way): ``keys()`` must answer from
        the rows, never with a silently empty tuple."""
        alln = run_program(parse_program_text(PROGRAM_TEXT),
                           euro).sets["alln"]
        bare = ResultSet(columns=alln.columns, rows=alln.rows)
        assert bare.row_keys is None
        assert bare.keys() == alln.keys() and len(bare.keys()) > 3
        assert ResultSet(columns=(), rows=()).keys() == ()

    def test_equality_compares_columns_and_rows_only(self, euro):
        alln = run_program(parse_program_text(PROGRAM_TEXT),
                           euro).sets["alln"]
        assert ResultSet(columns=alln.columns, rows=alln.rows) == alln
        assert ResultSet(columns=alln.columns, rows=alln.rows[:1]) != alln
        assert ResultSet(columns=("M",), rows=alln.rows) != alln


class TestCompiledPrograms:
    def test_shared_pool_is_reused_across_statements(self, euro):
        program = parse_program_text(PROGRAM_TEXT)
        compiled = compile_program(program, euro)
        assert compiled.prebuilt_indexes >= 1
        outcome = run_compiled(compiled, euro)
        assert outcome.result.rows  # executed through the shared pool

    def test_traces_expose_execution_shape(self, euro):
        program = parse_program_text(PROGRAM_TEXT)
        outcome = run_program(program, euro)
        by_name = {trace.name: trace for trace in outcome.traces}
        assert by_name["caps"].op == "query"
        assert by_name["rest"].op == "difference"
        document = outcome.to_json()
        # every query runs its plan: no always-true "planned" key
        assert {key for t in document["statements"] for key in t} \
            == {"name", "op", "rows"}
        assert document["result"] == "top"
        assert [t["name"] for t in document["statements"]] \
            == list(program.statement_names())

    def test_explain_is_stable(self, euro):
        program = parse_program_text(PROGRAM_TEXT)
        first = compile_program(program, euro).explain()
        second = compile_program(program, euro).explain()
        assert first == second
        assert "plan caps:" in first and "difference" in first
        assert "[planned]" not in first

    def test_keyed_source_instance(self):
        """Programs run over keyed instances too (genome sources)."""
        instance = genome.source_instance()
        body = "S | G in Sequence, S = G.name"
        outcome = run_program(
            parse_program_text(f"names = query {{ {body} }};\n"
                               f"top = limit names 5;"),
            instance)
        assert list(outcome.sets["names"].rows) \
            == oracle_rows(instance, body)
