"""Unit tests for the one-pass executor.

Every hand-written program goes through ``execute_both`` (conftest):
production ``execute`` *and* ``repro.oracle.naive_execute``, held to
equal targets or identical errors, so the head-semantics edge cases pin
both ends of the differential chain.
"""

import pytest

from repro.engine import ExecutionError, Executor
from repro.lang import parse_program
from repro.model import (INT, STR, ClassType, InstanceBuilder, Record, Schema,
                         WolSet, record, set_of)
from repro.obs.metrics import REGISTRY
from repro.workloads import cities


def simple_source():
    schema = Schema.of("Src", Item=record(name=STR, rank=INT))
    builder = InstanceBuilder(schema)
    builder.new("Item", Record.of(name="a", rank=1))
    builder.new("Item", Record.of(name="b", rank=2))
    return builder.freeze()


TARGET = Schema.of("Tgt", Out=record(name=STR, rank=INT))
CLASSES = ["Item", "Out", "Coll"]


def program(text):
    return parse_program(text, classes=CLASSES)


class TestBasicExecution:
    def test_copy_transformation(self, execute_both):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank;")
        target, stats = execute_both(prog, simple_source(), TARGET)
        assert target.class_sizes() == {"Out": 2}
        assert stats.objects_created == 2
        assert stats.bindings_found == 2

    def test_keyed_creation_is_idempotent(self, execute_both):
        # Two clauses deriving the same object merge.
        prog = program(
            """
            T1: X in Out, X = Mk_Out(N), X.name = N
                <= I in Item, N = I.name;
            T2: X in Out, X = Mk_Out(N), X.rank = R
                <= I in Item, N = I.name, R = I.rank;
            """)
        target, _ = execute_both(prog, simple_source(), TARGET)
        assert target.class_sizes() == {"Out": 2}
        for oid in target.objects_of("Out"):
            value = target.value_of(oid)
            assert value.has("name") and value.has("rank")

    def test_filtered_body(self, execute_both):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank, R < 2;")
        target, _ = execute_both(prog, simple_source(), TARGET)
        assert target.class_sizes() == {"Out": 1}

    def test_columnar_knob_is_gone(self):
        """One body-enumeration mode: planned batch stages.  The naive
        oracle is ``repro.oracle``, not an executor setting."""
        with pytest.raises(TypeError):
            Executor(simple_source(), TARGET, columnar=False)
        # One engine, one metrics label, published where the run ran.
        Executor(simple_source(), TARGET).run_program([])
        assert REGISTRY.value("repro_engine_runs_total",
                              {"engine": "columnar"}) == 1

    def test_run_program_always_plans(self):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank;")
        stats = Executor(simple_source(), TARGET).run_program(prog).stats
        assert stats.clauses_planned == stats.clauses_run == 1

    def test_empty_source(self, execute_both):
        schema = Schema.of("Src", Item=record(name=STR, rank=INT))
        from repro.model import empty_instance
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank;")
        target, stats = execute_both(prog, empty_instance(schema), TARGET)
        assert target.size() == 0
        assert stats.bindings_found == 0


class TestConflictsAndCompleteness:
    def test_conflicting_attribute_rejected(self, execute_both):
        prog = program(
            """
            T1: X in Out, X = Mk_Out(N), X.name = N, X.rank = 0
                <= I in Item, N = I.name;
            T2: X in Out, X = Mk_Out(N), X.rank = R
                <= I in Item, N = I.name, R = I.rank;
            """)
        with pytest.raises(ExecutionError) as excinfo:
            execute_both(prog, simple_source(), TARGET)
        assert "conflict" in str(excinfo.value)

    def test_same_value_is_not_conflict(self, execute_both):
        prog = program(
            """
            T1: X in Out, X = Mk_Out(N), X.name = N, X.rank = R
                <= I in Item, N = I.name, R = I.rank;
            T2: X in Out, X = Mk_Out(N), X.rank = R
                <= I in Item, N = I.name, R = I.rank;
            """)
        target, _ = execute_both(prog, simple_source(), TARGET)
        assert target.class_sizes() == {"Out": 2}

    def test_incomplete_object_rejected(self, execute_both):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N"
            " <= I in Item, N = I.name;")
        with pytest.raises(ExecutionError) as excinfo:
            execute_both(prog, simple_source(), TARGET)
        assert "incomplete" in str(excinfo.value)

    def test_freeze_lists_every_incomplete_object(self):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N"
            " <= I in Item, N = I.name;")
        executor = Executor(simple_source(), TARGET)
        executor.run_program(prog)
        with pytest.raises(ExecutionError) as excinfo:
            executor.freeze()
        assert str(excinfo.value) == (
            "incomplete transformation (the program does not fully "
            "describe these objects): &Out[\"a\"]: missing attributes "
            "['rank']; &Out[\"b\"]: missing attributes ['rank']")

    def test_dangling_reference_rejected(self, execute_both):
        target_schema = Schema.of(
            "Tgt", Out=record(name=STR, buddy=ClassType("Out")))
        prog = parse_program(
            "T: X in Out, X = Mk_Out(N), X.name = N,"
            ' X.buddy = Mk_Out("ghost")'
            " <= I in Item, N = I.name;",
            classes=["Item", "Out"])
        with pytest.raises(ExecutionError):
            execute_both(prog, simple_source(), target_schema)

    def test_non_source_body_class_rejected(self, execute_both):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N <= Y in Out,"
            " N = Y.name;")
        with pytest.raises(ExecutionError) as excinfo:
            execute_both(prog, simple_source(), TARGET)
        assert "normal form" in str(excinfo.value)


class TestSetAttributes:
    def test_set_insertion_accumulates(self, execute_both):
        target_schema = Schema.of(
            "Tgt", Coll=record(name=STR, members=set_of(STR)))
        prog = parse_program(
            'T: X in Coll, X = Mk_Coll("all"), X.name = "all",'
            " N in X.members <= I in Item, N = I.name;",
            classes=["Item", "Coll"])
        target, _ = execute_both(prog, simple_source(), target_schema)
        (oid,) = target.objects_of("Coll")
        assert target.attribute(oid, "members") == WolSet.of("a", "b")

    def test_empty_set_attribute_defaults(self, execute_both):
        target_schema = Schema.of(
            "Tgt", Coll=record(name=STR, members=set_of(STR)))
        prog = parse_program(
            'T: X in Coll, X = Mk_Coll(N), X.name = N'
            " <= I in Item, N = I.name;",
            classes=["Item", "Coll"])
        target, _ = execute_both(prog, simple_source(), target_schema)
        for oid in target.objects_of("Coll"):
            assert target.attribute(oid, "members") == WolSet.of()


class TestIdentityOrdering:
    def test_nested_identities(self, execute_both):
        # A city identity embedding its country identity.
        target_schema = Schema.of(
            "Tgt",
            CountryT=record(name=STR),
            CityT=record(name=STR, country=ClassType("CountryT")))
        prog = parse_program(
            """
            T1: C in CountryT, C = Mk_CountryT(CN), C.name = CN
                <= E in Item, CN = E.name;
            T2: X in CityT, C in CountryT, C = Mk_CountryT(CN),
                C.name = CN, X = Mk_CityT(name = N, country = C),
                X.name = N, X.country = C
                <= E in Item, CN = E.name, N = E.name;
            """,
            classes=["Item", "CityT", "CountryT"])
        target, _ = execute_both(prog, simple_source(), target_schema)
        assert target.class_sizes() == {"CityT": 2, "CountryT": 2}

    def test_identity_mismatch_detected(self, execute_both):
        prog = program(
            'T: X in Out, X = Mk_Out(N), X.name = N, X.rank = 1'
            ' <= I in Item, N = I.name, X = Mk_Out("fixed");')
        with pytest.raises(ExecutionError) as excinfo:
            execute_both(prog, simple_source(), TARGET)
        assert "identity mismatch" in str(excinfo.value)


class TestEndToEndCities:
    def test_normalized_program_executes(self):
        from repro.morphase import Morphase
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        result = morphase.transform([cities.sample_us_instance(),
                                     cities.sample_euro_instance()])
        assert result.target.class_sizes() == {
            "CityT": 12, "CountryT": 3, "StateT": 2}

    def test_stats_populated(self):
        from repro.morphase import Morphase
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        result = morphase.transform([cities.sample_us_instance(),
                                     cities.sample_euro_instance()])
        assert result.stats.clauses_run == 4
        assert result.stats.objects_created == 17
