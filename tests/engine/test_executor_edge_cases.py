"""Edge-case and failure-injection tests for the execution layer."""

import pytest

from repro.adapters.acedb import AceDatabase
from repro.engine import ExecutionError, Executor
from repro.lang import parse_program
from repro.model import (INT, STR, ClassType, InstanceBuilder, Record,
                         Schema, WolList, WolSet, list_of, record, set_of)
from repro.oracle import Matcher
from repro.workloads import genome


def source():
    schema = Schema.of("Src", Item=record(name=STR, rank=INT))
    builder = InstanceBuilder(schema)
    builder.new("Item", Record.of(name="a", rank=1))
    builder.new("Item", Record.of(name="b", rank=2))
    builder.new("Item", Record.of(name="c", rank=2))
    return builder.freeze()


TARGET = Schema.of("Tgt", Out=record(name=STR, rank=INT))


def program(text, classes=("Item", "Out")):
    return parse_program(text, classes=list(classes))


class TestDefaults:
    def test_default_fills_missing_attribute(self, execute_both):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N"
            " <= I in Item, N = I.name;")
        target, _ = execute_both(prog, source(), TARGET,
                                 defaults={("Out", "rank"): 0})
        assert all(target.attribute(o, "rank") == 0
                   for o in target.objects_of("Out"))

    def test_default_does_not_override_derived(self, execute_both):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank;")
        target, _ = execute_both(prog, source(), TARGET,
                                 defaults={("Out", "rank"): 99})
        ranks = sorted(target.attribute(o, "rank")
                       for o in target.objects_of("Out"))
        assert ranks == [1, 2, 2]

    def test_missing_without_default_still_errors(self, execute_both):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N"
            " <= I in Item, N = I.name;")
        with pytest.raises(ExecutionError):
            execute_both(prog, source(), TARGET,
                         defaults={("Out", "other"): 0})


class TestDuplicateFirings:
    def test_duplicate_rows_produce_one_object(self, execute_both):
        # Ranks 2 appears twice: keyed by rank, both rows collapse.
        target_schema = Schema.of("Tgt", Out=record(rank=INT))
        prog = parse_program(
            "T: X in Out, X = Mk_Out(R), X.rank = R"
            " <= I in Item, R = I.rank;",
            classes=["Item", "Out"])
        target, stats = execute_both(prog, source(), target_schema)
        assert target.class_sizes() == {"Out": 2}
        assert stats.bindings_found == 3

    def test_rerun_on_same_executor_is_idempotent(self):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank;")
        executor = Executor(source(), TARGET)
        executor.run_program(prog)
        executor.run_program(prog)  # same assertions, no conflicts
        target = executor.freeze()
        assert target.class_sizes() == {"Out": 3}


class TestListsAndSets:
    def test_list_attribute_membership(self):
        schema = Schema.of("Src", Doc=record(tags=list_of(STR)))
        builder = InstanceBuilder(schema)
        builder.new("Doc", Record.of(tags=WolList.of("x", "y", "x")))
        instance = builder.freeze()
        matcher = Matcher(instance)
        clause = parse_program(
            "T: A = A <= D in Doc, A in D.tags;",
            classes=["Doc"]).clauses[0]
        values = [s["A"] for s in matcher.solutions(clause.body)]
        # Lists allow duplicates: both x occurrences enumerate.
        assert sorted(values) == ["x", "x", "y"]

    def test_set_deduplicates(self):
        schema = Schema.of("Src", Doc=record(tags=set_of(STR)))
        builder = InstanceBuilder(schema)
        builder.new("Doc", Record.of(tags=WolSet.of("x", "y")))
        matcher = Matcher(builder.freeze())
        clause = parse_program(
            "T: A = A <= D in Doc, A in D.tags;",
            classes=["Doc"]).clauses[0]
        assert len(list(matcher.solutions(clause.body))) == 2


class TestIndexes:
    def test_index_and_scan_agree(self):
        instance = source()
        clause = program(
            "T: X = X <= I in Item, J in Item, N = I.name,"
            " M = J.name, N = M;").clauses[0]
        indexed = {(b["I"], b["J"])
                   for b in Matcher(instance).solutions(clause.body)}
        items = instance.objects_of("Item")
        scanned = {(i, j) for i in items for j in items
                   if instance.attribute(i, "name")
                   == instance.attribute(j, "name")}
        assert indexed == scanned and len(scanned) == 3

    def test_index_covers_deep_paths(self):
        schema = Schema.of(
            "Src",
            Country=record(name=STR),
            City=record(name=STR, country=ClassType("Country")))
        builder = InstanceBuilder(schema)
        fr = builder.new("Country", Record.of(name="FR"))
        de = builder.new("Country", Record.of(name="DE"))
        builder.new("City", Record.of(name="Paris", country=fr))
        builder.new("City", Record.of(name="Berlin", country=de))
        matcher = Matcher(builder.freeze())
        clause = parse_program(
            'T: X = X <= C in City, V = C.country, N = V.name,'
            ' N = "FR";',
            classes=["City", "Country"]).clauses[0]
        solutions = list(matcher.solutions(clause.body))
        assert len(solutions) == 1

    def test_prefilled_binding_uses_index(self):
        matcher = Matcher(source())
        clause = program(
            "T: X = X <= I in Item, N = I.name;").clauses[0]
        solutions = list(matcher.solutions(clause.body, {"N": "a"}))
        assert len(solutions) == 1


class TestFreezeEdgeCases:
    def test_empty_program_empty_target(self):
        executor = Executor(source(), TARGET)
        target = executor.freeze()
        assert target.size() == 0

    def test_extra_attribute_rejected(self, execute_both):
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N, X.rank = R,"
            " X.bogus = N <= I in Item, N = I.name, R = I.rank;")
        with pytest.raises(ExecutionError):
            execute_both(prog, source(), TARGET)

    def test_identity_class_mismatch(self, execute_both):
        prog = program(
            "T: X in Out, X = Mk_Item(N), X.name = N, X.rank = R"
            " <= I in Item, N = I.name, R = I.rank;")
        with pytest.raises(ExecutionError):
            execute_both(prog, source(), TARGET)


class TestRunAgainstFilledStore:
    """A clause meeting attributes an earlier clause left in the
    pending store must see them — the oracle's conflict, text and all,
    or the oracle's target (regression: the batched head once believed
    a class it had not filled itself was still empty and overwrote its
    attributes without a conflict)."""

    FIRST = ("T1: X in Out, X = Mk_Out(N), X.name = N, X.rank = R"
             " <= I in Item, N = I.name, R = I.rank;")

    def test_conflicting_clause_raises_the_oracle_error(self,
                                                        execute_both):
        follow_up = ('T3: X in Out, X = Mk_Out(N), X.name = "zzz"'
                     ' <= I in Item, N = I.name;')
        with pytest.raises(ExecutionError) as info:
            execute_both(program(self.FIRST + follow_up), source(), TARGET)
        message = str(info.value)
        assert message.startswith('conflict on &Out["a"].name')
        assert message.endswith("(the program is not functional)")

    def test_agreeing_clause_yields_the_oracle_target(self, execute_both):
        follow_up = ("T2: X in Out, X = Mk_Out(N), X.rank = R"
                     " <= I in Item, N = I.name, R = I.rank;")
        target, _ = execute_both(program(self.FIRST + follow_up),
                                 source(), TARGET)
        assert target.class_sizes() == {"Out": 3}


class TestDanglingTargetReference:
    def test_never_created_peer_is_ill_formed_on_every_leg(self,
                                                           execute_both):
        """``X.peer = Mk_Peer(N)`` with no clause creating ``Peer``:
        batch, oracle and session start all wrap the instance error
        (regression: the session start let a bare ``InstanceError``
        escape, so ``begin_incremental`` and ``transform`` disagreed)."""
        target_schema = Schema.of(
            "Tgt", Out=record(name=STR, peer=ClassType("Peer")),
            Peer=record(name=STR))
        prog = program(
            "T: X in Out, X = Mk_Out(N), X.name = N, X.peer = Mk_Peer(N)"
            " <= I in Item, N = I.name;", classes=("Item", "Out", "Peer"))
        with pytest.raises(ExecutionError) as info:
            execute_both(prog, source(), target_schema)
        assert str(info.value).startswith(
            "transformation produced an ill-formed instance:")


class TestEmptyExtents:
    def test_whole_program_over_empty_classes(self, execute_both,
                                              warehouses):
        """Every extent empty: joins, set-valued heads and all of the
        genome program produce the oracle's (empty) target."""
        morphase = warehouses["genome"].morphase
        empty = morphase._merge_sources(genome.source_instance(
            AceDatabase("ACe22", genome.ACE_CLASSES)))
        target, stats = execute_both(morphase.compile().program(), empty,
                                     morphase.target_plain)
        assert target.size() == 0 and stats.bindings_found == 0
