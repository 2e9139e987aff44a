"""Program set algebra against a reference fold over sorted key tuples.

Generated programs run their ``query`` statements over a generated
instance and then a generated DAG of ``union`` / ``intersect`` /
``difference`` / ``limit`` / ``project`` statements.  The reference
below keys every row itself (``canonical_json`` of the row), keeps each
statement as a sorted tuple of keys and folds the algebra over those
tuples: union sorts the merged set, intersect and difference keep a
subsequence of their first input, limit keeps a prefix, project
re-keys the narrowed rows and sorts them.  The interpreter must agree
on the response bytes, on every statement's row count, on each result
set's equality and on the order of its ``rows``.  The values include
numbers whose text is a prefix of another's (``12`` / ``123``, ``1.5``
/ ``1.5e+20``), where sorting values instead of keys changes the order.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.json_io import canonical_json
from repro.model import (FLOAT, INT, STR, InstanceBuilder, Oid, Record,
                         Schema, record)
from repro.program import ResultSet, compile_program, run_compiled
from repro.program.ast import (DifferenceOp, IntersectOp, LimitOp,
                               ProjectOp, QueryOp, QueryProgram, Statement,
                               UnionOp)

SCHEMA = Schema.of("Rows", Row=record(n=INT, s=STR, f=FLOAT))
FIELDS = {"N": "n", "S": "s", "F": "f"}
INTS = (0, 1, 12, 123, -1, 1234)
FLOATS = (1.5, 1.5e20, 0.25, -2.0, 1e-07)
STRINGS = ("", "a", "ab", "é", '"', "a b")

objects = st.lists(st.tuples(st.sampled_from(INTS),
                             st.sampled_from(STRINGS),
                             st.sampled_from(FLOATS)), max_size=10)
#: ``None`` or an upper bound on ``N``.
filters = st.one_of(st.none(), st.sampled_from(INTS))


@st.composite
def programs(draw):
    """``(objects, statements, bounds)``: statements as (name, op,
    columns), and each query statement's bound on ``N`` (or None)."""
    rows = draw(objects)
    statements, bounds = [], {}
    for index in range(draw(st.integers(1, 3))):
        columns = tuple(draw(st.permutations(tuple(FIELDS)))[
            :draw(st.integers(1, 3))])
        bound = draw(filters)
        body = "X in Row, " + ", ".join(
            f"{name} = X.{field}" for name, field in FIELDS.items())
        if bound is not None:
            body += f", N < {bound}"
        bounds[f"q{index}"] = bound
        statements.append((f"q{index}", QueryOp(body, columns), columns))
    for index in range(draw(st.integers(1, 6))):
        name, _op, columns = draw(st.sampled_from(statements))
        same = [earlier for earlier, _op, shape in statements
                if set(shape) == set(columns)]
        kind = draw(st.sampled_from(
            ("union", "intersect", "difference", "limit", "project")))
        if kind == "union":
            op = UnionOp(tuple(draw(st.lists(st.sampled_from(same),
                                             min_size=2, max_size=3))))
        elif kind == "intersect":
            op = IntersectOp(tuple(draw(st.lists(st.sampled_from(same),
                                                 min_size=2, max_size=3))))
        elif kind == "difference":
            op = DifferenceOp(name, draw(st.sampled_from(same)))
        elif kind == "limit":
            op = LimitOp(name, draw(st.integers(0, 12)))
        else:
            columns = tuple(draw(st.permutations(columns))[
                :draw(st.integers(1, len(columns)))])
            op = ProjectOp(name, columns)
        statements.append((f"a{index}", op, columns))
    return rows, statements, bounds


def instance_of(rows):
    builder = InstanceBuilder(SCHEMA)
    for n, s, f in rows:
        builder.put(Oid.fresh("Row"), Record.of(n=n, s=s, f=f))
    return builder.freeze()


def reference_fold(rows, statements, bounds):
    """Each statement's rows as a sorted tuple of canonical keys."""
    sets = {}
    for name, op, columns in statements:
        if isinstance(op, QueryOp):
            bound = bounds[name]
            keys = {canonical_json(dict(zip(("N", "S", "F"), row)))
                    for row in rows if bound is None or row[0] < bound}
            keys = {canonical_json({column: json.loads(key)[column]
                                    for column in columns})
                    for key in keys}
            sets[name] = tuple(sorted(keys))
        elif isinstance(op, UnionOp):
            sets[name] = tuple(sorted(set().union(
                *(sets[source] for source in op.sources))))
        elif isinstance(op, IntersectOp):
            first, *others = (sets[source] for source in op.sources)
            sets[name] = tuple(key for key in first
                               if all(key in other for other in others))
        elif isinstance(op, DifferenceOp):
            sets[name] = tuple(key for key in sets[op.left]
                               if key not in sets[op.right])
        elif isinstance(op, LimitOp):
            sets[name] = sets[op.source][:op.count]
        else:
            sets[name] = tuple(sorted({
                canonical_json({column: json.loads(key)[column]
                                for column in op.columns})
                for key in sets[op.source]}))
    return sets


@settings(max_examples=150, deadline=None)
@given(programs())
def test_program_algebra_matches_a_fold_over_sorted_keys(case):
    rows, statements, bounds = case
    program = QueryProgram(tuple(Statement(name, op)
                                 for name, op, _columns in statements))
    instance = instance_of(rows)
    compiled = compile_program(program, instance)
    outcome = run_compiled(compiled, instance)
    expected = reference_fold(rows, statements, bounds)

    last = statements[-1][0]
    assert outcome.to_json_bytes() == canonical_json({
        "result": last,
        "statements": [{"name": name, "op": op.op,
                        "rows": len(expected[name])}
                       for name, op, _columns in statements],
        "columns": list(compiled.statements[-1].columns),
        "rows": [json.loads(key) for key in expected[last]],
    }).encode("utf-8")
    counts = {trace.name: trace.rows for trace in outcome.traces}
    assert counts == {name: len(keys) for name, keys in expected.items()}
    for statement in compiled.statements:
        name, columns = statement.statement.name, statement.columns
        result, keys = outcome.sets[name], expected[name]
        decoded = [json.loads(key) for key in keys]
        assert len(result) == len(keys)
        assert result == ResultSet(columns, decoded)
        assert [canonical_json(row) for row in result.rows] == list(keys)
        assert [list(row) for row in result.rows] == [
            [column for column in columns if column in row]
            for row in decoded]
        assert result.row_keys == keys
