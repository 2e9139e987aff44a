"""``/query`` and ``/program`` answer the benchmark's read mix byte for byte.

Every repeated body of the end-to-end read mix, two family bodies (one
that names no sequence, so its result is empty), the ``project=``
body and a projection that collapses duplicate rows go through
``GET /query``; the three read-mix programs go through
``POST /program`` as text and as canonical AST.  The expected wire
bytes are built from the reference: each body's rows come from
:meth:`repro.query.Query.run` (the dynamic matcher), JSON-encoded with
the dump's oid labels and passed through
:meth:`repro.program.ResultSet.from_rows`; program algebra folds those
result sets' keys in plain Python.  The genome is built at the tests'
default size, because the matcher runs ``join2`` as a nested loop.
"""

import json
import threading
import urllib.parse
from http.client import HTTPConnection

import pytest

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.io.json_io import canonical_json, dump_oid_encoder, value_to_json
from repro.morphase import Morphase
from repro.program import ResultSet, parse_program_text
from repro.query.query import Query
from repro.service import envelope_ok, make_server
from repro.workloads import genome

# Literal copies of the read pool, the family body and the programs of
# benchmarks/e2e/workloads.py: the ruler is frozen per change, so a
# copy cannot drift unnoticed.
READ_POOL = (
    ('N, L | S in SequenceT, S.name = "S17", N = S.name, L = S.dna_length',
     None),
    ("N, L | S in SequenceT, N = S.name, L = S.dna_length", None),
    ("C, N, Y | X in CloneT, C = X.name, S = X.seq, N = S.name, "
     "P in SeqGene, P.seq = S, G = P.gene, Y = G.symbol", None),
    ("N, Y | P in SeqGene, S = P.seq, G = P.gene, N = S.name, "
     "Y = G.symbol", None),
    ("N, L | S in SequenceT, N = S.name, L = S.dna_length, L < 20000", None),
    ("X in CloneT, N = X.name, P = X.map_position, L = X.length", "N,P"),
)
FAMILY_BODY = ('N, L, M | S in SequenceT, S.name = "{name}", N = S.name, '
               "L = S.dna_length, M = S.method")
#: ``S3`` exists at this size; ``S99999`` does not (an empty result).
FAMILY_NAMES = ("S3", "S99999")

_Q = {
    "cloned": "N | C in CloneT, S = C.seq, N = S.name",
    "genic": "N | P in SeqGene, S = P.seq, N = S.name",
    "named": "N | S in SequenceT, N = S.name",
    "short": "N | S in SequenceT, N = S.name, L = S.dna_length, L < 50000",
    "shotgun": 'N | S in SequenceT, N = S.name, M = S.method, '
               'M = "shotgun"',
}
PROGRAMS = {
    "p2": (("named", "query", _Q["named"]),
           ("top", "limit", ("named", 100))),
    "p6": (("cloned", "query", _Q["cloned"]),
           ("genic", "query", _Q["genic"]),
           ("named", "query", _Q["named"]),
           ("core", "intersect", ("cloned", "genic")),
           ("rest", "difference", ("named", "core")),
           ("all", "union", ("core", "rest"))),
    "p10": (("cloned", "query", _Q["cloned"]),
            ("genic", "query", _Q["genic"]),
            ("named", "query", _Q["named"]),
            ("short", "query", _Q["short"]),
            ("shotgun", "query", _Q["shotgun"]),
            ("core", "intersect", ("cloned", "genic")),
            ("cheap", "intersect", ("short", "shotgun")),
            ("pick", "union", ("core", "cheap")),
            ("rest", "difference", ("named", "pick")),
            ("top", "limit", ("rest", 200))),
}


def program_text(name):
    lines = [f"program {name};"]
    for target, op, args in PROGRAMS[name]:
        if op == "query":
            lines.append(f"{target} = query {{ {args} }};")
        elif op == "limit":
            lines.append(f"{target} = limit {args[0]} {args[1]};")
        else:
            lines.append(f"{target} = {op} {', '.join(args)};")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    morphase = Morphase(
        [schema_of_acedb(AceDatabase("ACe22", genome.ACE_CLASSES))],
        genome.warehouse_schema(), genome.PROGRAM_TEXT)
    store = morphase.open_store(
        str(tmp_path_factory.mktemp("read-mix") / "store"),
        [genome.source_instance(genome.generate_acedb(
            genes=40, sequences=80, clones=80, sparsity=0.9, seed=7))])
    session = morphase.serve(store)
    server = make_server(session)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield session, server.server_address[:2]
    server.shutdown()
    server.server_close()
    session.close()


def request(address, method, path, body=None):
    conn = HTTPConnection(*address)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = response.read()
        assert response.status == 200, payload
        return payload
    finally:
        conn.close()


def reference(target, text):
    """``text``'s rows by the dynamic matcher, as a canonical row set."""
    query = Query.parse(text, classes=target.schema.class_names())
    columns = tuple(query.projection or query.variables())
    encoder = dump_oid_encoder(target)
    return ResultSet.from_rows(columns, (
        {name: value_to_json(value, encoder) for name, value in row.items()}
        for row in query.run(target)))


def wire(document):
    return canonical_json(envelope_ok(document)).encode("utf-8")


#: Beyond the mix: a projection that collapses duplicate rows.
COLLAPSED = (READ_POOL[-1][0], "P")

QUERY_CASES = ([(body, project) for body, project in READ_POOL]
               + [(FAMILY_BODY.format(name=name), None)
                  for name in FAMILY_NAMES] + [COLLAPSED])


@pytest.mark.parametrize("body, project", QUERY_CASES)
def test_query_response_is_the_references(served, body, project):
    session, address = served
    path = "/query?body=" + urllib.parse.quote(body)
    if project:
        path += "&project=" + urllib.parse.quote(project)
    expected = reference(session.target,
                         f"{project} | {body}" if project else body)
    assert request(address, "GET", path) == wire(
        {"body": body, "columns": list(expected.columns),
         "count": len(expected.rows), "rows": list(expected.rows)})


def test_the_cases_hold_empty_projected_and_collapsed_results(served):
    session, _address = served
    body = READ_POOL[-1][0]
    empty = reference(session.target, FAMILY_BODY.format(name="S99999"))
    projected = reference(session.target, f"N,P | {body}")
    collapsed = reference(session.target, f"P | {body}")
    everything = reference(session.target, body)
    assert empty.rows == ()
    assert projected.columns == ("N", "P")
    assert len(projected.rows) == len(everything.rows) > 0
    assert 0 < len(collapsed.rows) < len(everything.rows)


def expected_program(target, name):
    """The program's response document, folded from reference sets."""
    sets, statements = {}, []
    for statement, op, args in PROGRAMS[name]:
        if op == "query":
            result = reference(target, args)
        elif op == "limit":
            source = sets[args[0]]
            result = ResultSet(source.columns, source.rows[:args[1]])
        else:
            first = sets[args[0]]
            keyed = dict(zip(first.keys(), first.rows))
            for other in (sets[arg] for arg in args[1:]):
                other_keys = set(other.keys())
                if op == "union":
                    keyed.update(zip(other.keys(), other.rows))
                elif op == "intersect":
                    keyed = {key: row for key, row in keyed.items()
                             if key in other_keys}
                else:
                    keyed = {key: row for key, row in keyed.items()
                             if key not in other_keys}
            result = ResultSet(first.columns,
                               tuple(keyed[key] for key in sorted(keyed)))
        sets[statement] = result
        statements.append({"name": statement, "op": op,
                           "rows": len(result.rows)})
    final = sets[PROGRAMS[name][-1][0]]
    return {"program": name, "result": PROGRAMS[name][-1][0],
            "columns": list(final.columns),
            "rows": list(final.rows), "statements": statements}


@pytest.mark.parametrize("form", ["text", "ast"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_response_is_the_references(served, name, form):
    session, address = served
    text = program_text(name)
    request_body = {"text": text} if form == "text" \
        else {"ast": parse_program_text(text).to_json()}
    payload = request(address, "POST", "/program",
                      json.dumps(request_body).encode("utf-8"))
    expected = expected_program(session.target, name)
    assert all(entry["rows"] > 0 for entry in expected["statements"])
    assert payload == wire(expected)
