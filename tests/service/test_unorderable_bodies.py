"""A body with no join order is refused over the wire, not crashed on.

``I in Item, N = I.name, (k = K, v = I.name) in I.tags`` is
range-restricted (``K`` occurs in a pattern position), so it passes
``Query.parse`` and static program validation.  Yet no atom ever binds
``K`` — the record pattern carries a projection, so it can neither be
tested nor drive a unification — and the planner finds no order.
``GET /query`` answers that with 422 ``validation_failed`` and
``POST /program`` with a WOL504 diagnostic, on a target that does hold
objects (where the dynamic matcher would stop at the stuck atom with a
``MatchError``).
"""

import threading

import pytest

from repro.model import InstanceBuilder, Record, WolSet
from repro.model.schema import parse_schema
from repro.morphase import Morphase
from repro.service import ServiceClient, ServiceValidationError, make_server

SOURCE = parse_schema(
    "schema Src { class ItemS = (name: str, tags: {(k: str, v: str)}) "
    "key name; }")
TARGET = parse_schema(
    "schema Tgt { class Item = (name: str, tags: {(k: str, v: str)}) "
    "key name; }")
PROGRAM = ("transformation T: X in Item, X.name = I.name, "
           "X.tags = I.tags <= I in ItemS;")
STUCK = "I in Item, N = I.name, (k = K, v = I.name) in I.tags"


@pytest.fixture(scope="module")
def client(tmp_path_factory):
    builder = InstanceBuilder(SOURCE.schema)
    builder.new("ItemS", Record.of(
        name="a", tags=WolSet.of(Record.of(k="a", v="a"))))
    morphase = Morphase([SOURCE], TARGET, PROGRAM)
    store = morphase.open_store(
        str(tmp_path_factory.mktemp("unorderable") / "store"),
        [builder.freeze()])
    session = morphase.serve(store)
    assert session.target.class_sizes() == {"Item": 1}
    server = make_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield ServiceClient(server.url)
    server.shutdown()
    server.server_close()
    session.close()


def test_query_body_with_no_join_order_is_422(client):
    with pytest.raises(ServiceValidationError) as info:
        client.query(STUCK)
    assert (info.value.status, info.value.code) \
        == (422, "validation_failed")
    assert "admits no join order" in info.value.message
    assert client.query("I in Item, N = I.name")["count"] == 1


def test_program_with_no_join_order_is_wol504(client):
    with pytest.raises(ServiceValidationError) as info:
        client.program(text=f"q = query {{ {STUCK} }};")
    assert (info.value.status, info.value.code) \
        == (422, "validation_failed")
    (diagnostic,) = info.value.diagnostics["diagnostics"]
    assert diagnostic["code"] == "WOL504"
    assert diagnostic["clause"] == "q"
    assert "admits no join order" in diagnostic["message"]
