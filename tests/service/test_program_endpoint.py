"""``POST /program`` over the wire — the acceptance differential.

A multi-statement program mixing WOL-body queries and set algebra,
POSTed to a warm session, must return results *byte-identical* to the
batch :class:`repro.query.Query` / Python-set-algebra oracle — via the
text DSL form and the canonical JSON AST form alike.  Plus the error
contract: 400 (``parse_error``) when the program never parsed, 422
(``validation_failed``, WOL5xx diagnostics attached) when it parsed
but failed static validation.
"""

import json
import threading

import pytest

from repro.io.json_io import dump_oid_encoder, value_to_json
from repro.morphase import Morphase
from repro.program import parse_program_text
from repro.query.query import Query
from repro.service import (ServiceClient, ServiceParseError,
                           ServiceValidationError, make_server)
from repro.workloads import cities

PROGRAM_TEXT = """
caps = query { N | C in CountryT, X = C.capital, N = X.name };
alln = query { N | X in CityT, N = X.name };
rest = difference alln, caps;
both = union caps, rest;
top = limit both 4;
"""


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                        cities.target_schema(), cities.PROGRAM_TEXT)
    store = morphase.open_store(
        str(tmp_path_factory.mktemp("program-svc") / "store"),
        [cities.sample_us_instance(), cities.sample_euro_instance()])
    session = morphase.serve(store)
    server = make_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield session, ServiceClient(server.url)
    server.shutdown()
    server.server_close()
    session.close()


def batch_oracle(target):
    """The served program's result computed with the batch Query API."""
    encoder = dump_oid_encoder(target)
    classes = target.schema.class_names()

    def rows(text):
        keyed = {}
        for row in Query.parse(text, classes=classes).run(target):
            encoded = {name: value_to_json(value, encoder)
                       for name, value in row.items()}
            keyed.setdefault(json.dumps(encoded, sort_keys=True),
                             encoded)
        return keyed

    caps = rows("N | C in CountryT, X = C.capital, N = X.name")
    alln = rows("N | X in CityT, N = X.name")
    rest = {key: alln[key] for key in alln if key not in caps}
    both = dict(caps)
    both.update(rest)
    return [both[key] for key in sorted(both)][:4]


class TestProgramDifferential:
    def test_text_form_matches_batch_oracle(self, service):
        session, client = service
        result = client.program(text=PROGRAM_TEXT)
        oracle = batch_oracle(session.target)
        assert json.dumps(result["rows"], sort_keys=True) \
            == json.dumps(oracle, sort_keys=True)
        assert result["result"] == "top"
        assert result["columns"] == ["N"]
        assert [t["name"] for t in result["statements"]] \
            == ["caps", "alln", "rest", "both", "top"]

    def test_ast_form_is_byte_identical_to_text_form(self, service):
        _, client = service
        ast = parse_program_text(PROGRAM_TEXT).to_json()
        via_text = client.program(text=PROGRAM_TEXT)
        via_ast = client.program(ast=ast)
        assert json.dumps(via_text, sort_keys=True) \
            == json.dumps(via_ast, sort_keys=True)

    def test_program_survives_an_ingest(self, service):
        """The warm pool cache invalidates at batch boundaries."""
        session, client = service
        before = client.program(text=PROGRAM_TEXT)
        client.ingest({"inserts": {
            "CountryE": [
                {"id": {"$oid": "CountryE", "label": "CountryE#prog"},
                 "value": {"$rec": {"name": "Zanado", "language": "z",
                                    "currency": "ZAN"}}}],
            "CityE": [
                {"id": {"$oid": "CityE", "label": "CityE#prog"},
                 "value": {"$rec": {"name": "Zan City",
                                    "is_capital": True,
                                    "country": {"$oid": "CountryE",
                                                "label": "CountryE#prog"}
                                    }}}],
        }})
        after = client.program(text=PROGRAM_TEXT)
        oracle = batch_oracle(session.target)
        assert json.dumps(after["rows"], sort_keys=True) \
            == json.dumps(oracle, sort_keys=True)
        assert after["statements"][0]["rows"] \
            == before["statements"][0]["rows"] + 1

    def test_explain_rides_along(self, service):
        _, client = service
        result = client.program(text=PROGRAM_TEXT, explain=True)
        assert "plan caps:" in result["explain"]

    def test_warnings_ride_along_as_diagnostics(self, service):
        _, client = service
        result = client.program(
            text="a = query { X in CityT };\n"
                 "b = query { X in CityT };")
        codes = [d["code"]
                 for d in result["diagnostics"]["diagnostics"]]
        assert "WOL508" in codes

    def test_program_counter_in_stats(self, service):
        session, client = service
        before = session.metrics.value("repro_session_programs")
        client.program(text="a = query { X in CityT };")
        assert session.metrics.value("repro_session_programs") \
            == before + 1


class TestProgramErrors:
    def test_unparsable_text_is_400_parse_error(self, service):
        _, client = service
        with pytest.raises(ServiceParseError) as info:
            client.program(text="a = frobnicate b;")
        assert info.value.status == 400

    def test_malformed_ast_is_400_parse_error(self, service):
        _, client = service
        with pytest.raises(ServiceParseError) as info:
            client.program(ast={"version": 99, "statements": []})
        assert info.value.status == 400

    def test_invalid_program_is_422_with_diagnostics(self, service):
        _, client = service
        with pytest.raises(ServiceValidationError) as info:
            client.program(text="b = union a, ghost;")
        assert info.value.status == 422
        codes = [d["code"]
                 for d in info.value.diagnostics["diagnostics"]]
        assert "WOL503" in codes

    def test_text_and_ast_together_rejected(self, service):
        _, client = service
        with pytest.raises(ValueError):
            client.program(text="a = query { X in CityT };", ast={})

    def test_neither_text_nor_ast_is_400(self, service):
        from repro.service import ServiceClientError
        _, client = service
        with pytest.raises(ServiceClientError) as info:
            client._call("POST", "/program", body={"explain": True})
        assert info.value.status == 400
        assert info.value.code == "bad_request"

    @pytest.mark.parametrize("field, value", [("shards", 4),
                                              ("columnar", False)])
    def test_unknown_request_field_is_400(self, service, field, value):
        from repro.service import ServiceClientError
        _, client = service
        with pytest.raises(ServiceClientError) as info:
            client._call("POST", "/program",
                         body={"text": "a = query { X in CityT };",
                               field: value})
        assert info.value.status == 400
        assert field in info.value.message
