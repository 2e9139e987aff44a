"""Span trees: nesting, the null fast path, rendering."""

from repro.obs.trace import (NULL_SPAN, current_span, current_trace_id,
                             render_trace_json, span, start_trace)


class TestNesting:
    def test_spans_nest_under_the_active_trace(self):
        with start_trace("request", endpoint="/query") as trace:
            with span("parse"):
                pass
            with span("execute") as execute:
                execute.set(rows=3)
                with span("step 1"):
                    pass
        root = trace.root
        assert [child.name for child in root.children] \
            == ["parse", "execute"]
        execute_span = root.children[1]
        assert execute_span.attrs == {"rows": 3}
        assert [c.name for c in execute_span.children] == ["step 1"]
        assert root.duration_ms >= execute_span.duration_ms

    def test_untraced_spans_are_null_and_free(self):
        assert current_span() is None
        with span("ignored") as node:
            assert node is NULL_SPAN
            assert not node
            node.set(rows=1)  # no-op, no error
        assert current_trace_id() is None

    def test_context_restored_after_trace(self):
        with start_trace("outer"):
            assert current_span() is not None
            assert current_trace_id() is not None
        assert current_span() is None
        assert current_trace_id() is None

    def test_adopted_trace_id_propagates(self):
        with start_trace("follower hop", trace_id="abcd1234") as trace:
            assert current_trace_id() == "abcd1234"
        assert trace.to_json()["trace_id"] == "abcd1234"


class TestSerialisation:
    def test_to_json_shape(self):
        with start_trace("t") as trace:
            with span("child", mode="vec"):
                pass
        doc = trace.to_json()
        assert set(doc) == {"trace_id", "root"}
        root = doc["root"]
        assert root["name"] == "t"
        assert isinstance(root["ms"], float)
        child = root["spans"][0]
        assert child["name"] == "child"
        assert child["attrs"] == {"mode": "vec"}

    def test_render_tree_from_json(self):
        doc = {"trace_id": "deadbeef",
               "root": {"name": "GET /query", "ms": 12.5,
                        "spans": [
                            {"name": "parse", "ms": 1.0},
                            {"name": "execute", "ms": 10.0,
                             "attrs": {"rows": 3},
                             "spans": [{"name": "step", "ms": 9.0}]},
                        ]}}
        rendered = render_trace_json(doc)
        lines = rendered.splitlines()
        assert lines[0] == "trace deadbeef · GET /query — 12.50 ms"
        assert lines[1] == "├─ parse — 1.00 ms"
        assert lines[2] == "└─ execute — 10.00 ms  {rows=3}"
        assert lines[3] == "   └─ step — 9.00 ms"

    def test_render_accepts_bare_root(self):
        rendered = render_trace_json({"name": "x", "ms": 1.0})
        assert rendered == "x — 1.00 ms"
