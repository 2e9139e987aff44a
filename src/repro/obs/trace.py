"""Request tracing: a span tree with monotonic timings.

A *trace* is one tree of :class:`Span` nodes rooted at a request (an
HTTP handler, a CLI transform, a program run).  Spans nest through a
``contextvars`` variable, so the instrumented layers never pass a
trace object around — they call :func:`span` and either land under
the active parent or hit the null fast path (one context-variable
read) when nothing is tracing.

Propagation: the trace id travels client → leader → follower in the
``X-Repro-Trace`` HTTP header (see ``service/server.py`` and
``service/client.py``); a traced response carries the serialised tree
in the envelope's ``trace`` field when the request asked with
``?trace=1``.  :meth:`Trace.render` prints the EXPLAIN-ANALYZE-style
tree the CLI ``--trace`` flags show.
"""

from __future__ import annotations

import time
import uuid
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

__all__ = [
    "NULL_SPAN",
    "Span",
    "Trace",
    "current_span",
    "current_trace_id",
    "new_trace_id",
    "render_trace_json",
    "span",
    "start_trace",
]

_CURRENT: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_current_span", default=None)
_TRACE: ContextVar[Optional["Trace"]] = ContextVar(
    "repro_obs_current_trace", default=None)


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed node of a trace tree."""

    __slots__ = ("name", "attrs", "children", "duration_ms", "_t0")

    def __init__(self, name: str,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = attrs or {}
        self.children: List[Span] = []
        self.duration_ms: float = 0.0
        self._t0: float = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes (e.g. ``rows_out`` post-hoc)."""
        self.attrs.update(attrs)

    def __bool__(self) -> bool:
        return True

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"name": self.name,
                               "ms": round(self.duration_ms, 3)}
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.children:
            doc["spans"] = [child.to_json() for child in self.children]
        return doc

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, ms={self.duration_ms:.3f}, "
                f"children={len(self.children)})")


class _NullSpan:
    """The no-op span handed out when nothing is tracing."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_span", "_token")

    def __init__(self, span_node: Span) -> None:
        self._span = span_node
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self._span)
        self._span._t0 = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        node = self._span
        node.duration_ms = (time.perf_counter() - node._t0) * 1000.0
        _CURRENT.reset(self._token)
        return False


def span(name: str, **attrs: Any):
    """A child span under the active one — or a no-op when untraced.

    The untraced fast path costs one context-variable read and returns
    a shared null context; hot paths may call this per plan step
    without measurable overhead when no trace is active.
    """
    parent = _CURRENT.get()
    if parent is None:
        return _NULL_CONTEXT
    node = Span(name, attrs or None)
    parent.children.append(node)
    return _SpanContext(node)


class Trace:
    """One complete trace: an id plus the root span."""

    __slots__ = ("trace_id", "root")

    def __init__(self, trace_id: str, root: Span) -> None:
        self.trace_id = trace_id
        self.root = root

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    def to_json(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, "root": self.root.to_json()}

    def render(self) -> str:
        """The EXPLAIN-ANALYZE-style tree (CLI ``--trace`` output)."""
        return render_trace_json(self.to_json())


class _TraceContext:
    __slots__ = ("_trace", "_tokens")

    def __init__(self, trace: Trace) -> None:
        self._trace = trace
        self._tokens = None

    def __enter__(self) -> Trace:
        self._tokens = (_TRACE.set(self._trace),
                        _CURRENT.set(self._trace.root))
        self._trace.root._t0 = time.perf_counter()
        return self._trace

    def __exit__(self, *exc_info: object) -> bool:
        root = self._trace.root
        root.duration_ms = (time.perf_counter() - root._t0) * 1000.0
        trace_token, span_token = self._tokens
        _CURRENT.reset(span_token)
        _TRACE.reset(trace_token)
        return False


def start_trace(name: str, trace_id: Optional[str] = None,
                **attrs: Any):
    """Open a new trace rooted at ``name`` (a context manager).

    ``trace_id`` adopts an id arriving from upstream (the
    ``X-Repro-Trace`` header); omitted, a fresh id is minted.  The
    yielded :class:`Trace` is complete once the ``with`` block exits.
    """
    root = Span(name, attrs or None)
    return _TraceContext(Trace(trace_id or new_trace_id(), root))


def current_span() -> Optional[Span]:
    """The active span, or None when nothing is tracing."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    """The active trace id (what events stamp), or None."""
    trace = _TRACE.get()
    return trace.trace_id if trace is not None else None


def _format_attrs(attrs: Optional[Dict[str, Any]]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
    return f"  {{{inner}}}"


def _render_span(doc: Dict[str, Any], prefix: str, is_last: bool,
                 lines: List[str]) -> None:
    branch = "└─ " if is_last else "├─ "
    lines.append(f"{prefix}{branch}{doc['name']} — {doc.get('ms', 0.0):.2f} ms"
                 f"{_format_attrs(doc.get('attrs'))}")
    children = doc.get("spans", [])
    child_prefix = prefix + ("   " if is_last else "│  ")
    for index, child in enumerate(children):
        _render_span(child, child_prefix,
                     index == len(children) - 1, lines)


def render_trace_json(doc: Dict[str, Any]) -> str:
    """Render a serialised trace document as the text tree.

    Accepts both the full ``{"trace_id", "root"}`` document (what the
    service envelope carries) and a bare root-span document, so the
    client/CLI can print traces it did not produce.
    """
    root = doc.get("root", doc)
    trace_id = doc.get("trace_id")
    header = f"trace {trace_id} · " if trace_id else ""
    lines = [f"{header}{root['name']} — {root.get('ms', 0.0):.2f} ms"
             f"{_format_attrs(root.get('attrs'))}"]
    children = root.get("spans", [])
    for index, child in enumerate(children):
        _render_span(child, "", index == len(children) - 1, lines)
    return "\n".join(lines)
