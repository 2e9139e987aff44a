"""HTTP/JSON front end over one warm :class:`WarehouseSession`.

Pure stdlib (``http.server.ThreadingHTTPServer``): every request runs
in its own thread, readers proceed concurrently under the session's
read-write lock, and writers group-commit through its batcher.

Endpoints::

    GET  /health            liveness + current sequence number
    GET  /metrics           process, then session, metrics in
                            Prometheus text (the one non-envelope
                            endpoint)
    GET  /target            full target instance (JSON interchange)
    GET  /query?body=B      conjunctive WOL query over the warm target
         [&project=X,Y]     (planned + columnar; canonical row order)
    GET  /check             live source-constraint violation set
    GET  /wal?from=N        WAL records from sequence N on (replication
         [&limit=M][&wait=S]  feed; long-polls up to S seconds when N
                            is not written yet; ``reset: true`` tells a
                            follower N was compacted away and it must
                            reseed from the snapshot)
    GET  /snapshot/<name>   one content-addressed snapshot document
                            (the follower seed; name from /wal)
    POST /program           body: {"text": "<DSL>"} or {"ast": {...}}
                            -> compile + run a query program
    POST /ingest            body: delta JSON (label-addressed) -> seq
    POST /snapshot          compact the store (snapshot + WAL reset)
    POST /lint              body: {"program": "<WOL text>"} -> static
                            analysis diagnostics (an empty JSON object
                            lints the session's own program)

Every response — success or failure — is the versioned envelope, on
the wire as canonical JSON (one line, keys sorted; pipe it through
``python -m json.tool`` to read it)::

    {"ok": true, "result": {...}, "version": 1}
    {"error": {"code": "...", "message": "...", "details": {...}?},
     "ok": false, "version": 1}

Error codes map statuses one-to-one: ``bad_request``/``parse_error``
(400: the request or program never parsed), ``not_found`` (404),
``validation_failed`` (422: parsed but statically rejected — an unsafe
body, or one that admits no join order; WOL5xx diagnostics ride in
``details`` for programs), ``conflict`` (409: the node cannot
serve this request *yet* or *at all* in its role — a replica behind
the requested ``X-Repro-Seq`` answers ``replica_behind``, a replica
asked to write answers ``read_only_replica`` with the leader's URL in
``details``), ``session_spent`` (503) and ``internal_error`` (500).
``/check`` and ``/lint`` always answer 200: a report full of findings
is a successful report, not a transport failure.

**Tracing** (``X-Repro-Trace`` / ``?trace=1``): a request carrying the
trace header runs under a span tree adopting that id (so a client's
trace stitches across leader and follower hops); adding ``?trace=1``
to any endpoint embeds the serialised tree as a ``trace`` field in
the success envelope.  Traced responses echo the id in the header.

**Monotonic reads** (``X-Repro-Seq``): every response carries the
serving node's applied sequence number in an ``X-Repro-Seq`` header.
A client that sends the highest value it has seen back as a request
header declares "answer from state at least this new" — a replica
still catching up answers 409 ``replica_behind`` instead of silently
serving stale state, and the client retries until the replica's
applied seq passes the token.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..evolution.delta import DeltaError
from ..io.json_io import canonical_json
from ..obs.events import emit_slow_query, log_event
from ..obs.metrics import LATENCY_BUCKETS, REGISTRY, SIZE_BUCKETS
from ..obs.trace import start_trace
from ..store.store import StoreError
from .session import ServiceError, WarehouseSession

#: Cap on request bodies — a delta document, not a bulk load.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Distributed-trace id header: a client (or an upstream node) sends
#: one to stitch its span tree to this node's; every traced response
#: echoes it.
TRACE_HEADER = "X-Repro-Trace"

#: Endpoints whose latency counts as a "query" for the slow-query log.
_READ_ENDPOINTS = frozenset({"/query", "/target", "/check", "/program"})

_REQUESTS_TOTAL = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, endpoint and status.",
    ("method", "endpoint", "status"))
_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds",
    "End-to-end request handling latency.",
    ("method", "endpoint"), buckets=LATENCY_BUCKETS)
_REQUEST_BYTES = REGISTRY.histogram(
    "repro_http_request_bytes", "Request body sizes.",
    ("endpoint",), buckets=SIZE_BUCKETS)
_RESPONSE_BYTES = REGISTRY.histogram(
    "repro_http_response_bytes", "Response body sizes.",
    ("endpoint",), buckets=SIZE_BUCKETS)
_IN_FLIGHT = REGISTRY.gauge(
    "repro_http_in_flight", "Requests currently being handled.")

#: Known routes, for bounded metric label cardinality — anything else
#: (404 probes included) lands under ``other``.
_GET_ROUTES = frozenset({"/health", "/metrics", "/target", "/query",
                         "/check", "/wal"})
_POST_ROUTES = frozenset({"/ingest", "/program", "/snapshot", "/lint"})


def _route_label(method: str, path: str) -> str:
    if method == "GET" and path.startswith("/snapshot/"):
        return "/snapshot/:name"
    routes = _GET_ROUTES if method == "GET" else _POST_ROUTES
    return path if path in routes else "other"

#: Version stamp of the response envelope (every endpoint, every
#: status).
API_VERSION = 1

#: Default machine-readable error code per HTTP status; a
#: :class:`ServiceError` with an explicit ``code`` overrides.
CODE_FOR_STATUS = {
    400: "bad_request",
    404: "not_found",
    409: "conflict",
    422: "validation_failed",
    500: "internal_error",
    503: "session_spent",
}

#: The monotonic-read session token header (request and response).
SEQ_HEADER = "X-Repro-Seq"

#: Snapshot files are content-addressed and flat — anything else in a
#: ``GET /snapshot/<name>`` path is refused before touching the disk.
SNAPSHOT_NAME = re.compile(r"^snap-[0-9a-f]{24}\.json$")


def envelope_ok(result: Any) -> Dict[str, Any]:
    """The success envelope around one endpoint result.

    ``result`` is a JSON document, or ``bytes`` holding one already
    encoded (``GET /target`` keeps its encoding per applied seq).
    """
    return {"version": API_VERSION, "ok": True, "result": result}


def envelope_error(code: str, message: str,
                   details: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """The failure envelope around one error."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if details is not None:
        error["details"] = details
    return {"version": API_VERSION, "ok": False, "error": error}


def encode_envelope(envelope: Dict[str, Any],
                    trace: Optional[Dict[str, Any]] = None) -> bytes:
    """The wire bytes of one envelope: its canonical JSON text.

    ``trace`` (a serialised span tree) rides as one more top-level
    field.  A ``bytes`` result is spliced in as it stands, never
    decoded and re-encoded: in sorted order ``ok`` and ``result`` lead
    and ``trace`` / ``version`` follow, so the bytes equal those of
    encoding the same envelope around the decoded result.
    """
    extra = {} if trace is None else {"trace": trace}
    result = envelope.get("result")
    if not isinstance(result, bytes):
        return canonical_json({**envelope, **extra}).encode("utf-8")
    tail = canonical_json({**extra, "version": envelope["version"]})
    return (b'{"ok": true, "result": ' + result + b", "
            + tail[1:].encode("utf-8"))


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one warehouse session."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 session: WarehouseSession,
                 verbose: bool = False,
                 slow_query_ms: float = 500.0) -> None:
        super().__init__(address, _Handler)
        self.session = session
        self.verbose = verbose
        #: Read requests slower than this emit a ``slow_query`` event.
        self.slow_query_ms = slow_query_ms

    def handle_error(self, request, client_address) -> None:
        """Keep peer hang-ups out of the log.

        A follower killed mid-``/wal`` long-poll (or any client that
        drops its socket before the response lands) surfaces here as a
        broken pipe — routine connection churn, not a server error
        worth a stack trace.
        """
        import sys
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)

    @property
    def url(self) -> str:
        """A URL clients can actually connect to.

        A wildcard bind (``0.0.0.0``/``::``) is a listening address,
        not a destination — mapped to the matching loopback host so
        the CLI banner, the demo and replica bootstrap URLs work
        verbatim.
        """
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", ""):
            host = "127.0.0.1"
        elif host == "::":
            host = "::1"
        if ":" in host:  # bare IPv6 literals need brackets in URLs
            host = f"[{host}]"
        return f"http://{host}:{port}"


def make_server(session: WarehouseSession, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False,
                slow_query_ms: float = 500.0) -> ServiceServer:
    """Bind a service server (``port=0`` picks an ephemeral port)."""
    return ServiceServer((host, port), session, verbose=verbose,
                         slow_query_ms=slow_query_ms)


class _Handler(BaseHTTPRequestHandler):
    server: ServiceServer  # narrowed for route handlers
    protocol_version = "HTTP/1.1"
    # Response headers and body land in separate writes; without
    # TCP_NODELAY, Nagle + the peer's delayed ACK turn every keep-alive
    # request after the first into a ~40 ms stall.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    # Per-request observability state, initialised by _handle before
    # any route code runs.
    _trace = None
    _want_trace = False
    _status: Optional[int] = None
    _response_size = 0

    def _reply(self, status: int, document: Dict[str, Any]) -> None:
        trace = self._trace
        embedded = None
        if trace is not None and self._want_trace:
            # The root span is still open (this very write is part of
            # it) — stamp its duration as of serialisation time so the
            # embedded tree is complete and self-consistent.
            root = trace.root
            root.duration_ms = (time.perf_counter()
                                - root._t0) * 1000.0
            embedded = trace.to_json()
        body = encode_envelope(document, embedded)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # The monotonic-read token: what sequence number this answer
        # reflects.  Clients echo their highest seen value back as a
        # request header to refuse stale replica reads.
        self.send_header(SEQ_HEADER,
                         str(self.server.session.applied_seq))
        if trace is not None:
            self.send_header(TRACE_HEADER, trace.trace_id)
        if self.close_connection:
            # Declared, not just done: the peer must know this
            # keep-alive connection ends after the response.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self._status = status
        self._response_size = len(body)
        if status >= 500:
            error = document.get("error", {})
            log_event("http_5xx", level=logging.ERROR,
                      endpoint=self.path, status=status,
                      code=error.get("code"),
                      message=error.get("message"),
                      trace_id=(trace.trace_id if trace else None))

    def _error(self, status: int, message: str,
               code: Optional[str] = None,
               details: Optional[Dict[str, Any]] = None) -> None:
        resolved = code or CODE_FOR_STATUS.get(status, "internal_error")
        self._reply(status, envelope_error(resolved, message,
                                           details=details))

    def _read_body(self) -> Optional[Dict[str, Any]]:
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length or 0)
        except ValueError:
            # A malformed length is a protocol-level parse failure,
            # answered as one — not an unhandled ValueError resetting
            # the connection.  The body cannot be framed without a
            # length, so the keep-alive connection must close.
            self.close_connection = True
            self._error(400, f"malformed Content-Length header: "
                             f"{raw_length!r}", code="parse_error")
            return None
        if length <= 0:
            self._error(400, "request body required")
            return None
        if length > MAX_BODY_BYTES:
            # The oversized body is not drained; leaving it queued
            # would desynchronise the keep-alive connection (the next
            # request would be parsed out of body bytes), so close.
            self.close_connection = True
            self._error(400, f"request body over {MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"request body is not JSON: {exc}",
                        code="parse_error")
            return None
        if not isinstance(document, dict):
            self._error(400, "request body must be a JSON object",
                        code="parse_error")
            return None
        return document

    def _dispatch(self, handler, *args) -> None:
        try:
            status, result = handler(*args)
        except (DeltaError, StoreError) as exc:
            self._error(400, str(exc))
        except ServiceError as exc:
            self._error(exc.status, str(exc), code=exc.code,
                        details=exc.details)
        except Exception as exc:  # noqa: BLE001 - service boundary
            self._error(500, f"{type(exc).__name__}: {exc}")
        else:
            self._reply(status, envelope_ok(result))

    def _check_read_token(self) -> bool:
        """Enforce the ``X-Repro-Seq`` monotonic-read token, if sent.

        Returns False (after answering) when the request asked for
        state newer than this node has applied — a replica still
        catching up answers 409 ``replica_behind`` and the client
        retries rather than reading backwards in time.
        """
        raw = self.headers.get(SEQ_HEADER)
        if raw is None:
            return True
        try:
            wanted = int(raw)
        except ValueError:
            self._error(400, f"malformed {SEQ_HEADER} header: {raw!r}",
                        code="parse_error")
            return False
        applied = self.server.session.applied_seq
        if applied < wanted:
            self._error(409, f"this node has applied seq {applied}, "
                             f"behind the requested {wanted}; retry "
                             f"shortly", code="replica_behind",
                        details={"applied_seq": applied,
                                 "requested_seq": wanted})
            return False
        return True

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")

    def _handle(self, method: str) -> None:
        """Instrumented dispatch around one request.

        Opens a trace when the request carries an ``X-Repro-Trace``
        header (adopting the upstream id) or asks with ``?trace=1``
        (the serialised tree then rides the envelope), and records the
        request into the latency/size/in-flight metrics, the
        slow-query log, and the DEBUG-level ``http_request`` event.
        """
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        endpoint = _route_label(method, parsed.path)
        upstream = self.headers.get(TRACE_HEADER)
        self._trace = None
        self._want_trace = params.get("trace", ["0"])[0] in ("1", "true")
        self._status = None
        self._response_size = 0
        raw_length = self.headers.get("Content-Length")
        try:
            request_bytes = int(raw_length) if raw_length else 0
        except ValueError:
            request_bytes = 0
        start = time.perf_counter()
        _IN_FLIGHT.inc()
        try:
            if upstream or self._want_trace:
                with start_trace(f"{method} {parsed.path}",
                                 trace_id=upstream or None) as trace:
                    self._trace = trace
                    self._route(method, parsed, params)
            else:
                self._route(method, parsed, params)
        finally:
            _IN_FLIGHT.dec()
            elapsed = time.perf_counter() - start
            status = self._status if self._status is not None else 500
            _REQUESTS_TOTAL.labels(method, endpoint, str(status)).inc()
            _REQUEST_SECONDS.labels(method, endpoint).observe(elapsed)
            if request_bytes > 0:
                _REQUEST_BYTES.labels(endpoint).observe(request_bytes)
            if self._response_size:
                _RESPONSE_BYTES.labels(endpoint).observe(
                    self._response_size)
            correlate = ({"trace_id": self._trace.trace_id}
                         if self._trace is not None else {})
            elapsed_ms = elapsed * 1000.0
            if (parsed.path in _READ_ENDPOINTS
                    and elapsed_ms > self.server.slow_query_ms):
                emit_slow_query(parsed.path, elapsed_ms,
                                self.server.slow_query_ms,
                                status=status, **correlate)
            log_event("http_request", level=logging.DEBUG,
                      method=method, endpoint=parsed.path,
                      status=status, ms=round(elapsed_ms, 3),
                      **correlate)

    def _route(self, method: str, parsed, params: Dict[str, list]
               ) -> None:
        session = self.server.session
        if method == "GET" and parsed.path == "/metrics":
            # Scrapes are unconditional: a replica behind the read
            # token must still expose its metrics (that lag is the
            # point of scraping it).
            self._metrics(session)
            return
        if not self._check_read_token():
            return
        if method == "POST":
            self._route_post(session, parsed, params)
            return
        if parsed.path == "/health":
            self._dispatch(lambda: self._health(session))
        elif parsed.path == "/target":
            self._dispatch(lambda: (200, session.target_json_bytes()))
        elif parsed.path == "/query":
            self._query(session, params)
        elif parsed.path == "/check":
            self._dispatch(lambda: (200, session.check_json()))
        elif parsed.path == "/wal":
            self._wal(session, params)
        elif parsed.path.startswith("/snapshot/"):
            self._snapshot_file(session,
                                parsed.path[len("/snapshot/"):])
        else:
            self._error(404, f"no route {parsed.path}")

    def _metrics(self, session: WarehouseSession) -> None:
        """``GET /metrics``: the process registry, then the session's own,
        in Prometheus text format.

        The one non-envelope endpoint — Prometheus scrapers speak the
        text exposition format, not our JSON envelope.
        """
        body = (REGISTRY.render() + session.metrics.render()).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self._status = 200
        self._response_size = len(body)

    def _wal(self, session: WarehouseSession,
             params: Dict[str, list]) -> None:
        def number(name, default, convert):
            values = params.get(name)
            if not values:
                return default, None
            try:
                return convert(values[0]), None
            except ValueError:
                return None, f"'{name}' must be a number, got " \
                             f"{values[0]!r}"

        from_seq, problem = number("from", None, int)
        if problem is None and from_seq is None:
            problem = "/wal requires ?from=<first sequence wanted>"
        if problem is None:
            limit, problem = number("limit", 500, int)
        if problem is None:
            wait, problem = number("wait", 0.0, float)
        if problem is not None:
            self._error(400, problem)
            return
        self._dispatch(lambda: (200, session.wal_records_from(
            from_seq, limit=limit, wait=wait)))

    def _snapshot_file(self, session: WarehouseSession,
                       name: str) -> None:
        if not SNAPSHOT_NAME.match(name):
            self._error(400, f"malformed snapshot name {name!r}")
            return

        def load() -> Tuple[int, Dict[str, Any]]:
            path = os.path.join(session.store.path, name)
            try:
                with open(path, "rb") as handle:
                    content = handle.read()
            except OSError:
                raise ServiceError(
                    f"no snapshot {name} in this store (it may have "
                    f"been pruned; re-fetch /wal for the live name)",
                    status=404) from None
            return 200, json.loads(content.decode("utf-8"))

        self._dispatch(load)

    def _query(self, session: WarehouseSession,
               params: Dict[str, list]) -> None:
        names = params.get("class")
        if names is not None:
            self._error(400, "the ?class= extent form is retired; use "
                             f"?body=X in {names[0]}")
            return
        bodies = params.get("body")
        if bodies is None:
            self._error(400, "query requires ?body=<WOL atoms> "
                             "(conjunctive query)")
            return
        projects = params.get("project")
        project = projects[0] if projects else None
        self._dispatch(lambda: (
            200, session.query_body_json(bodies[0], project=project)))

    @staticmethod
    def _health(session: WarehouseSession
                ) -> Tuple[int, Dict[str, Any]]:
        spent = session.spent
        if spent is not None:
            raise ServiceError(
                f"session is spent ({spent}); restart the service to "
                f"rebuild from the store", status=503,
                code="session_spent",
                details={"seq": session.store.seq, "spent": spent})
        return 200, {"seq": session.store.seq}

    def _route_post(self, session: WarehouseSession, parsed,
                    params: Dict[str, list]) -> None:
        if parsed.path == "/ingest":
            document = self._read_body()
            if document is None:
                return
            self._dispatch(lambda: self._ingest(session, document))
        elif parsed.path == "/program":
            document = self._read_body()
            if document is None:
                return
            self._dispatch(lambda: (200, session.program_json(document)))
        elif parsed.path == "/snapshot":
            self._dispatch(lambda: (200, session.snapshot()))
        elif parsed.path == "/lint":
            document = self._read_body()
            if document is None:
                return
            self._dispatch(lambda: (200, session.lint_json(document)))
        else:
            self._error(404, f"no route {parsed.path}")

    @staticmethod
    def _ingest(session: WarehouseSession, document: Dict[str, Any]
                ) -> Tuple[int, Dict[str, Any]]:
        result = session.ingest_json(document)
        return 200, {
            "seq": result.seq,
            "applied_seq": result.applied_seq,
            "batch_size": result.batch_size,
            "violations": result.violations,
        }
