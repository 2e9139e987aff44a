"""A minimal JSON client for the warehouse service (urllib only).

Used by the tests, the benchmarks and ``examples/service_demo.py`` —
and small enough to copy into any consumer that cannot add
dependencies either.

Every server response is the versioned envelope
(:data:`repro.service.server.API_VERSION`); the client unwraps it, so
methods return the bare ``result`` document and failures raise typed
errors carrying the envelope's machine-readable ``code``:

* :class:`ServiceParseError` — ``parse_error`` (HTTP 400): the
  request, query body or program never parsed;
* :class:`ServiceValidationError` — ``validation_failed`` (HTTP 422):
  it parsed but static validation rejected it (WOL5xx diagnostics in
  ``details``);
* :class:`ServiceConflictError` — HTTP 409: the node's state or role
  conflicts with the request (``replica_behind``: this replica has not
  yet applied the sequence the client already observed;
  ``read_only_replica``: a write was sent to a follower);
* :class:`ServiceClientError` — everything else (``bad_request``,
  ``not_found``, ``session_spent``, ``internal_error``).

The client also implements the service's **monotonic read** protocol:
every response carries the node's applied sequence number in the
``X-Repro-Seq`` header, the client remembers the highest value it has
seen and echoes it on subsequent requests.  A replica that has not
caught up to that point answers 409 ``replica_behind``, and the client
transparently retries (bounded by ``behind_wait``) until the replica
catches up — so reads through one client never travel backwards in
time, even when load-balanced across followers mid-replication.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional, Sequence
from urllib import request as urlrequest
from urllib.error import HTTPError
from urllib.parse import quote

from ..obs.trace import current_trace_id

#: Monotonic-read token header (kept literal so this module stays
#: copy-paste standalone).
SEQ_HEADER = "X-Repro-Seq"

#: Distributed-trace id header.  When a trace is active in the calling
#: process (``repro.obs.trace``), every request carries its id — the
#: server adopts it, so client → leader → follower hops share one
#: trace id end to end.
TRACE_HEADER = "X-Repro-Trace"

#: Longest slice of a non-JSON error body quoted in the raised error.
_BODY_SNIPPET_BYTES = 512


class ServiceClientError(Exception):
    """A non-2xx service response, decoded from the error envelope.

    ``code``/``message``/``details`` mirror the envelope's ``error``
    object; ``document`` keeps the whole response body for callers
    that need the raw form.
    """

    def __init__(self, status: int, document: Dict[str, Any]) -> None:
        error = document.get("error")
        if isinstance(error, dict):
            self.code: str = error.get("code", "internal_error")
            self.message: str = error.get("message", str(error))
            self.details: Optional[Dict[str, Any]] = error.get("details")
        else:  # not an envelope (proxy error, pre-envelope server)
            self.code = "internal_error"
            self.message = str(error if error is not None else document)
            self.details = None
        super().__init__(f"HTTP {status} [{self.code}]: {self.message}")
        self.status = status
        self.document = document


class ServiceParseError(ServiceClientError):
    """The request or program was not syntactically well-formed (400)."""


class ServiceValidationError(ServiceClientError):
    """The input parsed but failed static validation (422).

    ``diagnostics`` is the WOL5xx report JSON when the server attached
    one.
    """

    @property
    def diagnostics(self) -> Optional[Dict[str, Any]]:
        if self.details is None:
            return None
        return self.details.get("diagnostics")


class ServiceConflictError(ServiceClientError):
    """The node's state or role conflicts with the request (409).

    ``code`` distinguishes the cases: ``replica_behind`` (this node
    has not applied the sequence the client observed elsewhere — the
    client retries these itself) and ``read_only_replica`` (a write
    reached a follower; ``details["leader"]`` names where to send it).
    """


def _typed_error(status: int,
                 document: Dict[str, Any]) -> ServiceClientError:
    error = document.get("error")
    code = error.get("code") if isinstance(error, dict) else None
    if code == "parse_error":
        return ServiceParseError(status, document)
    if code == "validation_failed":
        return ServiceValidationError(status, document)
    if status == 409:
        return ServiceConflictError(status, document)
    return ServiceClientError(status, document)


class ServiceClient:
    """Talk to one running :class:`~repro.service.server.ServiceServer`."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 monotonic: bool = True,
                 behind_wait: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Echo the monotonic-read token on every request.  Turn off
        #: for a client that genuinely wants whatever a replica has
        #: (e.g. a lag probe).
        self.monotonic = monotonic
        #: Longest to retry a 409 ``replica_behind`` before giving up
        #: and raising it — the bound on how stale a replica may be
        #: before monotonic reads through this client fail instead of
        #: waiting.
        self.behind_wait = behind_wait
        #: Highest applied sequence number any response has reported.
        self.last_seq = 0
        #: The ``trace`` document of the most recent response (None
        #: when the last response carried none) — ask for one with the
        #: ``trace=True`` flag on reads and render it with
        #: :func:`repro.obs.trace.render_trace_json`.
        self.last_trace: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def _call(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> Any:
        deadline = time.monotonic() + self.behind_wait
        while True:
            try:
                return self._call_once(method, path, body)
            except ServiceConflictError as exc:
                if (exc.code == "replica_behind" and self.monotonic
                        and time.monotonic() < deadline):
                    time.sleep(0.05)  # the replica is catching up
                    continue
                raise

    def _observe(self, headers: Any) -> None:
        """Advance the monotonic token from a response's seq header."""
        value = headers.get(SEQ_HEADER) if headers is not None else None
        if value is not None:
            try:
                self.last_seq = max(self.last_seq, int(value))
            except ValueError:
                pass  # a proxy mangled the header; keep our token

    def _call_once(self, method: str, path: str,
                   body: Optional[Dict[str, Any]] = None) -> Any:
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        headers: Dict[str, str] = {}
        if data is not None:
            headers["Content-Type"] = "application/json"
        if self.monotonic and self.last_seq:
            headers[SEQ_HEADER] = str(self.last_seq)
        trace_id = current_trace_id()
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        req = urlrequest.Request(
            self.base_url + path, data=data, method=method,
            headers=headers)
        try:
            with urlrequest.urlopen(req, timeout=self.timeout) as resp:
                self._observe(resp.headers)
                document = json.loads(resp.read().decode("utf-8"))
        except HTTPError as exc:
            raw = exc.read()
            try:
                document = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                document = None
            if not isinstance(document, dict):
                # Not our envelope (a proxy error page, a crashed
                # worker's traceback): quote what the server actually
                # said instead of discarding the only evidence.
                snippet = raw[:_BODY_SNIPPET_BYTES].decode(
                    "utf-8", errors="replace").strip()
                message = (f"{exc}: {snippet}" if snippet else str(exc))
                document = {"error": {"code": "internal_error",
                                      "message": message}}
            raise _typed_error(exc.code, document) from exc
        if isinstance(document, dict):
            self.last_trace = document.get("trace")
            if "result" in document:
                return document["result"]
        return document

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._call("GET", "/health")

    def metrics(self) -> str:
        """Scrape ``GET /metrics`` (Prometheus text, not an envelope)."""
        req = urlrequest.Request(self.base_url + "/metrics")
        with urlrequest.urlopen(req, timeout=self.timeout) as resp:
            return resp.read().decode("utf-8")

    def target(self, trace: bool = False) -> Dict[str, Any]:
        return self._call(
            "GET", "/target?trace=1" if trace else "/target")

    def query(self, body: str,
              project: Optional[Sequence[str]] = None,
              trace: bool = False) -> Dict[str, Any]:
        """Run a conjunctive WOL query against the warm target.

        ``body`` is a WOL atom list (the text after ``|`` in
        :meth:`repro.query.Query.parse`); ``project`` optionally names
        the output columns.  Returns ``{"columns", "count", "rows"}``
        with rows duplicate-free in canonical order.
        """
        path = f"/query?body={quote(body)}"
        if project:
            path += f"&project={quote(','.join(project))}"
        if trace:
            path += "&trace=1"
        return self._call("GET", path)

    def program(self, text: Optional[str] = None,
                ast: Optional[Dict[str, Any]] = None,
                explain: bool = False,
                trace: bool = False) -> Dict[str, Any]:
        """Compile and run a query program on the warm session.

        Pass exactly one of ``text`` (the DSL source) or ``ast`` (the
        canonical JSON AST, :meth:`repro.program.QueryProgram.to_json`).
        Returns the program result document (``result`` statement name,
        ``columns``, ``rows``, per-statement ``statements`` traces,
        optional ``explain``).  Parse failures raise
        :class:`ServiceParseError`; validation failures raise
        :class:`ServiceValidationError` with the WOL5xx diagnostics.
        """
        if (text is None) == (ast is None):
            raise ValueError("pass exactly one of text= or ast=")
        body: Dict[str, Any] = {}
        if text is not None:
            body["text"] = text
        else:
            body["ast"] = ast
        if explain:
            body["explain"] = True
        return self._call(
            "POST", "/program?trace=1" if trace else "/program",
            body=body)

    def check(self, trace: bool = False) -> Dict[str, Any]:
        return self._call("GET", "/check?trace=1" if trace else "/check")

    def ingest(self, delta_document: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("POST", "/ingest", body=delta_document)

    def snapshot(self) -> Dict[str, Any]:
        return self._call("POST", "/snapshot", body={})

    # ------------------------------------------------------------------
    # Replication feed
    # ------------------------------------------------------------------
    def wal(self, from_seq: int, limit: int = 500,
            wait: float = 0.0) -> Dict[str, Any]:
        """Fetch WAL records starting at ``from_seq`` (the feed a
        follower tails).

        ``wait > 0`` long-polls until a record lands at ``from_seq``
        or the window expires.  The result carries ``records``,
        ``seq``/``base_seq``/``snapshot``, and ``reset`` — true when
        ``from_seq`` was compacted away and the caller must reseed
        from :meth:`snapshot_file`.
        """
        return self._call(
            "GET", f"/wal?from={from_seq}&limit={limit}&wait={wait:g}")

    def snapshot_file(self, name: str) -> Dict[str, Any]:
        """Fetch one content-addressed snapshot document by name."""
        return self._call("GET", f"/snapshot/{quote(name)}")
