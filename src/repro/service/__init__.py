"""Concurrent service layer: a long-lived Morphase session over HTTP.

The paper's closing scenario (Section 6) is a transformed warehouse
*maintained* in front of evolving sources — a system, not a batch job.
This package is that system's front door: one warm
:class:`~repro.service.session.WarehouseSession` holds the compiled
program, the shared index pool and the incremental session (target
and violation set) across requests; a stdlib ``ThreadingHTTPServer`` exposes
ingest/query/check/snapshot/metrics endpoints; a read-write lock lets
queries run concurrently while delta ingestion group-commits bursts
into single incremental applications.

The service also scales reads horizontally: a leader streams its WAL
over ``GET /wal`` (long-polled, bounded), and
:class:`~repro.service.replica.WalReplica` runs a follower that seeds
itself from the leader's content-addressed snapshot, replays the feed
through its own incremental session, and serves queries locally —
monotonic reads guaranteed by the ``X-Repro-Seq`` token the client
echoes.
"""

from .locks import ReadWriteLock
from .session import IngestResult, ServiceError, WarehouseSession
from .server import (API_VERSION, ServiceServer, envelope_error,
                     envelope_ok, make_server)
from .client import (ServiceClient, ServiceClientError,
                     ServiceConflictError, ServiceParseError,
                     ServiceValidationError)
from .replica import ReplicaError, ReplicaSession, WalReplica

__all__ = [
    "ReadWriteLock",
    "IngestResult", "ServiceError", "WarehouseSession",
    "API_VERSION", "ServiceServer", "make_server",
    "envelope_ok", "envelope_error",
    "ServiceClient", "ServiceClientError", "ServiceConflictError",
    "ServiceParseError", "ServiceValidationError",
    "ReplicaError", "ReplicaSession", "WalReplica",
]
