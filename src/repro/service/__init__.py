"""The network query service: the api layer served over a socket.

Everything :mod:`repro.api` does in-process -- sessions, prepared
statements, streaming cursors, materialized views -- this package does over
TCP, speaking a length-prefixed JSON-frame protocol:

* :mod:`repro.service.protocol` -- the frame codec, protocol-version
  negotiation, and the typed error taxonomy shared by both ends;
* :mod:`repro.service.server` -- :class:`QueryServer`, an asyncio server
  multiplexing many logical sessions per connection over one shared engine,
  with three-gate admission control (session cap, per-session in-flight
  cap, work-queue depth) answering ``SERVER_BUSY`` instead of hanging;
* :mod:`repro.service.client` -- the synchronous SDK:
  :func:`connect` / :class:`RemoteSession` / :class:`RemoteCursor` /
  :class:`RemotePreparedStatement` / :class:`RemoteView`, mirroring the
  in-process surface, with change notifications pushed as commits land;
* :mod:`repro.service.cli` -- the ``repro-cli`` terminal front end
  (``serve``, ``query``, ``prepare``, ``status``, ``sessions``, ``views``,
  ``metrics``, ``trace``) on argparse.

Quick start (one process, two roles)::

    from repro.service import QueryServer, connect
    from repro.workloads.databases import graph_database

    server = QueryServer(db=graph_database(64, "path", mutable=True))
    host, port = server.start_in_thread()
    with connect(host, port) as conn, conn.session() as s:
        print(s.execute("edges").fetchmany(5))
    server.stop()

See README.md for the tour and DESIGN.md ("The network service") for the
wire-level contract.
"""

from .client import (
    RemoteConnection,
    RemoteCursor,
    RemotePreparedStatement,
    RemoteSession,
    RemoteView,
    ViewChange,
    connect,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameTooLarge,
    ProtocolError,
    ProtocolMismatch,
    RemoteError,
    ServerBusy,
    ServiceError,
    ServiceTimeout,
)
from .server import QueryServer, ServerConfig, ServerStats

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ConnectionClosed",
    "FrameTooLarge",
    "ProtocolError",
    "ProtocolMismatch",
    "QueryServer",
    "RemoteConnection",
    "RemoteCursor",
    "RemoteError",
    "RemotePreparedStatement",
    "RemoteSession",
    "RemoteView",
    "ServerBusy",
    "ServerConfig",
    "ServerStats",
    "ServiceError",
    "ServiceTimeout",
    "ViewChange",
    "connect",
]
