"""The asyncio query server: sessions, cursors and views over the wire.

:class:`QueryServer` puts a TCP front on the in-process API layer
(:mod:`repro.api`) without re-implementing any of it: every wire session is
a real :class:`~repro.api.session.Session`, every wire cursor a real
:class:`~repro.api.cursor.Cursor`, every standing query a real
:class:`~repro.engine.incremental.view.MaterializedView`.  All sessions
share the server's one :class:`~repro.engine.Engine`, so the plan caches,
intern table and join indexes amortize across *clients*, exactly as they
amortize across threads in-process -- the point the `service-queries-per-sec`
benchmark measures.

Architecture (one connection):

* a **frame reader** coroutine pulls length-prefixed JSON frames
  (:mod:`repro.service.protocol`) and dispatches each one synchronously --
  no task per request;
* **loop ops** (handshake, sessions, ``fetch``, the ``close_*`` ops and the
  introspection ops) run inline on the event loop, and their reply is
  encoded and written at once;
* **engine ops** (``execute``, ``execute_statement``, ``prepare``,
  ``materialize``, ``view_rows``, ``insert``/``delete``, ``trace``) pass the
  admission gates on the loop and become one job on a bounded thread pool.
  The job does the whole request -- decode, run, first chunk, handle
  registration, frame encode -- and hands the loop only bytes, with one
  ``call_soon_threadsafe``.  The event loop never evaluates a query, so
  handshakes, status probes and cancellations stay responsive under load,
  and a slow query never blocks a fast one on the same connection.

Sessions are **multiplexed**: one connection opens any number of logical
sessions (``open_session``), each with its own stats attribution and its own
cursor/statement/view registries.  View subscriptions push ``notify`` frames
when commits change a materialized result; the listener fires on whatever
thread committed, encodes the frame there, and hands the bytes to the event
loop with ``call_soon_threadsafe`` -- the one cross-thread entry point
asyncio guarantees.

Admission control is three independent gates, all answering with the typed
``SERVER_BUSY`` error rather than queueing unboundedly or hanging:

* ``max_sessions`` -- server-wide cap on open logical sessions;
* ``max_inflight`` -- per-session cap on concurrently executing requests;
* ``max_queue_depth`` -- server-wide cap on engine work queued or running
  in the thread pool.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from ..api.catalog import Database
from ..api.cursor import Cursor
from ..api.prepare import PreparedStatement
from ..api.session import Session
from ..engine.engine import Engine
from ..nra.externals import EMPTY_SIGMA, Signature
from ..nra.parser import parse
from ..objects.encoding import from_jsonable, to_jsonable
from ..objects.types import format_type, parse_type
from ..objects.values import SetVal
from ..obs.metrics import METRICS, Counters
from ..obs.trace import TRACER
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameTooLarge,
    ProtocolError,
    ServerBusy,
    UnknownOp,
    encode_frame,
    error_payload,
    negotiate,
    read_frame_async,
)

SERVER_NAME = "repro-service/1"

#: Largest ``recv`` an accepted connection makes.  asyncio's socket transport
#: asks for 256 KiB per readable event, above glibc's 128 KiB mmap threshold,
#: so every request would map and unmap a fresh block; a request frame is a
#: few hundred bytes, and a larger one is read in several reads.
READ_BYTES = 64 * 1024


@dataclass
class ServerConfig:
    """Tunables for one :class:`QueryServer`; defaults suit tests and demos."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; read QueryServer.port after start
    max_sessions: int = 32
    max_inflight: int = 4
    max_queue_depth: int = 64
    max_frame_bytes: int = MAX_FRAME_BYTES
    chunk_rows: int = 512
    workers: int = 4
    #: Slow-query log threshold (seconds).  ``None`` disables the log and
    #: its per-request span entirely; setting it enables the process tracer
    #: so logged entries carry the route decision and hottest plan nodes.
    slow_query_s: Optional[float] = None


@dataclass(slots=True)
class ServerStats(Counters):
    """Server-wide counters; mutate only under the server lock."""

    connections_opened: int = 0
    connections_closed: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    queries: int = 0
    rows_streamed: int = 0
    notifications: int = 0
    busy_rejections: int = 0
    errors: int = 0


@dataclass
class _SessionState:
    """One logical session: the api Session plus its wire-handle registries."""

    sid: str
    session: Session
    conn: "_Connection"
    inflight: int = 0
    next_handle: int = 0
    cursors: dict = field(default_factory=dict)
    statements: dict = field(default_factory=dict)
    views: dict = field(default_factory=dict)  # vid -> (view, listener|None)
    closed: bool = False

    def handle(self, prefix: str) -> str:
        """A fresh handle name (call under the server lock)."""
        self.next_handle += 1
        return f"{prefix}{self.next_handle}"


class _Connection:
    """Per-connection state: the stream writer and the sessions it opened."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.sessions: dict[str, _SessionState] = {}
        self.closing = False

    def send(self, data: bytes) -> None:
        """Write one encoded frame (event-loop thread only); dropped once closing."""
        if not self.closing:
            self.writer.write(data)


class QueryServer:
    """A network front end over one engine and (optionally) one database."""

    def __init__(
        self,
        db: Optional[Database] = None,
        backend: str = "vectorized",
        sigma: Signature = EMPTY_SIGMA,
        engine: Optional[Engine] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.db = db
        self.config = config if config is not None else ServerConfig()
        self.engine = engine if engine is not None else Engine(
            sigma=sigma, backend=backend
        )
        self.stats = ServerStats()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        #: Bounded slow-query log (newest last); served by the ``metrics``
        #: op.  Armed by ``ServerConfig.slow_query_s``, which also turns
        #: the process tracer on so entries carry real span trees.
        self.slow_queries: deque = deque(maxlen=64)
        if self.config.slow_query_s is not None:
            TRACER.enable()
        METRICS.register_collector(self._metrics_sample)
        self._lock = threading.Lock()
        self._sessions: dict[str, _SessionState] = {}
        self._next_sid = 0
        self._queue_depth = 0
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-service"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------------

    async def serve(self) -> None:
        """Bind, accept and serve until :meth:`stop` (or task cancellation)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        addr = server.sockets[0].getsockname()
        self.host, self.port = addr[0], addr[1]
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            self._shutdown_sessions()
            self._executor.shutdown(wait=False)

    def start_in_thread(self) -> tuple[str, int]:
        """Run the server on a daemon thread; returns the bound (host, port).

        The shape tests, benchmarks and the in-process demo use: the caller
        keeps its thread, the server keeps its event loop, and :meth:`stop`
        joins cleanly.
        """
        if self._thread is not None:
            raise RuntimeError("server already started")

        def run() -> None:
            try:
                asyncio.run(self.serve())
            except BaseException as exc:  # surface bind errors to the caller
                self._startup_error = exc
                self._ready.set()

        self._thread = threading.Thread(
            target=run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if self.port is None:
            raise RuntimeError("server did not become ready within 10s")
        return self.host, self.port

    def stop(self, timeout: float = 10.0) -> None:
        """Signal shutdown and (for threaded servers) join the loop thread."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not stop in time")
            self._thread = None

    def _shutdown_sessions(self) -> None:
        with self._lock:
            states = list(self._sessions.values())
            self._sessions.clear()
        for st in states:
            self._close_session_state(st)

    def _close_session_state(self, st: _SessionState) -> None:
        with self._lock:
            if st.closed:
                return  # shutdown and connection teardown can both get here
            st.closed = True  # from here on no job registers a handle in st
        for view, listener in list(st.views.values()):
            if listener is not None:
                view.remove_listener(listener)
        st.views.clear()
        st.cursors.clear()
        st.statements.clear()
        st.session.close()
        with self._lock:
            self.stats.sessions_closed += 1

    # -- connection handling ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        writer.transport.max_size = READ_BYTES
        with self._lock:
            self.stats.connections_opened += 1
        try:
            if not await self._handshake(conn, reader):
                return
            while True:
                try:
                    frame = await read_frame_async(
                        reader, self.config.max_frame_bytes
                    )
                except ProtocolError as exc:
                    # The stream cannot be resynchronized after a framing
                    # error; report and hang up.
                    conn.send(self._error(None, exc))
                    break
                if frame is None:
                    break
                self._dispatch(conn, frame)
                # Backpressure: stop reading requests while the peer is not
                # reading replies.
                await writer.drain()
        except (asyncio.CancelledError, ConnectionError):
            pass  # server shutdown or peer reset; clean up, end uncancelled
        finally:
            for sid in list(conn.sessions):
                st = conn.sessions.pop(sid)
                with self._lock:
                    self._sessions.pop(sid, None)
                self._close_session_state(st)
            conn.closing = True  # replies of jobs still running are dropped
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            with self._lock:
                self.stats.connections_closed += 1

    async def _handshake(self, conn: _Connection, reader) -> bool:
        try:
            frame = await read_frame_async(reader, self.config.max_frame_bytes)
        except ProtocolError as exc:
            conn.send(self._error(None, exc))
            return False
        if frame is None:
            return False
        rid = frame.get("id")
        try:
            if frame.get("op") != "hello":
                raise ProtocolError(
                    f"first frame must be op 'hello', got {frame.get('op')!r}"
                )
            version = negotiate(frame.get("protocol"))
            conn.send(encode_frame({
                "id": rid,
                "ok": True,
                "protocol": list(version),
                "server": SERVER_NAME,
                "db": self.db.name if self.db is not None else None,
                "schema": self._schema_payload(),
                "backend": self.engine.backend,
                "max_frame_bytes": self.config.max_frame_bytes,
            }, self.config.max_frame_bytes))
        except ProtocolError as exc:  # FrameTooLarge included
            conn.send(self._error(rid, exc))
            return False
        return True

    def _schema_payload(self) -> dict:
        if self.db is None:
            return {}
        return {name: format_type(t) for name, t in self.db.schema().items()}

    # -- request dispatch ---------------------------------------------------------

    def _dispatch(self, conn: _Connection, frame: dict) -> None:
        """Serve one request: a loop op inline, an engine op as one pool job."""
        rid = frame.get("id")
        op = frame.get("op")
        try:
            job = self._JOBS.get(op)
            if job is not None:
                self._submit(conn, frame, job)
                return
            handler = self._LOOP_OPS.get(op)
            if handler is None:
                raise UnknownOp(f"unknown op {op!r}")
            data = self._reply(conn, frame, handler(self, conn, frame))
        except Exception as exc:
            data = self._error(rid, exc)
        conn.send(data)

    def _submit(self, conn: _Connection, frame: dict, job) -> None:
        """Admit an engine op (both work gates, on the loop) and queue its job."""
        st = self._state(conn, frame)
        with self._lock:
            if st.inflight >= self.config.max_inflight:
                raise ServerBusy(
                    f"session {st.sid} already has {st.inflight} queries in "
                    f"flight (cap {self.config.max_inflight}); retry later"
                )
            if self._queue_depth >= self.config.max_queue_depth:
                raise ServerBusy(
                    f"work queue is full ({self.config.max_queue_depth} deep); "
                    "retry later"
                )
            st.inflight += 1
            self._queue_depth += 1
        self._executor.submit(self._run_job, conn, st, frame, job, perf_counter())

    def _release(self, st: _SessionState) -> None:
        with self._lock:
            st.inflight -= 1
            self._queue_depth -= 1

    def _run_job(self, conn: _Connection, st: _SessionState, frame: dict,
                 job, submitted: float) -> None:
        """One engine op start to finish, on a pool worker; the loop gets bytes."""
        rid = frame.get("id")
        try:
            if frame.get("op") == "trace" or self.config.slow_query_s is not None:
                result = self._traced(conn, st, frame, job, submitted)
            else:
                result = job(self, conn, st, frame)
            data = self._reply(conn, frame, result)
        except Exception as exc:
            data = self._error(rid, exc)
        finally:
            self._release(st)
        try:
            self._loop.call_soon_threadsafe(conn.send, data)
        except RuntimeError:
            pass  # the loop shut down while the job ran

    def _traced(self, conn: _Connection, st: _SessionState, frame: dict,
                job, submitted: float) -> dict:
        """A job under a ``request`` span: ``trace`` forces the tracer on for
        this request and replies with the tree; an armed slow-query log
        records requests over its threshold, pool-queue wait included."""
        forced = frame.get("op") == "trace"
        prev = TRACER.enabled
        if forced:
            TRACER.enable()
        ps = st.statements.get(frame.get("statement"))
        label = ps.label if ps is not None else frame.get("query", frame.get("op"))
        started = perf_counter()
        try:
            with TRACER.span("request", query=label, session=st.sid,
                             queue_wait_s=started - submitted) as span:
                result = job(self, conn, st, frame)
        finally:
            # Restore the steady state: on only if the slow-query log (or
            # someone else before us) had armed the tracer.
            if forced and not (prev or self.config.slow_query_s is not None):
                TRACER.disable()
        seconds = perf_counter() - submitted
        if forced:
            result["trace"] = span.as_dict()
            result["rendered"] = span.render()
        threshold = self.config.slow_query_s
        if threshold is not None and seconds >= threshold:
            self._record_slow(st, label, seconds, started - submitted, span)
        return result

    def _reply(self, conn: _Connection, frame: dict, result: dict) -> bytes:
        """Encode one ok reply; an oversized one becomes ``FRAME_TOO_LARGE``.

        The client never learns the handles an undeliverable reply names,
        so they are closed here rather than left in the registries.
        """
        response = {"id": frame.get("id"), "ok": True}
        response.update(result)
        try:
            return encode_frame(response, self.config.max_frame_bytes)
        except FrameTooLarge as exc:
            for key, close in self._HANDLE_CLOSERS:
                if key in result:
                    with suppress(KeyError):  # its session closed meanwhile
                        close(self, conn,
                              {"session": frame.get("session"), key: result[key]})
            return self._error(frame.get("id"), exc)

    def _error(self, rid, exc: Exception) -> bytes:
        """A failed request's error reply, counted in the server stats."""
        with self._lock:
            if isinstance(exc, ServerBusy):
                self.stats.busy_rejections += 1
            else:
                self.stats.errors += 1
        payload = error_payload(exc)
        try:
            return encode_frame({"id": rid, "ok": False, "error": payload},
                                self.config.max_frame_bytes)
        except FrameTooLarge:  # a message quoting a huge request
            payload["message"] = payload["message"][:128] + "..."
            return encode_frame({"id": rid, "ok": False, "error": payload},
                                self.config.max_frame_bytes)

    def _state(self, conn: _Connection, frame: dict) -> _SessionState:
        sid = frame.get("session")
        st = conn.sessions.get(sid)
        if st is None:
            raise KeyError(f"unknown session {sid!r}")
        return st

    def _register(self, st: _SessionState, prefix: str, registry: dict, obj) -> str:
        """File ``obj`` under a fresh handle, unless ``st`` has closed meanwhile."""
        with self._lock:
            if st.closed:
                raise RuntimeError("session is closed")
            handle = st.handle(prefix)
            registry[handle] = obj
        return handle

    def _record_slow(self, st, label: str, seconds: float, queue_wait_s: float,
                     span) -> None:
        entry = {
            "query": label,
            "session": st.sid,
            "seconds": seconds,
            "queue_wait_s": queue_wait_s,
        }
        query_span = span.find("query") if hasattr(span, "find") else None
        if query_span is not None:
            entry["route"] = {
                k: query_span.attrs[k]
                for k in ("backend", "route")
                if k in query_span.attrs
            }
        if hasattr(span, "hottest"):
            entry["hot_nodes"] = [
                {"name": s.name, "seconds": s.seconds, "attrs": dict(s.attrs)}
                for s in span.hottest(3)
            ]
        with self._lock:
            self.slow_queries.append(entry)

    def _metrics_sample(self) -> dict:
        """Scrape-time collector: server counters as prometheus names."""
        return self.stats.sample("service")

    # -- ops: sessions ------------------------------------------------------------

    def _op_ping(self, conn, frame) -> dict:
        return {}

    def _op_open_session(self, conn, frame) -> dict:
        backend = frame.get("backend")
        if backend is not None and backend != self.engine.backend:
            # Protocol 1.0 clients could ask for a per-session backend; this
            # server runs every session on its engine's.
            raise ProtocolError(
                f"this server runs backend {self.engine.backend!r} for every "
                f"session; open_session asked for {backend!r}"
            )
        with self._lock:
            if len(self._sessions) >= self.config.max_sessions:
                raise ServerBusy(
                    f"session cap reached ({self.config.max_sessions}); "
                    "close a session or retry later"
                )
            self._next_sid += 1
            sid = f"s{self._next_sid}"
            self.stats.sessions_opened += 1
        session = Session(db=self.db, engine=self.engine)
        st = _SessionState(sid=sid, session=session, conn=conn)
        with self._lock:
            self._sessions[sid] = st
        conn.sessions[sid] = st
        return {"session": sid}

    def _op_close_session(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        conn.sessions.pop(st.sid, None)
        with self._lock:
            self._sessions.pop(st.sid, None)
        self._close_session_state(st)
        return {"closed": st.sid}

    # -- ops: queries and cursors -------------------------------------------------

    def _decode_params(self, frame: dict) -> dict:
        return {
            name: from_jsonable(obj)
            for name, obj in (frame.get("params") or {}).items()
        }

    def _shipped(self, frame: dict) -> tuple:
        """(template, slot types, defaults, label) as the client split them.

        The arguments of ``Session.prepare_template`` -- which only the
        ``prepare`` op calls -- and of ``PreparedStatement(session, ...)``:
        ``execute`` and ``materialize`` run such a statement and drop it, so
        ad-hoc requests leave nothing registered in the session.
        """
        return (
            parse(frame["query"]),
            {
                name: parse_type(text)
                for name, text in (frame.get("param_types") or {}).items()
            },
            {
                name: from_jsonable(obj)
                for name, obj in (frame.get("defaults") or {}).items()
            },
            frame.get("label", "remote"),
        )

    def _cursor_reply(self, st: _SessionState, cursor: Cursor, frame: dict) -> dict:
        values = cursor.fetch_values(int(frame.get("chunk", self.config.chunk_rows)))
        done = cursor.rownumber >= len(cursor)
        reply = {
            "total": len(cursor),
            "scalar": not isinstance(cursor.value, SetVal),
            "rows": [to_jsonable(v) for v in values],
            "done": done,
        }
        if not done:
            reply["cursor"] = self._register(st, "c", st.cursors, cursor)
        with self._lock:
            self.stats.queries += 1
            self.stats.rows_streamed += len(values)
        return reply

    def _job_execute(self, conn, st, frame) -> dict:
        """``execute`` and ``trace``: run a shipped query, reply with its first chunk."""
        params = self._decode_params(frame)
        if frame.get("param_types"):
            ps = PreparedStatement(st.session, *self._shipped(frame))
            cursor = ps.execute(params=params)
        else:
            cursor = st.session.execute(parse(frame["query"]), params=params)
        return self._cursor_reply(st, cursor, frame)

    def _job_prepare(self, conn, st, frame) -> dict:
        ps = st.session.prepare_template(*self._shipped(frame))
        return {
            "statement": self._register(st, "p", st.statements, ps),
            "params": {n: format_type(t) for n, t in ps.param_types.items()},
            "label": ps.label,
        }

    def _job_execute_statement(self, conn, st, frame) -> dict:
        ps = st.statements.get(frame.get("statement"))
        if ps is None:
            raise KeyError(f"unknown statement {frame.get('statement')!r}")
        cursor = ps.execute(params=self._decode_params(frame))
        return self._cursor_reply(st, cursor, frame)

    def _op_close_statement(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        st.statements.pop(frame.get("statement"), None)
        return {}

    def _op_fetch(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        cid = frame.get("cursor")
        cursor = st.cursors.get(cid)
        if cursor is None:
            raise KeyError(f"unknown cursor {cid!r}")
        size = int(frame.get("size", self.config.chunk_rows))
        values = cursor.fetch_values(size)
        done = cursor.rownumber >= len(cursor)
        if done:
            st.cursors.pop(cid, None)
        with self._lock:
            self.stats.rows_streamed += len(values)
        return {"rows": [to_jsonable(v) for v in values], "done": done}

    def _op_close_cursor(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        st.cursors.pop(frame.get("cursor"), None)
        return {}

    # -- ops: materialized views and updates --------------------------------------

    def _job_materialize(self, conn, st, frame) -> dict:
        if frame.get("param_types"):
            runnable = PreparedStatement(st.session, *self._shipped(frame))
        else:
            runnable = parse(frame["query"])
        view = st.session.materialize(
            runnable, name=frame.get("name"), params=self._decode_params(frame))
        with self._lock:
            registered = not st.closed
            if registered:
                vid = st.handle("v")
                listener = (self._make_listener(conn, st.sid, vid)
                            if frame.get("subscribe", True) else None)
                st.views[vid] = (view, listener)
        if not registered:  # the session closed while the view was built
            view.close()
            raise RuntimeError("session is closed")
        if listener is not None:
            view.add_listener(listener)
        return {
            "view": vid,
            "name": view.name,
            "rows": len(view),
            "plan": str(view.maintenance_plan()),
        }

    def _make_listener(self, conn: _Connection, sid: str, vid: str):
        loop = self._loop

        def listener(view, delta, fallback: bool) -> None:
            # Fires on the committing thread; encode there, hand the loop
            # bytes.  Transport errors must not fail the commit.
            try:
                data = encode_frame({
                    "push": "notify",
                    "session": sid,
                    "view": vid,
                    "name": view.name,
                    "inserted": [to_jsonable(v) for v in delta.inserted],
                    "deleted": [to_jsonable(v) for v in delta.deleted],
                    "fallback": fallback,
                    "size": len(view),
                }, self.config.max_frame_bytes)
            except FrameTooLarge:
                with self._lock:
                    self.stats.errors += 1  # a delta too big for one push
                return
            with self._lock:
                self.stats.notifications += 1
            try:
                loop.call_soon_threadsafe(conn.send, data)
            except RuntimeError:
                pass  # loop shut down while a commit was in flight

        return listener

    def _view_of(self, st: _SessionState, frame: dict):
        vid = frame.get("view")
        entry = st.views.get(vid)
        if entry is None:
            raise KeyError(f"unknown view {vid!r}")
        return vid, entry

    def _job_view_rows(self, conn, st, frame) -> dict:
        _, (view, _) = self._view_of(st, frame)
        # A read renders what the commits since the last one left pending,
        # under the engine lock: pool work, not the event loop's.
        values = view.value.elements
        with self._lock:
            self.stats.rows_streamed += len(values)
        return {
            "name": view.name,
            "rows": [to_jsonable(v) for v in values],
        }

    def _op_close_view(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        vid, (view, listener) = self._view_of(st, frame)
        if listener is not None:
            view.remove_listener(listener)
        st.views.pop(vid, None)
        view.close()
        return {"closed": vid}

    def _job_mutate(self, conn, st, frame) -> dict:
        """``insert`` and ``delete``: one commit; every view is maintained before it returns."""
        if self.db is None:
            raise RuntimeError("server has no database to mutate")
        collection = frame.get("collection")
        rows = [from_jsonable(obj) for obj in frame.get("rows", [])]
        mutate = self.db.insert if frame.get("op") == "insert" else self.db.delete
        changeset = mutate(collection, rows)
        applied = len(changeset[collection].inserts) if collection in changeset else 0
        return {"applied": applied, "version": self.db.version}

    # -- ops: introspection -------------------------------------------------------

    def _op_status(self, conn, frame) -> dict:
        with self._lock:
            stats = self.stats.as_dict()
            sessions = len(self._sessions)
            queue_depth = self._queue_depth
            inflight = sum(s.inflight for s in self._sessions.values())
        return {
            "server": SERVER_NAME,
            "protocol": list(PROTOCOL_VERSION),
            "db": self.db.name if self.db is not None else None,
            "db_version": self.db.version if self.db is not None else None,
            "backend": self.engine.backend,
            "sessions": sessions,
            "max_sessions": self.config.max_sessions,
            "inflight": inflight,
            "max_inflight": self.config.max_inflight,
            "queue_depth": queue_depth,
            "max_queue_depth": self.config.max_queue_depth,
            "stats": stats,
            # Adaptive-routing telemetry; null unless the engine has routed
            # (backend="auto" somewhere) since its plans were last cleared.
            "router": self.engine.router_stats(),
        }

    def _op_sessions(self, conn, frame) -> dict:
        with self._lock:
            states = list(self._sessions.values())
        return {"sessions": [{
            "session": st.sid,
            "backend": self.engine.backend,
            "inflight": st.inflight,
            "cursors": len(st.cursors),
            "statements": len(st.statements),
            "views": len(st.views),
            "stats": st.session.stats.as_dict(),
        } for st in states]}

    def _op_views(self, conn, frame) -> dict:
        with self._lock:
            states = list(self._sessions.values())
        rows = []
        for st in states:
            for vid, (view, listener) in list(st.views.items()):
                rows.append({
                    "view": vid,
                    "session": st.sid,
                    "name": view.name,
                    "rows": len(view),
                    "subscribed": listener is not None,
                })
        return {"views": rows}

    def _op_schema(self, conn, frame) -> dict:
        return {"schema": self._schema_payload()}

    def _op_metrics(self, conn, frame) -> dict:
        reply: dict = {"metrics": METRICS.as_dict()}
        if frame.get("format") == "prometheus":
            reply["prometheus"] = METRICS.render_prometheus()
        with self._lock:
            reply["slow_queries"] = list(self.slow_queries)
        reply["slow_query_s"] = self.config.slow_query_s
        return reply

    _LOOP_OPS = {
        "ping": _op_ping,
        "open_session": _op_open_session,
        "close_session": _op_close_session,
        "close_statement": _op_close_statement,
        "fetch": _op_fetch,
        "close_cursor": _op_close_cursor,
        "close_view": _op_close_view,
        "status": _op_status,
        "sessions": _op_sessions,
        "views": _op_views,
        "schema": _op_schema,
        "metrics": _op_metrics,
    }

    _JOBS = {
        "execute": _job_execute,
        "trace": _job_execute,
        "prepare": _job_prepare,
        "execute_statement": _job_execute_statement,
        "materialize": _job_materialize,
        "view_rows": _job_view_rows,
        "insert": _job_mutate,
        "delete": _job_mutate,
    }

    #: Reply fields that name a handle the request created, and the loop op
    #: that frees it (see :meth:`_reply`).
    _HANDLE_CLOSERS = (
        ("session", _op_close_session),
        ("cursor", _op_close_cursor),
        ("statement", _op_close_statement),
        ("view", _op_close_view),
    )
