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
  (:mod:`repro.service.protocol`) and spawns one task per request, so slow
  queries never block fast ones on the same connection;
* a **writer queue** serializes every outbound frame (responses *and*
  notification pushes) through a single drain task -- the only place that
  touches the asyncio writer;
* engine work runs in a bounded thread pool via ``run_in_executor``; the
  event loop itself never evaluates a query, so handshakes, status probes
  and cancellations stay responsive under load.

Sessions are **multiplexed**: one connection opens any number of logical
sessions (``open_session``), each with its own stats attribution and its own
cursor/statement/view registries.  View subscriptions push ``notify`` frames
when commits change a materialized result; the listener fires on whatever
thread committed, and hops onto the event loop with
``call_soon_threadsafe`` -- the one cross-thread entry point asyncio
guarantees.

Admission control is three independent gates, all answering with the typed
``SERVER_BUSY`` error rather than queueing unboundedly or hanging:

* ``max_sessions`` -- server-wide cap on open logical sessions;
* ``max_inflight`` -- per-session cap on concurrently executing requests;
* ``max_queue_depth`` -- server-wide cap on engine work queued or running
  in the thread pool.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

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
from ..obs.metrics import METRICS
from ..obs.trace import TRACER
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    ServerBusy,
    ServiceError,
    error_payload,
    negotiate,
    read_frame_async,
    write_frame_async,
)

SERVER_NAME = "repro-service/1"


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
    #: its per-query span entirely; setting it enables the process tracer
    #: so logged entries carry the route decision and hottest plan nodes.
    slow_query_s: Optional[float] = None


@dataclass
class ServerStats:
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

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


@dataclass
class _SessionState:
    """One logical session: the api Session plus its wire-handle registries."""

    sid: str
    session: Session
    conn: "_Connection"
    backend: Optional[str]
    inflight: int = 0
    next_handle: int = 0
    cursors: dict = field(default_factory=dict)
    statements: dict = field(default_factory=dict)
    views: dict = field(default_factory=dict)  # vid -> (view, listener|None)
    closed: bool = False

    def handle(self, prefix: str) -> str:
        self.next_handle += 1
        return f"{prefix}{self.next_handle}"


class _Connection:
    """Per-connection state: the writer queue and the sessions it opened."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.out: asyncio.Queue = asyncio.Queue()
        self.sessions: dict[str, _SessionState] = {}
        self.tasks: set = set()
        self.closing = False

    def push(self, frame: dict) -> None:
        """Enqueue a frame for the drain task (event-loop thread only)."""
        if not self.closing:
            self.out.put_nowait(frame)


class QueryServer:
    """A network front end over one engine and (optionally) one database."""

    def __init__(
        self,
        db: Optional[Database] = None,
        backend: str = "vectorized",
        sigma: Signature = EMPTY_SIGMA,
        rules=None,
        engine: Optional[Engine] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.db = db
        self.config = config if config is not None else ServerConfig()
        self.engine = engine if engine is not None else Engine(
            sigma=sigma, rules=rules, backend=backend
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
            st.closed = True
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
        with self._lock:
            self.stats.connections_opened += 1
        drain = asyncio.create_task(self._drain_writer(conn))
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
                    conn.push({"id": None, "ok": False, "error": error_payload(exc)})
                    break
                if frame is None:
                    break
                task = asyncio.create_task(self._serve_request(conn, frame))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
        except asyncio.CancelledError:
            pass  # server shutdown; fall through to cleanup, end uncancelled
        finally:
            for task in list(conn.tasks):
                task.cancel()
            for sid in list(conn.sessions):
                st = conn.sessions.pop(sid)
                with self._lock:
                    self._sessions.pop(sid, None)
                self._close_session_state(st)
            conn.closing = True
            conn.out.put_nowait(None)  # unblock + stop the drain task
            try:
                await drain
            except asyncio.CancelledError:
                drain.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            with self._lock:
                self.stats.connections_closed += 1

    async def _drain_writer(self, conn: _Connection) -> None:
        while True:
            frame = await conn.out.get()
            if frame is None:
                return
            try:
                await write_frame_async(
                    conn.writer, frame, self.config.max_frame_bytes
                )
            except (ConnectionError, OSError):
                conn.closing = True
                return

    async def _handshake(self, conn: _Connection, reader) -> bool:
        try:
            frame = await read_frame_async(reader, self.config.max_frame_bytes)
        except ProtocolError as exc:
            conn.push({"id": None, "ok": False, "error": error_payload(exc)})
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
        except ProtocolError as exc:
            conn.push({"id": rid, "ok": False, "error": error_payload(exc)})
            return False
        conn.push({
            "id": rid,
            "ok": True,
            "protocol": list(version),
            "server": SERVER_NAME,
            "db": self.db.name if self.db is not None else None,
            "schema": self._schema_payload(),
            "backend": self.engine.backend,
            "max_frame_bytes": self.config.max_frame_bytes,
        })
        return True

    def _schema_payload(self) -> dict:
        if self.db is None:
            return {}
        return {name: format_type(t) for name, t in self.db.schema().items()}

    # -- request dispatch ---------------------------------------------------------

    async def _serve_request(self, conn: _Connection, frame: dict) -> None:
        rid = frame.get("id")
        op = frame.get("op")
        handler = self._HANDLERS.get(op)
        try:
            if handler is None:
                raise ServiceError(f"unknown op {op!r}")
            result = await handler(self, conn, frame)
            response = {"id": rid, "ok": True}
            response.update(result)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            with self._lock:
                if isinstance(exc, ServerBusy):
                    self.stats.busy_rejections += 1
                else:
                    self.stats.errors += 1
            payload = error_payload(exc)
            if handler is None:
                payload["code"] = "UNKNOWN_OP"
            response = {"id": rid, "ok": False, "error": payload}
        conn.push(response)

    def _state(self, conn: _Connection, frame: dict) -> _SessionState:
        sid = frame.get("session")
        st = conn.sessions.get(sid)
        if st is None:
            raise KeyError(f"unknown session {sid!r}")
        return st

    async def _offload(self, fn):
        """Run engine-bound work on the pool, gated by queue depth."""
        with self._lock:
            if self._queue_depth >= self.config.max_queue_depth:
                raise ServerBusy(
                    f"work queue is full ({self.config.max_queue_depth} deep); "
                    "retry later"
                )
            self._queue_depth += 1
        try:
            # Run under a copy of the calling task's context so tracer
            # spans opened around the await parent spans opened inside
            # the executor thread (contextvars do not cross threads).
            ctx = contextvars.copy_context()
            return await self._loop.run_in_executor(self._executor, ctx.run, fn)
        finally:
            with self._lock:
                self._queue_depth -= 1

    async def _offload_query(self, st: _SessionState, label: str, fn):
        """Offload a query, feeding the slow-query log when armed."""
        threshold = self.config.slow_query_s
        if threshold is None:
            return await self._offload(fn)
        with TRACER.span("request", query=label, session=st.sid) as span:
            t0 = perf_counter()
            result = await self._offload(fn)
            seconds = perf_counter() - t0
        if seconds >= threshold:
            self._record_slow(st, label, seconds, span)
        return result

    def _record_slow(self, st, label: str, seconds: float, span) -> None:
        entry = {
            "query": label,
            "session": st.sid,
            "seconds": seconds,
        }
        query_span = span.find("query") if hasattr(span, "find") else None
        if query_span is not None:
            entry["route"] = {
                k: query_span.attrs[k]
                for k in ("backend", "route", "shards")
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
        return {
            f"repro_service_{f}_total": getattr(self.stats, f)
            for f in self.stats.__dataclass_fields__
        }

    def _admit(self, st: _SessionState) -> None:
        with self._lock:
            if st.inflight >= self.config.max_inflight:
                raise ServerBusy(
                    f"session {st.sid} already has {st.inflight} queries in "
                    f"flight (cap {self.config.max_inflight}); retry later"
                )
            st.inflight += 1

    def _release(self, st: _SessionState) -> None:
        with self._lock:
            st.inflight -= 1

    # -- ops: sessions ------------------------------------------------------------

    async def _op_ping(self, conn, frame) -> dict:
        return {}

    async def _op_open_session(self, conn, frame) -> dict:
        backend = frame.get("backend")
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
        st = _SessionState(sid=sid, session=session, conn=conn, backend=backend)
        with self._lock:
            self._sessions[sid] = st
        conn.sessions[sid] = st
        return {"session": sid, "backend": backend or self.engine.backend}

    async def _op_close_session(self, conn, frame) -> dict:
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

    def _shipped(self, st: _SessionState, frame: dict) -> tuple:
        """(template, slot types, defaults, label, backend) as the client split them.

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
            frame.get("backend", st.backend),
        )

    def _cursor_reply(self, st: _SessionState, cursor: Cursor, chunk: int) -> dict:
        values = cursor.fetch_values(chunk)
        done = cursor.rownumber >= len(cursor)
        reply = {
            "total": len(cursor),
            "scalar": not isinstance(cursor.value, SetVal),
            "rows": [to_jsonable(v) for v in values],
            "done": done,
        }
        with self._lock:
            self.stats.queries += 1
            self.stats.rows_streamed += len(values)
        if not done:
            cid = st.handle("c")
            st.cursors[cid] = cursor
            reply["cursor"] = cid
        return reply

    async def _op_execute(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        chunk = int(frame.get("chunk", self.config.chunk_rows))
        params = self._decode_params(frame)
        self._admit(st)
        try:
            def work() -> Cursor:
                if frame.get("param_types"):
                    ps = PreparedStatement(st.session, *self._shipped(st, frame))
                    return ps.execute(params=params)
                template = parse(frame["query"])
                return st.session.execute(
                    template, params=params,
                    backend=frame.get("backend", st.backend),
                )

            cursor = await self._offload_query(
                st, frame.get("query", "execute"), work)
        finally:
            self._release(st)
        return self._cursor_reply(st, cursor, chunk)

    async def _op_prepare(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        self._admit(st)
        try:
            ps = await self._offload(
                lambda: st.session.prepare_template(*self._shipped(st, frame)))
        finally:
            self._release(st)
        pid = st.handle("p")
        st.statements[pid] = ps
        return {
            "statement": pid,
            "params": {n: format_type(t) for n, t in ps.param_types.items()},
            "label": ps.label,
        }

    async def _op_execute_statement(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        ps = st.statements.get(frame.get("statement"))
        if ps is None:
            raise KeyError(f"unknown statement {frame.get('statement')!r}")
        chunk = int(frame.get("chunk", self.config.chunk_rows))
        params = self._decode_params(frame)
        self._admit(st)
        try:
            cursor = await self._offload_query(
                st, ps.label, lambda: ps.execute(params=params))
        finally:
            self._release(st)
        return self._cursor_reply(st, cursor, chunk)

    async def _op_close_statement(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        st.statements.pop(frame.get("statement"), None)
        return {}

    async def _op_fetch(self, conn, frame) -> dict:
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

    async def _op_close_cursor(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        st.cursors.pop(frame.get("cursor"), None)
        return {}

    # -- ops: materialized views and updates --------------------------------------

    async def _op_materialize(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        params = self._decode_params(frame)
        name = frame.get("name")
        subscribe = bool(frame.get("subscribe", True))
        self._admit(st)
        try:
            def work():
                if frame.get("param_types"):
                    runnable = PreparedStatement(st.session, *self._shipped(st, frame))
                else:
                    runnable = parse(frame["query"])
                return st.session.materialize(runnable, name=name, params=params)

            view = await self._offload(work)
        finally:
            self._release(st)
        vid = st.handle("v")
        listener = None
        if subscribe:
            listener = self._make_listener(conn, st.sid, vid)
            view.add_listener(listener)
        st.views[vid] = (view, listener)
        return {
            "view": vid,
            "name": view.name,
            "rows": len(view),
            "plan": str(view.maintenance_plan()),
        }

    def _make_listener(self, conn: _Connection, sid: str, vid: str):
        loop = self._loop

        def listener(view, delta, fallback: bool) -> None:
            # Fires on the committing thread; encode there, enqueue on the
            # loop.  Transport errors must not fail the commit.
            frame = {
                "push": "notify",
                "session": sid,
                "view": vid,
                "name": view.name,
                "inserted": [to_jsonable(v) for v in delta.inserted],
                "deleted": [to_jsonable(v) for v in delta.deleted],
                "fallback": fallback,
                "size": len(view),
            }
            with self._lock:
                self.stats.notifications += 1
            try:
                loop.call_soon_threadsafe(conn.push, frame)
            except RuntimeError:
                pass  # loop shut down while a commit was in flight

        return listener

    def _view_of(self, st: _SessionState, frame: dict):
        vid = frame.get("view")
        entry = st.views.get(vid)
        if entry is None:
            raise KeyError(f"unknown view {vid!r}")
        return vid, entry

    async def _op_view_rows(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        _, (view, _) = self._view_of(st, frame)
        # A read renders what the commits since the last one left pending,
        # under the engine lock: pool work, not the event loop's.
        values = (await self._offload(lambda: view.value)).elements
        with self._lock:
            self.stats.rows_streamed += len(values)
        return {
            "name": view.name,
            "rows": [to_jsonable(v) for v in values],
        }

    async def _op_close_view(self, conn, frame) -> dict:
        st = self._state(conn, frame)
        vid, (view, listener) = self._view_of(st, frame)
        if listener is not None:
            view.remove_listener(listener)
        st.views.pop(vid, None)
        view.close()
        return {"closed": vid}

    async def _op_insert(self, conn, frame) -> dict:
        return await self._mutate(conn, frame, "insert")

    async def _op_delete(self, conn, frame) -> dict:
        return await self._mutate(conn, frame, "delete")

    async def _mutate(self, conn, frame, how: str) -> dict:
        st = self._state(conn, frame)
        if self.db is None:
            raise RuntimeError("server has no database to mutate")
        collection = frame.get("collection")
        rows = [from_jsonable(obj) for obj in frame.get("rows", [])]
        self._admit(st)
        try:
            def work():
                mutate = self.db.insert if how == "insert" else self.db.delete
                changeset = mutate(collection, rows)
                return len(changeset[collection].inserts) if collection in changeset \
                    else 0, self.db.version

            applied, version = await self._offload(work)
        finally:
            self._release(st)
        return {"applied": applied, "version": version}

    # -- ops: introspection -------------------------------------------------------

    async def _op_status(self, conn, frame) -> dict:
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

    async def _op_sessions(self, conn, frame) -> dict:
        with self._lock:
            states = list(self._sessions.values())
        rows = []
        for st in states:
            rows.append({
                "session": st.sid,
                "backend": st.backend or self.engine.backend,
                "inflight": st.inflight,
                "cursors": len(st.cursors),
                "statements": len(st.statements),
                "views": len(st.views),
                "stats": st.session.stats.as_dict(),
            })
        return {"sessions": rows}

    async def _op_views(self, conn, frame) -> dict:
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

    async def _op_schema(self, conn, frame) -> dict:
        return {"schema": self._schema_payload()}

    async def _op_metrics(self, conn, frame) -> dict:
        reply: dict = {"metrics": METRICS.as_dict()}
        if frame.get("format") == "prometheus":
            reply["prometheus"] = METRICS.render_prometheus()
        with self._lock:
            reply["slow_queries"] = list(self.slow_queries)
        reply["slow_query_s"] = self.config.slow_query_s
        return reply

    async def _op_trace(self, conn, frame) -> dict:
        """Execute one query with tracing forced on; reply carries the tree."""
        st = self._state(conn, frame)
        chunk = int(frame.get("chunk", self.config.chunk_rows))
        params = self._decode_params(frame)
        self._admit(st)
        prev = TRACER.enabled
        TRACER.enable()
        try:
            def work() -> Cursor:
                template = parse(frame["query"])
                return st.session.execute(
                    template, params=params,
                    backend=frame.get("backend", st.backend),
                )

            with TRACER.span(
                "request", query=frame.get("query"), session=st.sid,
            ) as span:
                cursor = await self._offload(work)
        finally:
            # Restore the steady state: on only if the slow-query log (or
            # someone else before us) had armed the tracer.
            if not (prev or self.config.slow_query_s is not None):
                TRACER.disable()
            self._release(st)
        reply = self._cursor_reply(st, cursor, chunk)
        reply["trace"] = span.as_dict()
        reply["rendered"] = span.render()
        return reply

    _HANDLERS = {
        "ping": _op_ping,
        "open_session": _op_open_session,
        "close_session": _op_close_session,
        "execute": _op_execute,
        "prepare": _op_prepare,
        "execute_statement": _op_execute_statement,
        "close_statement": _op_close_statement,
        "fetch": _op_fetch,
        "close_cursor": _op_close_cursor,
        "materialize": _op_materialize,
        "view_rows": _op_view_rows,
        "close_view": _op_close_view,
        "insert": _op_insert,
        "delete": _op_delete,
        "status": _op_status,
        "sessions": _op_sessions,
        "views": _op_views,
        "schema": _op_schema,
        "metrics": _op_metrics,
        "trace": _op_trace,
    }
