"""The synchronous client SDK: the in-process API, over a socket.

:func:`connect` opens a :class:`RemoteConnection`; ``conn.session()`` hands
back a :class:`RemoteSession` whose surface mirrors
:class:`~repro.api.session.Session` -- ``execute`` returns a
:class:`RemoteCursor` with ``fetchone``/``fetchmany``/``fetchall``/
iteration, ``prepare`` returns a :class:`RemotePreparedStatement`,
``materialize`` a :class:`RemoteView` that queues change notifications as
commits land server-side::

    with connect(host, port) as conn:
        with conn.session() as s:
            reach = s.prepare(Q.coll("edges").fix().where(
                lambda e: e.fst == Q.param("src")))
            for row in reach.execute(src=0):
                ...

Queries ship as **text**: fluent :class:`~repro.api.query.Q` queries are
elaborated *client-side* against the schema the handshake carried and split
by :func:`~repro.api.prepare.recognize` (the memoized
:func:`~repro.api.prepare.canonical_template`) -- the function the
in-process session uses -- into the canonical template, which travels as NRA
concrete syntax (``parse(pretty(template))`` round-trips, including the
``$``-namespace slots and ``%h`` binders), and the literals, which travel as
the slots' default bindings.  The server therefore sees one text per query
shape, whatever the literals and whichever client built it, never sees
client Python objects, and the wire stays pure JSON.  Raw template *text* is
shipped as written and canonicalized by the server's session.

One background **reader thread** per connection demultiplexes response
frames to their waiting requests by correlation id and routes ``notify``
push frames to the subscribed view's queue -- which is what lets a client
block in ``view.notifications()`` while other threads keep issuing queries
on the same connection.

Server errors re-raise typed: an ``NRATypeError`` over there is an
``NRATypeError`` here, admission refusals are :class:`ServerBusy`, and a
deadline missed waiting for a frame is :class:`ServiceTimeout` (the
connection stays usable).  A timed-out request is *abandoned*, not
forgotten: if its response arrives later and carries a server-side resource
handle -- the cursor id of an ``execute``, the statement handle of a
``prepare``, the view handle of a ``materialize`` -- the reader thread fires
a best-effort close for it, so a client deadline never strands handles in
the server's registries until session close.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Union

from ..api.prepare import recognize
from ..api.query import Query
from ..nra.ast import Expr
from ..nra.externals import EMPTY_SIGMA, Signature
from ..nra.parser import parse
from ..nra.pretty import pretty
from ..objects.encoding import row_from_jsonable, to_jsonable
from ..objects.types import format_type, parse_type
from ..objects.values import Value, from_python
from .protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolMismatch,
    ServiceTimeout,
    exception_from_error,
    read_frame_sync,
    write_frame_sync,
)

CLIENT_NAME = "repro-client/1"

#: What ``execute``/``prepare`` accept: fluent queries, raw ASTs, or
#: concrete-syntax text.
Shippable = Union[Query, Expr, str]


@dataclass(frozen=True)
class ViewChange:
    """One push notification: what a commit did to a subscribed view."""

    inserted: tuple
    deleted: tuple
    fallback: bool
    size: int


class RemoteConnection:
    """One socket, one reader thread, any number of logical sessions."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        sigma: Signature = EMPTY_SIGMA,
    ) -> None:
        self.timeout = timeout
        self.sigma = sigma
        self._sock = socket.create_connection((host, port), timeout=10.0)
        self._sock.settimeout(None)  # the reader thread blocks; deadlines are per-request
        self._wlock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: dict[int, queue.Queue] = {}
        # Requests that timed out client-side: request id -> session id (or
        # None).  When the late response finally lands, the reader uses this
        # to free any server-side handle it carries (see _reap_late).
        self._abandoned: dict[int, Optional[str]] = {}
        self._plock = threading.Lock()
        self._notify: dict[tuple[str, str], queue.Queue] = {}
        self._closed = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True
        )
        hello_id = next(self._ids)
        hello_q: queue.Queue = queue.Queue()
        with self._plock:
            self._pending[hello_id] = hello_q
        write_frame_sync(self._sock, {
            "id": hello_id,
            "op": "hello",
            "protocol": list(PROTOCOL_VERSION),
            "client": CLIENT_NAME,
        })
        self._reader.start()
        try:
            hello = self._wait(hello_id, hello_q, self.timeout)
        except Exception:
            self.close()
            raise
        self.protocol = tuple(hello.get("protocol", ()))
        self.server = hello.get("server")
        self.db_name = hello.get("db")
        self.max_frame_bytes = hello.get("max_frame_bytes")
        self.schema = {
            name: parse_type(text)
            for name, text in (hello.get("schema") or {}).items()
        }

    # -- plumbing -----------------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                frame = read_frame_sync(self._sock)
                if frame is None:
                    break
                if frame.get("push") == "notify":
                    key = (frame.get("session"), frame.get("view"))
                    with self._plock:
                        q = self._notify.get(key)
                    if q is not None:
                        q.put(frame)
                    continue
                rid = frame.get("id")
                with self._plock:
                    q = self._pending.pop(rid, None)
                    was_abandoned = q is None and rid in self._abandoned
                    sid = self._abandoned.pop(rid, None)
                if q is not None:
                    q.put(frame)
                elif was_abandoned:
                    self._reap_late(sid, frame)
        except (ConnectionClosed, OSError):
            pass
        finally:
            self._closed.set()
            # Wake every waiter: the connection is gone, not slow.
            with self._plock:
                pending, self._pending = self._pending, {}
                self._abandoned.clear()
            for q in pending.values():
                q.put(None)

    def request(self, op: str, timeout: Optional[float] = None, **fields) -> dict:
        """Send one request and wait for its response (or raise, typed)."""
        if self._closed.is_set():
            raise ConnectionClosed("connection is closed")
        rid = next(self._ids)
        q: queue.Queue = queue.Queue()
        with self._plock:
            self._pending[rid] = q
        frame = {"id": rid, "op": op}
        frame.update(fields)
        try:
            with self._wlock:
                write_frame_sync(self._sock, frame)
        except OSError as exc:
            with self._plock:
                self._pending.pop(rid, None)
            raise ConnectionClosed(str(exc)) from exc
        return self._wait(
            rid, q,
            timeout if timeout is not None else self.timeout,
            sid=fields.get("session"),
        )

    def _wait(
        self,
        rid: int,
        q: queue.Queue,
        timeout: Optional[float],
        sid: Optional[str] = None,
    ) -> dict:
        try:
            frame = q.get(timeout=timeout)
        except queue.Empty:
            # Abandon the request: the connection stays usable, and if the
            # response arrives later the reader frees any server-side
            # handle it carries (cursor/statement/view) via _reap_late.
            with self._plock:
                self._pending.pop(rid, None)
                self._abandoned[rid] = sid
            # The reader may have delivered in the instant between the
            # queue timing out and the bookkeeping above; in that case the
            # frame is in the queue, not on the wire -- reap it here.
            try:
                late = q.get_nowait()
            except queue.Empty:
                late = None
            if late is not None:
                with self._plock:
                    self._abandoned.pop(rid, None)
                self._reap_late(sid, late)
            raise ServiceTimeout(
                f"no response within {timeout}s (request {rid})"
            ) from None
        if frame is None:
            raise ConnectionClosed("connection closed while waiting for a response")
        if frame.get("ok"):
            return frame
        raise exception_from_error(frame.get("error") or {})

    #: Response fields that name server-side resources, and the op that
    #: frees each one.
    _LATE_HANDLES = (
        ("cursor", "close_cursor"),
        ("statement", "close_statement"),
        ("view", "close_view"),
    )

    def _reap_late(self, sid: Optional[str], frame: Any) -> None:
        """Free server-side resources named by an abandoned response.

        A timed-out request may still have succeeded server-side, and its
        late response can carry a cursor/statement/view handle that would
        otherwise sit in the server's registries until the session closes.
        Best-effort and fire-and-forget: this runs on the reader thread,
        which must never wait for a response of its own (it would be waiting
        on itself), so the close frames are written without a pending entry
        and their acks are dropped on arrival like any unclaimed frame.
        """
        if not isinstance(frame, dict) or not frame.get("ok") or sid is None:
            return
        for key, op in self._LATE_HANDLES:
            handle = frame.get(key)
            if handle is None:
                continue
            reap = {"id": next(self._ids), "op": op, "session": sid, key: handle}
            try:
                with self._wlock:
                    write_frame_sync(self._sock, reap)
            except OSError:
                return  # connection gone; the server reaps on disconnect

    def _subscribe(self, sid: str, vid: str) -> queue.Queue:
        q: queue.Queue = queue.Queue()
        with self._plock:
            self._notify[(sid, vid)] = q
        return q

    def _unsubscribe(self, sid: str, vid: str) -> None:
        with self._plock:
            self._notify.pop((sid, vid), None)

    # -- public surface -----------------------------------------------------------

    def session(self) -> "RemoteSession":
        """Open a logical session (raises :class:`ServerBusy` at the cap)."""
        return RemoteSession(self, self.request("open_session")["session"])

    def ping(self) -> bool:
        self.request("ping")
        return True

    def status(self) -> dict:
        reply = self.request("status")
        return {k: v for k, v in reply.items() if k not in ("id", "ok")}

    def metrics(self, prometheus: bool = False) -> dict:
        """The server's metrics snapshot plus its slow-query log.

        With ``prometheus=True`` the reply also carries the text
        exposition under ``"prometheus"``.
        """
        fields = {"format": "prometheus"} if prometheus else {}
        reply = self.request("metrics", **fields)
        return {k: v for k, v in reply.items() if k not in ("id", "ok")}

    def sessions(self) -> list[dict]:
        return self.request("sessions")["sessions"]

    def views(self) -> list[dict]:
        return self.request("views")["views"]

    def close(self) -> None:
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        if self._reader.is_alive():
            self._reader.join(timeout=5.0)

    def __enter__(self) -> "RemoteConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed.is_set() else "open"
        return f"<RemoteConnection {self.server} db={self.db_name!r} {state}>"


class RemoteSession:
    """The wire twin of :class:`~repro.api.session.Session`."""

    def __init__(self, conn: RemoteConnection, sid: str) -> None:
        self.conn = conn
        self.sid = sid
        self.closed = False

    # -- query shipping -----------------------------------------------------------

    def _ship(self, query: Shippable) -> tuple[str, dict, dict, str]:
        """(template text, param_types payload, defaults payload, label)."""
        if isinstance(query, str):
            return query, {}, {}, "text"
        params, label = {}, "expr"
        if isinstance(query, Query):
            el = query.elaborate(self.conn.schema, self.conn.sigma)
            query, params, label = el.expr, el.params, query.label
        elif not isinstance(query, Expr):
            raise TypeError(
                f"cannot ship {query!r}; expected Query, Expr or template text"
            )
        template, types, defaults = recognize(query)
        types.update(params)
        return (
            pretty(template),
            {n: format_type(t) for n, t in types.items()},
            {n: to_jsonable(v) for n, v in defaults.items()},
            label,
        )

    @staticmethod
    def _params_payload(params: Optional[dict], named: dict) -> dict:
        bindings = dict(params or {})
        bindings.update(named)
        return {
            name: to_jsonable(v if isinstance(v, Value) else from_python(v))
            for name, v in bindings.items()
        }

    # -- execution ----------------------------------------------------------------

    def execute(
        self,
        query: Shippable,
        params: Optional[dict] = None,
        chunk: int = 512,
        timeout: Optional[float] = None,
        **named,
    ) -> "RemoteCursor":
        text, types, defaults, _ = self._ship(query)
        reply = self.conn.request(
            "execute",
            timeout=timeout,
            session=self.sid,
            query=text,
            param_types=types,
            defaults=defaults,
            params=self._params_payload(params, named),
            chunk=chunk,
        )
        return RemoteCursor(self, reply, chunk)

    def prepare(self, query: Shippable, chunk: int = 512) -> "RemotePreparedStatement":
        text, types, defaults, label = self._ship(query)
        reply = self.conn.request(
            "prepare",
            session=self.sid,
            query=text,
            param_types=types,
            defaults=defaults,
            label=label,
        )
        return RemotePreparedStatement(
            self, reply["statement"], reply.get("params", {}), label, chunk
        )

    def materialize(
        self,
        query: Shippable,
        name: Optional[str] = None,
        params: Optional[dict] = None,
        subscribe: bool = True,
    ) -> "RemoteView":
        text, types, defaults, _ = self._ship(query)
        reply = self.conn.request(
            "materialize",
            session=self.sid,
            query=text,
            param_types=types,
            defaults=defaults,
            params=self._params_payload(params, {}),
            name=name,
            subscribe=subscribe,
        )
        vid = reply["view"]
        notify_q = self.conn._subscribe(self.sid, vid) if subscribe else None
        return RemoteView(self, vid, reply["name"], reply["rows"], notify_q)

    def trace(
        self,
        query: Shippable,
        params: Optional[dict] = None,
        chunk: int = 512,
        timeout: Optional[float] = None,
        **named,
    ) -> dict:
        """Execute once with tracing forced on; returns the span tree.

        The reply dict carries ``"trace"`` (the nested span tree as plain
        data), ``"rendered"`` (an indented text rendering), and
        ``"cursor"`` (a :class:`RemoteCursor` over the result).  Lifted
        constants travel as ordinary parameter bindings since the trace
        op takes template text only.
        """
        text, types, defaults, _ = self._ship(query)
        payload = dict(defaults)
        payload.update(self._params_payload(params, named))
        reply = self.conn.request(
            "trace",
            timeout=timeout,
            session=self.sid,
            query=text,
            params=payload,
            chunk=chunk,
        )
        return {
            "trace": reply["trace"],
            "rendered": reply["rendered"],
            "cursor": RemoteCursor(self, reply, chunk),
        }

    # -- updates ------------------------------------------------------------------

    def insert(self, collection: str, rows) -> dict:
        return self._mutate("insert", collection, rows)

    def delete(self, collection: str, rows) -> dict:
        return self._mutate("delete", collection, rows)

    def _mutate(self, op: str, collection: str, rows) -> dict:
        payload = [
            to_jsonable(r if isinstance(r, Value) else from_python(r)) for r in rows
        ]
        reply = self.conn.request(
            op, session=self.sid, collection=collection, rows=payload
        )
        return {"applied": reply["applied"], "version": reply["version"]}

    # -- lifecycle ----------------------------------------------------------------

    def stats(self) -> dict:
        for row in self.conn.sessions():
            if row["session"] == self.sid:
                return row
        raise KeyError(f"session {self.sid} not known to the server")

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.conn.request("close_session", session=self.sid)
            except (ConnectionClosed, ServiceTimeout):
                pass  # server-side close follows from the connection dropping

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<RemoteSession {self.sid}>"


class RemoteCursor:
    """Streams one result set, fetching server chunks on demand."""

    def __init__(self, session: RemoteSession, reply: dict, chunk: int) -> None:
        self._session = session
        self._chunk = chunk
        self.total = reply["total"]
        self._scalar = reply.get("scalar", False)
        self._cid = reply.get("cursor")  # None once the server sent everything
        self._buffer = [to_python_row(obj) for obj in reply.get("rows", [])]
        self._fetched = 0

    @property
    def rownumber(self) -> int:
        return self._fetched

    def __len__(self) -> int:
        return self.total

    def scalar(self) -> Any:
        if not self._scalar:
            raise TypeError(
                f"result is a set of {self.total} rows, not a scalar; "
                "iterate or fetch instead"
            )
        row = self.fetchone()
        return row

    def _refill(self) -> None:
        if self._buffer or self._cid is None:
            return
        reply = self._session.conn.request(
            "fetch", session=self._session.sid, cursor=self._cid, size=self._chunk
        )
        self._buffer.extend(to_python_row(obj) for obj in reply.get("rows", []))
        if reply.get("done"):
            self._cid = None

    def fetchone(self) -> Optional[Any]:
        self._refill()
        if not self._buffer:
            return None
        self._fetched += 1
        return self._buffer.pop(0)

    def fetchmany(self, size: int = 1000) -> list[Any]:
        rows: list[Any] = []
        while len(rows) < size:
            self._refill()
            if not self._buffer:
                break
            take = min(size - len(rows), len(self._buffer))
            rows.extend(self._buffer[:take])
            del self._buffer[:take]
        self._fetched += len(rows)
        return rows

    def fetchall(self) -> list[Any]:
        return self.fetchmany(self.total - self._fetched)

    def __iter__(self) -> Iterator[Any]:
        while True:
            self._refill()
            if not self._buffer:
                return
            self._fetched += 1
            yield self._buffer.pop(0)

    def rows(self) -> frozenset:
        return frozenset(self.fetchall())

    def close(self) -> None:
        if self._cid is not None:
            try:
                self._session.conn.request(
                    "close_cursor", session=self._session.sid, cursor=self._cid
                )
            finally:
                self._cid = None

    def __repr__(self) -> str:
        kind = "scalar" if self._scalar else "set"
        return f"<RemoteCursor {kind} rows={self.total} fetched={self._fetched}>"


class RemotePreparedStatement:
    """A statement prepared server-side; executes cost bindings only."""

    def __init__(
        self, session: RemoteSession, pid: str, params: dict, label: str, chunk: int
    ) -> None:
        self.session = session
        self.pid = pid
        self.param_types = dict(params)  # name -> type text, as the server sees it
        self.label = label
        self._chunk = chunk

    @property
    def param_names(self) -> list[str]:
        return sorted(self.param_types)

    def execute(
        self,
        params: Optional[dict] = None,
        timeout: Optional[float] = None,
        **named,
    ) -> RemoteCursor:
        reply = self.session.conn.request(
            "execute_statement",
            timeout=timeout,
            session=self.session.sid,
            statement=self.pid,
            params=self.session._params_payload(params, named),
            chunk=self._chunk,
        )
        return RemoteCursor(self.session, reply, self._chunk)

    def close(self) -> None:
        """Drop the server-side statement handle (idempotent, best-effort)."""
        if self.pid is not None:
            pid, self.pid = self.pid, None
            try:
                self.session.conn.request(
                    "close_statement", session=self.session.sid, statement=pid
                )
            except (ConnectionClosed, ServiceTimeout):
                pass

    def __repr__(self) -> str:
        ps = ", ".join(self.param_names)
        return f"<RemotePreparedStatement {self.label} params=[{ps}]>"


class RemoteView:
    """A server-side materialized view plus its notification stream."""

    def __init__(
        self,
        session: RemoteSession,
        vid: str,
        name: str,
        size: int,
        notify_q: Optional[queue.Queue],
    ) -> None:
        self.session = session
        self.vid = vid
        self.name = name
        self.size = size  # updated by each notification read
        self._notify_q = notify_q
        self.closed = False

    @property
    def subscribed(self) -> bool:
        return self._notify_q is not None

    def rows(self) -> frozenset:
        """The view's current contents, fetched fresh from the server."""
        reply = self.session.conn.request(
            "view_rows", session=self.session.sid, view=self.vid
        )
        rows = [to_python_row(obj) for obj in reply.get("rows", [])]
        self.size = len(rows)
        return frozenset(rows)

    def notifications(self, timeout: Optional[float] = 5.0) -> ViewChange:
        """Block for the next change notification (:class:`ServiceTimeout` on none)."""
        if self._notify_q is None:
            raise RuntimeError(f"view {self.name!r} was materialized without subscribe")
        try:
            frame = self._notify_q.get(timeout=timeout)
        except queue.Empty:
            raise ServiceTimeout(
                f"no notification for view {self.name!r} within {timeout}s"
            ) from None
        change = ViewChange(
            inserted=tuple(to_python_row(o) for o in frame.get("inserted", [])),
            deleted=tuple(to_python_row(o) for o in frame.get("deleted", [])),
            fallback=bool(frame.get("fallback")),
            size=int(frame.get("size", self.size)),
        )
        self.size = change.size
        return change

    def pending_notifications(self) -> int:
        return self._notify_q.qsize() if self._notify_q is not None else 0

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.session.conn._unsubscribe(self.session.sid, self.vid)
            try:
                self.session.conn.request(
                    "close_view", session=self.session.sid, view=self.vid
                )
            except (ConnectionClosed, ServiceTimeout):
                pass

    def __repr__(self) -> str:
        sub = "subscribed" if self.subscribed else "unsubscribed"
        return f"<RemoteView {self.name!r} rows={self.size} {sub}>"


def to_python_row(obj: Any) -> Any:
    """Decode one wire row to plain python data (the cursors' row shape)."""
    return row_from_jsonable(obj)


def connect(
    host: str,
    port: int,
    timeout: Optional[float] = 30.0,
    sigma: Signature = EMPTY_SIGMA,
) -> RemoteConnection:
    """Dial a :class:`~repro.service.server.QueryServer` and shake hands."""
    return RemoteConnection(host, port, timeout=timeout, sigma=sigma)
