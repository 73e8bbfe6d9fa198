"""Integration tests: a live server, real sockets, the full client SDK.

The acceptance path of the service subsystem: handshake -> prepare ->
chunked cursor streaming -> materialize -> change-notification push after a
``Database.insert``; plus N concurrent clients, all three admission-control
gates answering typed ``SERVER_BUSY`` (never hanging), typed error mapping,
client timeouts, and wire-level misbehaviour against the real listener.

Servers here run on a daemon thread (``start_in_thread``) with OS-assigned
ports, so the suite parallelizes and never collides.  Tests that mutate a
database or saturate a gate build their own server; read-only tests share
one.
"""

import logging
import socket
import threading
import time

import pytest

from repro.api import Q, Row
from repro.api.session import Session
from repro.engine import Engine
from repro.nra.errors import NRAEvalError, NRAParseError
from repro.nra.eval import run as reference_run
from repro.nra.externals import ExternalFunction, Signature
from repro.nra.parser import parse
from repro.objects.types import BASE
from repro.objects.values import to_python
from repro.service import (
    ConnectionClosed,
    ProtocolError,
    QueryServer,
    RemoteError,
    ServerBusy,
    ServerConfig,
    ServiceTimeout,
    connect,
)
from repro.service.protocol import (
    FRAME_TOO_LARGE,
    PROTOCOL_MISMATCH,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame_sync,
    write_frame_sync,
)
from repro.workloads.databases import graph_database

pytestmark = pytest.mark.service

PATH_N = 48  # the shared read-only server's path graph: edges (i, i+1)


@pytest.fixture(scope="module")
def server():
    srv = QueryServer(db=graph_database(PATH_N, "path", mutable=True))
    srv.start_in_thread()
    yield srv
    srv.stop()


@pytest.fixture()
def mutable_server():
    srv = QueryServer(db=graph_database(16, "path", mutable=True))
    srv.start_in_thread()
    yield srv
    srv.stop()


def reach_query():
    """Transitive-closure-from-$src over the ``edges`` collection."""
    return Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))


def expected_reach(src: int, n: int = PATH_N) -> set:
    return {(src, j) for j in range(src + 1, n)}


# -- the acceptance path ----------------------------------------------------------

class TestEndToEnd:
    def test_handshake_carries_schema_and_version(self, server):
        with connect(server.host, server.port) as conn:
            assert conn.protocol == PROTOCOL_VERSION
            assert conn.db_name == f"path-{PATH_N}"
            assert "edges" in conn.schema
            assert str(conn.schema["edges"]) != ""

    def test_execute_streams_in_chunks(self, server):
        with connect(server.host, server.port) as conn, conn.session() as s:
            cur = s.execute("edges", chunk=7)
            assert cur.total == PATH_N - 1
            rows = list(cur)
            assert len(rows) == PATH_N - 1
            assert set(rows) == {(i, i + 1) for i in range(PATH_N - 1)}
            # chunk smaller than the result forces server-side fetches
            assert cur.rownumber == PATH_N - 1

    def test_fetchmany_across_chunk_boundaries(self, server):
        with connect(server.host, server.port) as conn, conn.session() as s:
            cur = s.execute("edges", chunk=5)
            first = cur.fetchmany(13)  # crosses two chunk boundaries
            rest = cur.fetchall()
            assert len(first) == 13
            assert len(first) + len(rest) == PATH_N - 1

    def test_prepare_then_execute_per_binding(self, server):
        with connect(server.host, server.port) as conn, conn.session() as s:
            stmt = s.prepare(reach_query())
            assert stmt.param_names == ["src"]
            for src in (0, 10, PATH_N - 2):
                got = set(stmt.execute(src=src).fetchall())
                assert got == expected_reach(src)

    def test_fluent_query_ships_as_text(self, server):
        with connect(server.host, server.port) as conn, conn.session() as s:
            q = Q.coll("edges").where(lambda e: e.fst == 3)
            assert set(s.execute(q).fetchall()) == {(3, 4)}

    def test_scalar_results(self, server):
        with connect(server.host, server.port) as conn, conn.session() as s:
            cur = s.execute("isempty(edges)")
            assert cur.scalar() is False
            with pytest.raises(TypeError):
                s.execute("edges").scalar()

    def test_materialize_and_push_after_remote_insert(self, mutable_server):
        srv = mutable_server
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            view = s.materialize(Q.coll("edges").fix(), name="tc")
            before = view.size
            reply = s.insert("edges", [(15, 16)])
            assert reply["applied"] == 1
            change = view.notifications(timeout=10.0)
            assert len(change.inserted) > 0 and not change.deleted
            assert change.size == before + len(change.inserted)
            assert (0, 16) in change.inserted  # closure reached the new node
            assert (0, 16) in view.rows()

    def test_second_session_reads_anothers_commit_without_a_rebuild(self, mutable_server):
        """Remote sessions share the server engine's one snapshot of the database."""
        srv = mutable_server

        def advances(conn) -> dict:
            counters = conn.metrics()["metrics"]["counters"]
            return {kind: counters.get(f'repro_snapshot_advances_total{{kind="{kind}"}}', 0)
                    for kind in ("delta", "rebuild")}

        with connect(srv.host, srv.port) as c1, connect(srv.host, srv.port) as c2, \
                c1.session() as writer, c2.session() as reader:
            statement = reader.prepare(reach_query())
            assert set(statement.execute(src=13).fetchall()) == expected_reach(13, 16)
            writer.execute(reach_query(), {"src": 13}).fetchall()
            interner = srv.engine.interner
            before, probes = advances(c1), interner.hits + interner.misses
            assert writer.insert("edges", [(15, 16)])["applied"] == 1
            # 15, 16, the pair, the advanced set: not the 15 rows already there.
            assert interner.hits + interner.misses - probes <= 4
            assert set(statement.execute(src=13).fetchall()) == expected_reach(13, 17)
            after = advances(c1)
            assert after["rebuild"] == before["rebuild"]
            assert after["delta"] == before["delta"] + 1

    def test_push_after_in_process_database_insert(self, mutable_server):
        """The acceptance criterion: a push after a raw ``Database.insert``.

        The commit happens on the test thread, not an executor thread --
        the listener must still hop onto the event loop and out the socket.
        """
        srv = mutable_server
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            view = s.materialize(Q.coll("edges").fix(), name="tc")
            srv.db.insert("edges", [(20, 21)])
            change = view.notifications(timeout=10.0)
            assert (20, 21) in change.inserted

    def test_delete_pushes_deletions(self, mutable_server):
        srv = mutable_server
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            view = s.materialize(Q.coll("edges").fix(), name="tc")
            s.delete("edges", [(0, 1)])
            change = view.notifications(timeout=10.0)
            assert (0, 1) in change.deleted and not change.inserted

    @pytest.mark.ivm
    @pytest.mark.dred
    def test_subscribed_view_is_not_rendered_until_its_rows_are_read(self, mutable_server):
        """Notify frames, ``materialize`` and ``views`` report the size from ``len(view)``."""
        srv = mutable_server
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            view = s.materialize(Q.coll("edges").fix(), name="tc")
            served = srv._sessions[s.sid].views[view.vid][0]
            assert view.size == len(served) == 120
            for mutate, rows in ((s.insert, [(15, 16)]), (s.insert, [(16, 17), (3, 0)]),
                                 (s.delete, [(7, 8)])):
                mutate("edges", rows)
                change = view.notifications(timeout=10.0)
                assert change.size == len(served)
            assert conn.views()[0]["rows"] == len(served)
            assert served.stats.materializations == 0
            assert len(view.rows()) == len(served)
            assert served.stats.materializations == 1

    def test_unsubscribed_view_gets_no_queue(self, mutable_server):
        srv = mutable_server
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            view = s.materialize("edges", subscribe=False)
            assert not view.subscribed
            with pytest.raises(RuntimeError):
                view.notifications(timeout=0.1)

    def test_view_registry_and_close(self, mutable_server):
        srv = mutable_server
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            view = s.materialize("edges", name="plain")
            listed = conn.views()
            assert [v["name"] for v in listed] == ["plain"]
            view.close()
            assert conn.views() == []


# -- ad-hoc queries: one shape, one plan, nothing registered ----------------------

class TestAdhocTemplates:
    def test_adhoc_executes_leave_no_statement_and_one_plan(self, mutable_server):
        """200 rebuilt queries with 200 literals: the client ships one text,
        the server rewrites once and registers nothing in the session."""
        srv = mutable_server
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            session = srv._sessions[s.sid].session
            misses = srv.engine.plan_misses
            for i in range(200):
                src, tag = i % 15, 1000 + i
                q = (Q.coll("edges").compose(Q.coll("edges")).where(lambda e: e.fst == src)
                     .map(lambda e: Row.pair(e.snd, tag)))
                want = reference_run(q.elaborate(conn.schema).expr, env=srv.db.environment())
                assert set(s.execute(q).fetchall()) == set(to_python(want))
            assert len(session._prepared) == 0
            assert srv.engine.plan_misses == misses + 1
            assert s.stats()["stats"]["executes"] == 200

    def test_adhoc_text_with_inline_literals_is_canonicalized_by_the_server(self, mutable_server):
        srv = mutable_server
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            misses = srv.engine.plan_misses
            for k in (2, 5, 9):
                text = f"(ext(\\e:(D x D). if eq(pi1(e), {k}) then {{e}} else empty[(D x D)]))(edges)"
                assert s.execute(text).fetchall() == [(k, k + 1)]
            assert srv.engine.plan_misses == misses + 1

    def test_adhoc_views_leave_no_statement(self, mutable_server):
        srv = mutable_server
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            view = s.materialize(Q.coll("edges").fix().where(lambda e: e.fst == 12), name="from12")
            s.insert("edges", [(15, 16)])
            assert (12, 16) in view.notifications(timeout=10.0).inserted
            assert len(srv._sessions[s.sid].session._prepared) == 0


# -- concurrency ------------------------------------------------------------------

class TestConcurrentClients:
    def test_eight_clients_stream_prepared_cursors(self, server):
        """N connections, each preparing and streaming; results stay exact."""
        n_clients = 8
        errors = []
        results = {}

        def client(i: int) -> None:
            try:
                with connect(server.host, server.port) as conn:
                    with conn.session() as s:
                        stmt = s.prepare(reach_query())
                        for src in (i, i + 8, i + 16):
                            cur = stmt.execute(src=src)
                            rows = set()
                            while True:
                                batch = cur.fetchmany(9)
                                if not batch:
                                    break
                                rows.update(batch)
                            results[(i, src)] = rows
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append((i, exc))

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        for (i, src), rows in results.items():
            assert rows == expected_reach(src), (i, src)

    def test_many_sessions_one_connection(self, server):
        with connect(server.host, server.port) as conn:
            sessions = [conn.session() for _ in range(4)]
            try:
                cursors = [s.execute("edges", chunk=11) for s in sessions]
                for cur in cursors:
                    assert len(cur.fetchall()) == PATH_N - 1
                sids = {row["session"] for row in conn.sessions()}
                assert {s.sid for s in sessions} <= sids
            finally:
                for s in sessions:
                    s.close()


# -- admission control ------------------------------------------------------------

# Module-level so the gate's impl stays picklable-shaped like other externals.
_GATE = threading.Event()
_GATE_ENTERED = threading.Event()  # set by the first call that reaches the gate


def _gate_impl(v):
    _GATE_ENTERED.set()
    _GATE.wait(timeout=30)
    return v


GATE_SIGMA = Signature([
    ExternalFunction("gate", BASE, BASE, _gate_impl, "blocks until released"),
])

#: One blocked oracle call: evaluates @gate over a one-element set.
GATE_QUERY = r"(ext(\x:D. {@gate(x)}))({1})"


@pytest.fixture()
def gated_server():
    _GATE.clear()
    srv = QueryServer(
        db=graph_database(8, "path", mutable=True),
        sigma=GATE_SIGMA,
        config=ServerConfig(max_sessions=2, max_inflight=1, max_queue_depth=1),
    )
    srv.start_in_thread()
    yield srv
    _GATE.set()  # release any stragglers before teardown
    srv.stop()
    _GATE.clear()


def _catching(fn, box: dict) -> None:
    """Thread target: run ``fn``, keep its result or the exception it raised."""
    try:
        box["result"] = fn()
    except Exception as exc:  # noqa: BLE001 - asserted on by the caller
        box["error"] = exc


def _poll(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestAdmissionControl:
    def test_session_cap_yields_typed_busy(self, gated_server):
        srv = gated_server
        with connect(srv.host, srv.port) as conn:
            s1, s2 = conn.session(), conn.session()
            with pytest.raises(ServerBusy):
                conn.session()
            s2.close()
            s3 = conn.session()  # the slot frees deterministically
            s3.close()
            s1.close()

    def test_inflight_cap_yields_typed_busy(self, gated_server):
        """Saturate the per-session cap with a blocked oracle; no hangs."""
        srv = gated_server
        with connect(srv.host, srv.port) as conn:
            s = conn.session()
            done = {}

            def blocked() -> None:
                done["rows"] = s.execute(GATE_QUERY, timeout=30).fetchall()

            t = threading.Thread(target=blocked)
            t.start()
            try:
                assert _poll(lambda: conn.status()["inflight"] == 1)
                with pytest.raises(ServerBusy):
                    s.execute("edges")
            finally:
                _GATE.set()
                t.join(timeout=30)
            assert done["rows"] == [1]  # @gate is identity
            # after release the gate opens for good: the session drains
            assert _poll(lambda: conn.status()["inflight"] == 0)
            assert len(s.execute("edges").fetchall()) == 7
            s.close()

    def test_queue_depth_yields_typed_busy(self, gated_server):
        """A second session hits the global queue gate, not the session cap."""
        srv = gated_server
        with connect(srv.host, srv.port) as conn:
            s1, s2 = conn.session(), conn.session()
            t = threading.Thread(
                target=lambda: s1.execute(GATE_QUERY, timeout=30).fetchall()
            )
            t.start()
            try:
                assert _poll(lambda: conn.status()["queue_depth"] == 1)
                with pytest.raises(ServerBusy):
                    s2.execute("edges")
                status = conn.status()
                assert status["stats"]["busy_rejections"] >= 1
            finally:
                _GATE.set()
                t.join(timeout=30)
            s1.close()
            s2.close()

    def test_busy_message_names_the_gate(self, gated_server):
        srv = gated_server
        with connect(srv.host, srv.port) as conn:
            conn.session(), conn.session()
            with pytest.raises(ServerBusy, match="session cap"):
                conn.session()


# -- errors and timeouts ----------------------------------------------------------

class TestErrorsAndTimeouts:
    def test_parse_error_maps_typed(self, server):
        with connect(server.host, server.port) as conn, conn.session() as s:
            with pytest.raises(NRAParseError):
                s.execute("union(")

    def test_eval_error_maps_typed(self, server):
        # pi1 of a set fails at evaluation (execute does not typecheck,
        # matching the in-process Session contract).
        with connect(server.host, server.port) as conn, conn.session() as s:
            with pytest.raises(NRAEvalError):
                s.execute("pi1(edges)")

    def test_unknown_handles_map_to_key_error(self, server):
        with connect(server.host, server.port) as conn, conn.session() as s:
            with pytest.raises(KeyError):
                conn.request("fetch", session=s.sid, cursor="c999", size=1)
            with pytest.raises(KeyError):
                conn.request("execute_statement", session=s.sid, statement="p999")
            with pytest.raises(KeyError):
                conn.request("view_rows", session=s.sid, view="v999")
        with connect(server.host, server.port) as conn:
            with pytest.raises(KeyError):
                conn.request("execute", session="s999", query="edges")

    def test_unknown_op_is_reported(self, server):
        with connect(server.host, server.port) as conn:
            with pytest.raises(Exception) as info:
                conn.request("frobnicate")
            assert "unknown op" in str(info.value)

    def test_client_timeout_leaves_connection_usable(self, gated_server):
        srv = gated_server
        with connect(srv.host, srv.port) as conn:
            s = conn.session()
            with pytest.raises(ServiceTimeout):
                s.execute(GATE_QUERY, timeout=0.2)
            _GATE.set()
            # the late response is dropped; the connection keeps working
            assert _poll(lambda: conn.status()["inflight"] == 0)
            assert len(s.execute("edges").fetchall()) == 7
            s.close()

    def test_closed_session_refuses_work(self, server):
        with connect(server.host, server.port) as conn:
            s = conn.session()
            s.close()
            with pytest.raises(KeyError):
                conn.request("execute", session=s.sid, query="edges")


# -- late-response reaping: a client timeout must not leak server handles ---------

#: Seven gated rows on the 8-node path graph (the edge sources): with a
#: small chunk the reply carries a server-side cursor handle.
GATE_MANY_QUERY = (
    r"(ext(\x:D. {@gate(x)}))((ext(\e:D x D. {pi1(e)}))(edges))"
)


class TestLateResponseReaping:
    def test_timed_out_execute_frees_server_cursor(self, gated_server):
        """The leak: an abandoned execute reply carries a live cursor id."""
        srv = gated_server
        with connect(srv.host, srv.port) as conn:
            s = conn.session()
            # Sanity: with the gate open this query really needs a cursor.
            _GATE.set()
            cur = s.execute(GATE_MANY_QUERY, chunk=2)
            assert cur._cid is not None
            assert s.stats()["cursors"] == 1
            cur.close()
            assert s.stats()["cursors"] == 0
            # Now time out client-side while the oracle blocks.
            _GATE.clear()
            with pytest.raises(ServiceTimeout):
                s.execute(GATE_MANY_QUERY, chunk=2, timeout=0.2)
            assert conn._abandoned  # the request is tracked for reaping
            _GATE.set()
            # The late response arrives, its cursor handle is reaped -- the
            # registry drains to zero instead of holding it until close.
            assert _poll(lambda: not conn._abandoned)
            assert _poll(lambda: s.stats()["cursors"] == 0)
            # And the connection stays usable.
            assert len(s.execute("edges").fetchall()) == 7
            s.close()

    def test_timed_out_materialize_frees_server_view(self, gated_server):
        srv = gated_server
        with connect(srv.host, srv.port) as conn:
            s = conn.session()
            with pytest.raises(ServiceTimeout):
                conn.request(
                    "materialize", timeout=0.2, session=s.sid,
                    query=GATE_QUERY, name="late", subscribe=True,
                )
            assert conn._abandoned
            _GATE.set()
            assert _poll(lambda: not conn._abandoned)
            assert _poll(lambda: s.stats()["views"] == 0)
            assert conn.views() == []
            s.close()

    def test_close_statement_frees_server_handle(self, server):
        with connect(server.host, server.port) as conn, conn.session() as s:
            stmt = s.prepare(reach_query())
            assert s.stats()["statements"] == 1
            stmt.close()
            assert s.stats()["statements"] == 0
            stmt.close()  # idempotent

    def test_status_stays_responsive_and_reports_router(self, gated_server):
        """status must answer while a query blocks (no engine-lock deadlock)."""
        srv = gated_server
        with connect(srv.host, srv.port) as conn:
            s = conn.session()
            t = threading.Thread(
                target=lambda: s.execute(GATE_QUERY, timeout=30).fetchall()
            )
            t.start()
            try:
                assert _poll(lambda: conn.status()["inflight"] == 1)
                status = conn.status()  # would hang if status took the engine lock
                assert "router" in status
            finally:
                _GATE.set()
                t.join(timeout=30)
            s.close()


class TestAutoBackendService:
    def test_auto_server_routes_and_reports_stats(self):
        srv = QueryServer(
            db=graph_database(8, "path", mutable=True), backend="auto"
        )
        srv.start_in_thread()
        try:
            with connect(srv.host, srv.port) as conn:
                assert conn.status()["router"] is None  # nothing routed yet
                with conn.session() as s:
                    stmt = s.prepare(reach_query())
                    rows = stmt.execute(src=0).fetchall()
                    assert set(rows) == expected_reach(0, 8)
                    router = conn.status()["router"]
                    assert router["routes"] >= 1
                    assert sum(router["backends"].values()) >= 1
                    assert s.stats()["stats"]["routes"] >= 1
        finally:
            srv.stop()


class TestOneBackendPerServer:
    def test_open_session_naming_another_backend_is_refused(self, server):
        """A protocol 1.0 client may still name a session backend: the server
        refuses any but its own, by name, and the connection lives on."""
        with connect(server.host, server.port) as conn:
            sessions = len(conn.sessions())
            with pytest.raises(ProtocolError) as info:
                conn.request("open_session", backend="parallel")
            assert "'vectorized'" in str(info.value) and "'parallel'" in str(info.value)
            assert len(conn.sessions()) == sessions
            sid = conn.request("open_session", backend="vectorized")["session"]
            assert len(conn.sessions()) == sessions + 1
            conn.request("close_session", session=sid)
            assert conn.ping()


# -- dispatch: loop ops inline, engine ops one pool job each ----------------------

class TestDispatch:
    def test_blocked_execute_does_not_delay_another_session(self, mutable_server):
        """Two sessions, one connection: the fast reply overtakes the blocked one.

        The engine lock serializes engine runs, so session 1 is held before
        the engine: its first read makes its database snapshot, which waits
        for the commit lock this test holds.
        """
        srv = mutable_server
        with connect(srv.host, srv.port) as conn:
            blocked, fast = conn.session(), conn.session()
            fast.execute("edges").close()  # fast's snapshot is made now
            box = {}
            t = threading.Thread(target=_catching, args=(
                lambda: blocked.execute("edges", timeout=30).fetchall(), box))
            with srv.db._commit_lock:
                t.start()
                assert _poll(lambda: conn.status()["inflight"] == 1)
                rows = fast.execute(reach_query(), {"src": 3}, timeout=10).fetchall()
                assert set(rows) == expected_reach(3, 16)
                assert t.is_alive()
            t.join(timeout=30)
            assert not t.is_alive()
            assert set(box["result"]) == {(i, i + 1) for i in range(15)}

    def test_close_with_a_job_in_flight_writes_nothing_after(self, gated_server, caplog):
        srv = gated_server
        caplog.set_level(logging.WARNING, logger="asyncio")
        conn = connect(srv.host, srv.port)
        s = conn.session()
        served = srv._sessions[s.sid].conn
        writes, sends = [], []
        write, send = served.writer.write, served.send
        served.writer.write = lambda data: (writes.append(served.closing), write(data))
        served.send = lambda data: (sends.append(served.closing), send(data))
        assert conn.ping() and writes == [False]
        box = {}
        t = threading.Thread(target=_catching, args=(
            lambda: s.execute(GATE_QUERY, timeout=30), box))
        t.start()
        assert _poll(lambda: srv._queue_depth == 1)
        conn.close()
        assert _poll(lambda: srv.stats.connections_closed == 1)
        _GATE.set()
        assert _poll(lambda: sends == [False, True])  # the reply reached the loop ...
        t.join(timeout=10)
        assert not t.is_alive() and isinstance(box["error"], ConnectionClosed)
        assert writes == [False]  # ... and was dropped, not written
        assert srv._queue_depth == 0 and srv.stats.queries == 1
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_oversized_reply_is_a_typed_error_and_the_connection_lives(self):
        srv = QueryServer(
            db=graph_database(PATH_N, "path", mutable=True),
            config=ServerConfig(max_frame_bytes=300),
        )
        srv.start_in_thread()
        try:
            with connect(srv.host, srv.port) as conn, conn.session() as s:
                with pytest.raises(RemoteError) as info:
                    s.execute("edges")  # engine op: a pool job's reply
                assert info.value.code == FRAME_TOO_LARGE
                assert srv._sessions[s.sid].cursors == {}  # nothing left behind
                cur = s.execute("edges", chunk=4)
                assert len(cur.fetchall()) == PATH_N - 1
                with pytest.raises(RemoteError) as info:
                    conn.sessions()  # loop op: an inline reply
                assert info.value.code == FRAME_TOO_LARGE
                with pytest.raises(RemoteError) as info:
                    conn.request("x" * 240)  # an error quoting the request
                assert info.value.code == "UNKNOWN_OP"
                assert conn.ping()
                assert srv.stats.errors == 3
        finally:
            srv.stop()


class TestMaterializeRacesClose:
    def test_wire_materialize_in_flight_when_the_connection_closes(self, gated_server):
        srv = gated_server
        conn = connect(srv.host, srv.port)
        s = conn.session()
        box = {}
        t = threading.Thread(target=_catching, args=(
            lambda: s.materialize(GATE_QUERY, name="late"), box))
        t.start()
        assert _poll(lambda: srv._queue_depth == 1)
        conn.close()
        assert _poll(lambda: srv.stats.sessions_closed == 1)
        _GATE.set()
        assert _poll(lambda: srv._queue_depth == 0)
        t.join(timeout=10)
        assert not t.is_alive() and isinstance(box["error"], ConnectionClosed)
        assert srv._sessions == {}
        assert srv.db.views() == []
        srv.db.insert("edges", [(7, 0)])
        assert srv.db.views() == []

    def test_in_process_close_racing_materialize(self):
        _GATE.clear()
        _GATE_ENTERED.clear()
        db = graph_database(8, "path", mutable=True)
        session = Session(db=db, engine=Engine(sigma=GATE_SIGMA))
        box = {}
        t = threading.Thread(target=_catching, args=(
            lambda: session.materialize(parse(GATE_QUERY), name="late"), box))
        t.start()
        try:
            assert _poll(_GATE_ENTERED.is_set)  # the view is being built
            session.close()
        finally:
            _GATE.set()
            t.join(timeout=30)
            _GATE.clear()
        assert not t.is_alive()
        assert isinstance(box["error"], RuntimeError)
        assert str(box["error"]) == "session is closed"
        assert db.views() == []


# -- wire-level misbehaviour against the live listener ----------------------------

def _raw_connect(srv) -> socket.socket:
    sock = socket.create_connection((srv.host, srv.port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


class TestWireMisbehaviour:
    def test_version_mismatch_over_the_wire(self, server):
        with _raw_connect(server) as sock:
            write_frame_sync(sock, {
                "id": 1, "op": "hello",
                "protocol": [PROTOCOL_VERSION[0] + 1, 0],
            })
            reply = read_frame_sync(sock)
            assert reply["ok"] is False
            assert reply["error"]["code"] == PROTOCOL_MISMATCH
            assert read_frame_sync(sock) is None  # server hung up

    def test_first_frame_must_be_hello(self, server):
        with _raw_connect(server) as sock:
            write_frame_sync(sock, {"id": 1, "op": "status"})
            reply = read_frame_sync(sock)
            assert reply["ok"] is False
            assert "hello" in reply["error"]["message"]

    def test_oversized_frame_rejected(self):
        srv = QueryServer(
            db=graph_database(4, "path", mutable=True),
            config=ServerConfig(max_frame_bytes=1024),
        )
        srv.start_in_thread()
        try:
            with _raw_connect(srv) as sock:
                write_frame_sync(sock, {
                    "id": 1, "op": "hello", "protocol": list(PROTOCOL_VERSION),
                })
                assert read_frame_sync(sock)["ok"] is True
                sock.sendall((4096).to_bytes(4, "big") + b"x" * 64)
                reply = read_frame_sync(sock, max_bytes=1024)
                assert reply["ok"] is False
                assert reply["error"]["code"] == FRAME_TOO_LARGE
        finally:
            srv.stop()

    def test_garbage_body_rejected_then_disconnected(self, server):
        with _raw_connect(server) as sock:
            sock.sendall((11).to_bytes(4, "big") + b"not json!!!")
            reply = read_frame_sync(sock)
            assert reply["ok"] is False
            assert read_frame_sync(sock) is None

    def test_truncated_frame_does_not_wedge_the_server(self, server):
        with _raw_connect(server) as sock:
            frame = encode_frame({"id": 1, "op": "hello",
                                  "protocol": list(PROTOCOL_VERSION)})
            sock.sendall(frame[: len(frame) // 2])
        # half a handshake, then a hard close; the listener must still serve
        with connect(server.host, server.port) as conn:
            assert conn.ping()


# -- lifecycle --------------------------------------------------------------------

class TestShutdown:
    def test_clean_stop_closes_sessions_and_sockets(self):
        srv = QueryServer(db=graph_database(8, "path", mutable=True))
        srv.start_in_thread()
        conn = connect(srv.host, srv.port)
        s = conn.session()
        view = s.materialize("edges")
        assert view.size == 7
        srv.stop()
        assert srv.stats.sessions_closed == srv.stats.sessions_opened
        with pytest.raises((ConnectionClosed, ServiceTimeout, OSError)):
            conn.request("ping")
        conn.close()

    def test_stop_is_idempotent_and_restart_is_refused(self):
        srv = QueryServer(db=graph_database(4, "path", mutable=True))
        srv.start_in_thread()
        with pytest.raises(RuntimeError):
            srv.start_in_thread()
        srv.stop()
        srv.stop()  # second stop is a no-op
