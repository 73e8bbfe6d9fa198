"""Service observability: metrics/trace wire ops and the slow-query log.

Live in-thread servers on ephemeral ports, like the rest of the service
suite.  The slow-query test is the PR-10 satellite: a blocking external
pushes one query past the threshold against a *live* server, and the
logged entry must carry the route decision and the (<= 3) hottest plan
nodes.  The thread-pool test pins the worker-span contract: pool threads
open no spans of their own, so nothing is ever misparented.
"""

import time

import pytest

from repro.api import Q
from repro.nra.externals import ExternalFunction, Signature
from repro.objects.types import BASE
from repro.obs.trace import TRACER
from repro.service import QueryServer, ServerConfig, connect
from repro.service.cli import main as cli_main
from repro.workloads.databases import graph_database

pytestmark = [pytest.mark.obs, pytest.mark.service]


@pytest.fixture()
def server():
    srv = QueryServer(db=graph_database(24, "path", mutable=True), backend="auto")
    srv.start_in_thread()
    yield srv
    srv.stop()


# ---------------------------------------------------------------------------
# The metrics op
# ---------------------------------------------------------------------------

class TestMetricsOp:
    def test_metrics_snapshot(self, server):
        with connect(server.host, server.port) as conn:
            with conn.session() as s:
                s.execute("edges").close()
            payload = conn.metrics()
        counters = payload["metrics"]["counters"]
        assert counters["repro_queries_total"] >= 1
        assert counters["repro_service_queries_total"] >= 1
        assert "repro_query_seconds" in payload["metrics"]["histograms"]
        assert payload["slow_queries"] == []  # log disarmed by default
        assert payload["slow_query_s"] is None

    def test_prometheus_exposition(self, server):
        with connect(server.host, server.port) as conn:
            with conn.session() as s:
                s.execute("edges").close()
            payload = conn.metrics(prometheus=True)
        text = payload["prometheus"]
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_query_seconds_bucket{le="+Inf"}' in text
        assert "repro_service_queries_total" in text

    def test_cli_metrics_command(self, server, capsys):
        rc = cli_main([
            "metrics", "--host", server.host, "--port", str(server.port),
            "--json",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"repro_service_sessions_opened_total"' in out
        rc = cli_main([
            "metrics", "--host", server.host, "--port", str(server.port),
            "--prometheus",
        ])
        assert rc == 0
        assert "# TYPE" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The trace op
# ---------------------------------------------------------------------------

class TestTraceOp:
    def test_trace_returns_span_tree_and_rows(self, server):
        with connect(server.host, server.port) as conn:
            with conn.session(backend="auto") as s:
                out = s.trace(Q.coll("edges").fix())
                rows = out["cursor"].fetchall()
        assert len(rows) == out["cursor"].total > 0
        tree = out["trace"]
        assert tree["name"] == "request"
        names = set()

        def walk(node):
            names.add(node["name"])
            for c in node["children"]:
                walk(c)

        walk(tree)
        assert "query" in names
        assert "fixpoint-round" in names
        assert "request" in out["rendered"] and "query" in out["rendered"]

    def test_trace_restores_disabled_tracer(self, server):
        assert not TRACER.enabled  # default-off server
        with connect(server.host, server.port) as conn:
            with conn.session() as s:
                s.trace("edges")["cursor"].close()
        assert not TRACER.enabled  # forced on for the op only, then restored

    def test_cli_trace_command(self, server, capsys):
        rc = cli_main([
            "trace", "edges", "--host", server.host,
            "--port", str(server.port),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "row(s)" in out and "request" in out


# ---------------------------------------------------------------------------
# The slow-query log (live server, blocking external)
# ---------------------------------------------------------------------------

def _sleepy_impl(v):
    time.sleep(0.15)
    return v


SLEEPY_SIGMA = Signature([
    ExternalFunction("sleepy", BASE, BASE, _sleepy_impl, "sleeps then echoes"),
])

SLEEPY_QUERY = r"(ext(\x:D. {@sleepy(x)}))({1})"


class TestSlowQueryLog:
    def test_threshold_crossing_is_logged_with_route_and_hot_nodes(self):
        srv = QueryServer(
            db=graph_database(8, "path", mutable=True),
            sigma=SLEEPY_SIGMA,
            backend="auto",
            config=ServerConfig(slow_query_s=0.05),
        )
        srv.start_in_thread()
        try:
            with connect(srv.host, srv.port) as conn:
                with conn.session(backend="auto") as s:
                    s.execute("edges").close()       # fast: below threshold
                    s.execute(SLEEPY_QUERY).close()  # blocks past threshold
                payload = conn.metrics()
            assert payload["slow_query_s"] == 0.05
            slow = payload["slow_queries"]
            assert len(slow) == 1, "only the blocking query crosses"
            entry = slow[0]
            assert "sleepy" in entry["query"]
            assert entry["seconds"] >= 0.15
            # The route decision travelled from the engine's query span.
            assert entry["route"]["backend"]
            assert entry["route"]["route"]
            # Top plan nodes, hottest first, at most three.
            hot = entry["hot_nodes"]
            assert 1 <= len(hot) <= 3
            assert hot[0]["name"] == "query"
            assert hot[0]["seconds"] >= 0.15
            assert hot == sorted(
                hot, key=lambda n: n["seconds"], reverse=True)
        finally:
            srv.stop()
            TRACER.disable()  # the armed server enabled the process tracer
            TRACER.clear()

    def test_concurrent_requests_log_independent_entries(self):
        """Asyncio offloads carry their own span context: no cross-talk."""
        import threading

        srv = QueryServer(
            db=graph_database(8, "path", mutable=True),
            sigma=SLEEPY_SIGMA,
            config=ServerConfig(slow_query_s=0.05, max_inflight=4),
        )
        srv.start_in_thread()
        try:
            with connect(srv.host, srv.port) as conn:
                with conn.session() as s:
                    threads = [
                        threading.Thread(
                            target=lambda: s.execute(
                                SLEEPY_QUERY, timeout=30).close())
                        for _ in range(3)
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=30)
                payload = conn.metrics()
            slow = payload["slow_queries"]
            assert len(slow) == 3
            for entry in slow:
                # Each entry saw exactly its own request subtree.
                assert entry["seconds"] >= 0.15
                assert all(n["seconds"] <= entry["seconds"] * 1.5
                           for n in entry["hot_nodes"])
        finally:
            srv.stop()
            TRACER.disable()
            TRACER.clear()


# ---------------------------------------------------------------------------
# The thread pool: every span lands under the query that caused it
# ---------------------------------------------------------------------------

def test_thread_pool_produces_no_foreign_spans():
    from repro.api import Database, connect as local_connect
    from repro.engine import Engine
    from repro.workloads.graphs import path_graph

    TRACER.clear()
    TRACER.enable()
    eng = Engine(backend="parallel", workers=2)
    try:
        db = Database.of("g", edges=path_graph(32))
        s = local_connect(db, engine=eng)
        with TRACER.span("outer") as outer:
            value = s.execute(Q.coll("edges").fix()).value
        assert len(value.elements) == 32 * 31 // 2
        # Pool threads derive a round's probes but open no spans of their
        # own, so nothing lands as a stray root.
        assert [r for r in TRACER.recent() if r is not outer] == []
        q = outer.find("query")
        assert q is not None
        for sp in q.walk():
            assert sp.name in {
                "query", "rewrite", "compile", "shard-wave", "fixpoint-round",
            }
    finally:
        eng.close()
        TRACER.disable()
        TRACER.clear()
