"""CLI tests: the argparse frontend and its command layer against a live server.

``serve`` itself is tested as a subprocess in the CI smoke job; here its
building blocks (workload specs, binding parsers) are tested directly.
"""

import json

import pytest

from repro.service.cli import (
    _demo_database,
    _parse_bindings,
    _parse_types,
    cmd_query,
    cmd_sessions,
    cmd_status,
    cmd_views,
    main,
)
from repro.service.server import QueryServer
from repro.workloads.databases import graph_database

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def server():
    srv = QueryServer(db=graph_database(12, "path", mutable=True))
    srv.start_in_thread()
    yield srv
    srv.stop()


class TestParsers:
    def test_bindings_parse_wire_json(self):
        from repro.objects.values import BaseVal, PairVal, from_python

        out = _parse_bindings(["a=7", 'b="x"', "c=[1,2]", "word=plain"])
        assert out["a"] == BaseVal(7)
        assert out["b"] == BaseVal("x")
        assert out["c"] == PairVal(BaseVal(1), BaseVal(2))
        assert out["word"] == BaseVal("plain")

    def test_bindings_reject_bare_names(self):
        with pytest.raises(ValueError):
            _parse_bindings(["nokey"])

    def test_types_default_to_atoms(self):
        params = _parse_bindings(["a=1", "b=2"])
        types = _parse_types(["b=(D x D)"], params)
        assert types == {"a": "D", "b": "(D x D)"}

    def test_workload_spec(self):
        db = _demo_database("cycle:6")
        assert len(db["edges"].elements) == 6
        with pytest.raises(ValueError):
            _demo_database("klein-bottle:4")


class TestCommands:
    def test_query_table_output(self, server, capsys):
        rc = cmd_query("edges", host=server.host, port=server.port, limit=3)
        out = capsys.readouterr().out
        assert rc == 0
        assert "11 row(s)" in out
        assert "(0, 1)" in out
        assert "more" in out  # truncation is stated, not silent

    def test_query_json_output(self, server, capsys):
        rc = cmd_query("edges", host=server.host, port=server.port,
                       limit=-1, as_json=True)
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["total"] == 11
        assert [0, 1] in payload["rows"]

    def test_query_with_params(self, server, capsys):
        rc = cmd_query(
            r"(ext(\e:(D x D). if eq(pi1(e), $src) then {e} else empty[(D x D)]))(edges)",
            host=server.host, port=server.port,
            params=["src=4"], as_json=True,
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["rows"] == [[4, 5]]

    def test_status(self, server, capsys):
        rc = cmd_status(server.host, server.port, as_json=True)
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["server"] == "repro-service/1"
        assert payload["max_sessions"] == 32

    def test_sessions_and_views_render(self, server, capsys):
        assert cmd_sessions(server.host, server.port) == 0
        assert cmd_views(server.host, server.port) == 0
        out = capsys.readouterr().out
        assert "sessions" in out and "materialized views" in out


class TestMain:
    def test_main_runs_query(self, server, capsys):
        rc = main(["query", "edges", "--host", server.host,
                   "--port", str(server.port), "--limit", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["total"] == 11

    def test_main_runs_prepare_with_binds(self, server, capsys):
        rc = main([
            "prepare",
            r"(ext(\e:(D x D). if eq(pi1(e), $src) then {e} else empty[(D x D)]))(edges)",
            "--host", server.host, "--port", str(server.port),
            "--param", "src=0", "--bind", "src=5", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        totals = [e["total"] for e in payload["executions"]]
        assert totals == [1, 1]
        assert payload["executions"][1]["rows"] == [[5, 6]]

    def test_main_reports_connection_errors(self, capsys):
        rc = main(["status", "--port", "1"])  # nothing listens on port 1
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_main_reports_bad_workload(self, capsys):
        rc = main(["serve", "--workload", "donut:3"])
        assert rc == 1
        assert "unknown workload" in capsys.readouterr().err
