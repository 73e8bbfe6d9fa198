"""``repro-cli``: the terminal front end of the network query service.

Subcommands::

    serve      run a QueryServer over a demo workload database
    query      execute one query (NRA text) and stream the rows
    prepare    prepare a template, then execute it once per binding set
    status     server health: sessions, queue depth, counters
    sessions   per-session stats as the server attributes them
    views      materialized views across all live sessions
    metrics    metrics registry snapshot plus the slow-query log
    trace      execute one query with tracing on, print the span tree

Every read-side command takes ``--json`` for machine consumption; plain
aligned tables otherwise.  The frontend is :mod:`argparse` (:func:`main`);
each subcommand is a ``cmd_*`` function it dispatches to, so tests can drive
the command layer directly.

``serve`` is the CI smoke entry point: it prints a parseable
``listening on HOST:PORT`` line once bound, then runs until ``SIGTERM`` /
``SIGINT`` and exits 0 after a clean shutdown -- which is exactly what the
workflow asserts.

Parameter syntax: ``--param name=VALUE`` where ``VALUE`` is wire JSON
(``7``, ``"x"``, ``[1,2]`` for a pair, ``{"s":[...]}`` for a set); bare
words that are not JSON are taken as string atoms.  Types default to ``D``
(atoms); pass ``--param-type name=TYPE`` for anything structured.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from typing import Any, Optional

from ..workloads.databases import GRAPH_KINDS, graph_database
from .client import connect
from .protocol import ServiceError
from .server import QueryServer, ServerConfig

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7432
DEFAULT_WORKLOAD = "path:64"


# -- rendering --------------------------------------------------------------------

def _emit_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_table(title: str, columns: list[str], rows: list[list], out=None) -> None:
    out = out if out is not None else sys.stdout
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max([len(col)] + [len(r[i]) for r in cells]) for i, col in enumerate(columns)
    ]
    print(title, file=out)
    print("  ".join(col.ljust(w) for col, w in zip(columns, widths)), file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for row in cells:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)), file=out)


def _parse_bindings(pairs: list[str]) -> dict:
    """``name=VALUE`` pairs -> wire-JSON parameter payload."""
    from ..objects.encoding import from_jsonable

    out = {}
    for pair in pairs:
        name, sep, text = pair.partition("=")
        if not sep:
            raise ValueError(f"--param needs name=VALUE, got {pair!r}")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            obj = text  # bare word: a string atom
        out[name] = from_jsonable(obj)
    return out


def _parse_types(pairs: list[str], params: dict) -> dict:
    types = {name: "D" for name in params}
    for pair in pairs:
        name, sep, text = pair.partition("=")
        if not sep:
            raise ValueError(f"--param-type needs name=TYPE, got {pair!r}")
        types[name] = text
    return types


def _demo_database(spec: str):
    """``kind:n`` -> a mutable demo graph database (see workloads.databases)."""
    kind, _, size = spec.partition(":")
    if kind not in GRAPH_KINDS:
        raise ValueError(
            f"unknown workload kind {kind!r}; pick one of {', '.join(GRAPH_KINDS)}"
        )
    n = int(size) if size else 64
    return graph_database(n, kind=kind, mutable=True)


# -- commands ---------------------------------------------------------------------

def cmd_serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workload: str = DEFAULT_WORKLOAD,
    backend: str = "vectorized",
    max_sessions: int = 32,
    max_inflight: int = 4,
    max_queue_depth: int = 64,
    slow_query_s: Optional[float] = None,
) -> int:
    db = _demo_database(workload)
    server = QueryServer(
        db=db,
        backend=backend,
        config=ServerConfig(
            host=host,
            port=port,
            max_sessions=max_sessions,
            max_inflight=max_inflight,
            max_queue_depth=max_queue_depth,
            slow_query_s=slow_query_s,
        ),
    )
    bound_host, bound_port = server.start_in_thread()
    print(
        f"repro-service listening on {bound_host}:{bound_port} "
        f"(db={db.name}, backend={backend})",
        flush=True,
    )
    stop = threading.Event()

    def on_signal(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    while not stop.wait(0.5):
        pass
    server.stop()
    print("repro-service stopped", flush=True)
    return 0


def cmd_query(
    query: str,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    params: Optional[list[str]] = None,
    param_types: Optional[list[str]] = None,
    limit: int = 20,
    chunk: int = 512,
    as_json: bool = False,
) -> int:
    bindings = _parse_bindings(params or [])
    with connect(host, port) as conn, conn.session() as s:
        if bindings:
            # Text templates carry their own $slots; ship the declared types.
            types = _parse_types(param_types or [], bindings)
            reply = conn.request(
                "execute", session=s.sid, query=query,
                param_types=types, defaults={},
                params=s._params_payload(bindings, {}), chunk=chunk,
            )
            from .client import RemoteCursor

            cur = RemoteCursor(s, reply, chunk)
        else:
            cur = s.execute(query, chunk=chunk)
        rows = cur.fetchmany(limit) if limit >= 0 else cur.fetchall()
        truncated = cur.total - len(rows)
        cur.close()
        if as_json:
            _emit_json({"total": cur.total, "rows": [list(_norm(r)) for r in rows]})
        else:
            _emit_table(
                f"{cur.total} row(s)",
                ["row"],
                [[r] for r in rows],
            )
            if truncated > 0:
                print(f"... {truncated} more (raise --limit)")
    return 0


def _norm(row: Any) -> Any:
    return row if isinstance(row, (list, tuple)) else (row,)


def cmd_prepare(
    query: str,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    params: Optional[list[str]] = None,
    param_types: Optional[list[str]] = None,
    bind: Optional[list[str]] = None,
    limit: int = 20,
    as_json: bool = False,
) -> int:
    """Prepare a text template, then execute once per ``--bind`` set.

    ``--bind`` takes a comma-joined binding list (``src=0,dst=5``); repeat
    the flag to execute the same statement with several binding sets --
    the point of preparation.
    """
    first = _parse_bindings(params or [])
    types = _parse_types(param_types or [], first)
    with connect(host, port) as conn, conn.session() as s:
        reply = conn.request(
            "prepare", session=s.sid, query=query,
            param_types=types, defaults={}, label="cli",
        )
        pid = reply["statement"]
        results = []
        binding_sets = [params or []] + [b.split(",") for b in (bind or [])]
        for pairs in binding_sets:
            bindings = _parse_bindings([p for p in pairs if p])
            r = conn.request(
                "execute_statement", session=s.sid, statement=pid,
                params=s._params_payload(bindings, {}), chunk=max(limit, 1),
            )
            from .client import RemoteCursor

            cur = RemoteCursor(s, r, max(limit, 1))
            rows = cur.fetchmany(limit)
            cur.close()
            results.append({
                "bindings": {k: v for k, v in (p.partition("=")[::2] for p in pairs if p)},
                "total": cur.total,
                "rows": [list(_norm(x)) for x in rows],
            })
        if as_json:
            _emit_json({"statement": pid, "params": reply.get("params", {}),
                        "executions": results})
        else:
            _emit_table(
                f"prepared {pid} params={reply.get('params', {})}",
                ["bindings", "total", "first rows"],
                [[res["bindings"], res["total"], res["rows"][:5]] for res in results],
            )
    return 0


def cmd_status(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
               as_json: bool = False) -> int:
    with connect(host, port) as conn:
        status = conn.status()
    if as_json:
        _emit_json(status)
        return 0
    stats = status.pop("stats", {})
    _emit_table(
        f"repro-service @ {host}:{port}",
        ["field", "value"],
        sorted([[k, v] for k, v in status.items()])
        + sorted([[f"stats.{k}", v] for k, v in stats.items()]),
    )
    return 0


def cmd_sessions(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 as_json: bool = False) -> int:
    with connect(host, port) as conn:
        rows = conn.sessions()
    if as_json:
        _emit_json(rows)
        return 0
    _emit_table(
        "sessions",
        ["session", "backend", "inflight", "cursors", "statements", "views",
         "executes", "rows_streamed"],
        [[r["session"], r["backend"], r["inflight"], r["cursors"],
          r["statements"], r["views"], r["stats"]["executes"],
          r["stats"]["rows_streamed"]] for r in rows],
    )
    return 0


def cmd_views(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
              as_json: bool = False) -> int:
    with connect(host, port) as conn:
        rows = conn.views()
    if as_json:
        _emit_json(rows)
        return 0
    _emit_table(
        "materialized views",
        ["view", "session", "name", "rows", "subscribed"],
        [[r["view"], r["session"], r["name"], r["rows"], r["subscribed"]]
         for r in rows],
    )
    return 0


def cmd_metrics(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                as_json: bool = False, prometheus: bool = False) -> int:
    with connect(host, port) as conn:
        payload = conn.metrics(prometheus=prometheus)
    if prometheus:
        print(payload.get("prometheus", ""), end="")
        return 0
    if as_json:
        _emit_json(payload)
        return 0
    metrics = payload.get("metrics", {})
    rows = sorted([[k, v] for k, v in metrics.get("counters", {}).items()])
    rows += sorted([[k, v] for k, v in metrics.get("gauges", {}).items()])
    rows += sorted(
        [[k, f"count={h['count']} sum={h['sum']:.6f}s"]
         for k, h in metrics.get("histograms", {}).items()]
    )
    _emit_table(f"metrics @ {host}:{port}", ["metric", "value"], rows)
    slow = payload.get("slow_queries", [])
    threshold = payload.get("slow_query_s")
    if threshold is None:
        print("slow-query log: disabled (serve with --slow-query-s)")
    else:
        print(f"slow-query log (threshold {threshold}s): {len(slow)} entries")
        for entry in slow:
            hot = ", ".join(
                f"{n['name']} {n['seconds'] * 1e3:.1f}ms"
                for n in entry.get("hot_nodes", [])
            )
            print(f"  {entry['seconds'] * 1e3:.1f}ms  {entry['query']!r} "
                  f"route={entry.get('route', {})} hot=[{hot}]")
    return 0


def cmd_trace(
    query: str,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    params: Optional[list[str]] = None,
    as_json: bool = False,
) -> int:
    bindings = _parse_bindings(params or [])
    with connect(host, port) as conn, conn.session() as s:
        result = s.trace(query, params=bindings)
        cur = result["cursor"]
        total = cur.total
        cur.close()
    if as_json:
        _emit_json({"total": total, "trace": result["trace"]})
    else:
        print(f"{total} row(s)")
        print(result["rendered"])
    return 0


# -- argparse frontend ------------------------------------------------------------

def _build_argparse():
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-cli", description="Network query service CLI."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p) -> None:
        p.add_argument("--host", default=DEFAULT_HOST)
        p.add_argument("--port", type=int, default=DEFAULT_PORT)

    p = sub.add_parser("serve", help="run a server over a demo workload")
    common(p)
    p.add_argument("--workload", default=DEFAULT_WORKLOAD,
                   help="kind:n over the graph generators (e.g. path:64)")
    p.add_argument("--backend", default="vectorized")
    p.add_argument("--max-sessions", type=int, default=32)
    p.add_argument("--max-inflight", type=int, default=4)
    p.add_argument("--max-queue-depth", type=int, default=64)
    p.add_argument("--slow-query-s", type=float, default=None,
                   help="arm the slow-query log at this threshold (seconds)")

    p = sub.add_parser("query", help="execute one query and stream rows")
    common(p)
    p.add_argument("query", help="NRA concrete syntax, e.g. 'edges'")
    p.add_argument("--param", action="append", default=[], metavar="NAME=JSON")
    p.add_argument("--param-type", action="append", default=[], metavar="NAME=TYPE")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--chunk", type=int, default=512)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("prepare", help="prepare a template, execute per binding")
    common(p)
    p.add_argument("query")
    p.add_argument("--param", action="append", default=[], metavar="NAME=JSON")
    p.add_argument("--param-type", action="append", default=[], metavar="NAME=TYPE")
    p.add_argument("--bind", action="append", default=[],
                   metavar="N1=V1,N2=V2", help="extra binding sets")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--json", action="store_true")

    for name, help_text in (
        ("status", "server health and counters"),
        ("sessions", "per-session stats"),
        ("views", "materialized views"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("metrics", help="metrics snapshot + slow-query log")
    common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--prometheus", action="store_true",
                   help="print the Prometheus text exposition instead")

    p = sub.add_parser("trace", help="execute one query with tracing on")
    common(p)
    p.add_argument("query", help="NRA concrete syntax, e.g. 'edges'")
    p.add_argument("--param", action="append", default=[], metavar="NAME=JSON")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_argparse()
    args = parser.parse_args(argv)
    try:
        if args.command == "serve":
            return cmd_serve(
                host=args.host, port=args.port, workload=args.workload,
                backend=args.backend, max_sessions=args.max_sessions,
                max_inflight=args.max_inflight,
                max_queue_depth=args.max_queue_depth,
                slow_query_s=args.slow_query_s,
            )
        if args.command == "query":
            return cmd_query(
                args.query, host=args.host, port=args.port, params=args.param,
                param_types=args.param_type, limit=args.limit,
                chunk=args.chunk, as_json=args.json,
            )
        if args.command == "prepare":
            return cmd_prepare(
                args.query, host=args.host, port=args.port, params=args.param,
                param_types=args.param_type, bind=args.bind,
                limit=args.limit, as_json=args.json,
            )
        if args.command == "status":
            return cmd_status(args.host, args.port, args.json)
        if args.command == "sessions":
            return cmd_sessions(args.host, args.port, args.json)
        if args.command == "views":
            return cmd_views(args.host, args.port, args.json)
        if args.command == "metrics":
            return cmd_metrics(args.host, args.port, args.json, args.prometheus)
        if args.command == "trace":
            return cmd_trace(
                args.query, host=args.host, port=args.port,
                params=args.param, as_json=args.json,
            )
    except (ServiceError, ValueError, OSError) as exc:
        print(f"repro-cli: error: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
