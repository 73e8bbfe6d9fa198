"""Print the telemetry surface one small fixed run exposes, as JSON.

    python tools/telemetry_surface.py [TREE]

Imports ``repro`` from ``TREE/src`` (default: this checkout) and, on a
16-node path graph, drives one ``vectorized``, one ``parallel`` and one
``auto`` session through prepare, execute, ``executemany`` over three
bindings (one execute each), ``explain_analyze``, ``materialize`` (the
``tc`` closure, plus one ``compose`` view on the first session) and an
insert/delete pair, then one
wire round trip (open a session, execute, status) against a
``QueryServer``.  It prints what the outside world reads of the counter
bags:

* ``sessions``: each session's ``stats.as_dict()``;
* ``views``: each materialized view's ``ViewStats.as_dict()``, keyed
  ``backend.name`` (a view keeps absorbing the later sessions' commits);
* ``router_keys``: the keys of the ``auto`` engine's ``router_stats()``;
* ``server_fields``: the keys of the ``status`` reply's ``stats``;
* ``scrape_names``: the sorted ``repro_*_total`` names the process-wide
  registry's collectors emit (``METRICS.scraped()``).

Every value is a count of work a deterministic run did, so two trees whose
telemetry agrees print identical output: run it on both and ``diff``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def surface(tree: Path = ROOT) -> dict:
    """The telemetry surface of the fixed run, imported from ``tree/src``."""
    sys.path.insert(0, str(tree / "src"))
    from repro.api import Database, Q, connect
    from repro.obs.metrics import METRICS
    from repro.service import QueryServer
    from repro.service import connect as remote
    from repro.workloads.graphs import path_graph

    db = Database.of("g", edges=path_graph(16))
    reach = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    sessions, engines, views = {}, [], {}
    for backend in ("vectorized", "parallel", "auto"):
        s = connect(db, backend=backend)
        engines.append(s.engine)
        stmt = s.prepare(reach)
        stmt.execute(src=3).fetchall()
        s.execute(reach, params={"src": 5}).fetchall()
        for cursor in s.executemany(reach, [0, 1, 2]):
            cursor.fetchall()
        s.explain_analyze(reach, params={"src": 4})
        views[f"{backend}.tc"] = s.materialize(Q.coll("edges").fix(), name="tc")
        if not sessions:
            views[f"{backend}.compose"] = s.materialize(
                Q.coll("edges").compose(Q.coll("edges")), name="compose")
        db.insert("edges", [(15, 16)])
        db.delete("edges", [(15, 16)])
        len(views[f"{backend}.tc"].value.elements)
        sessions[backend] = s.stats.as_dict()
    router_keys = sorted(engines[-1].router_stats())
    server = QueryServer(db=db)
    server.start_in_thread()
    try:
        with remote(server.host, server.port) as conn:
            with conn.session() as rs:
                rs.execute("edges").close()
            server_fields = sorted(conn.status()["stats"])
    finally:
        server.stop()
    scrape_names = sorted(
        n for n in METRICS.scraped() if n.startswith("repro_") and n.endswith("_total")
    )
    for engine in engines:
        engine.close()
    return {
        "sessions": sessions,
        "views": {name: view.stats.as_dict() for name, view in views.items()},
        "router_keys": router_keys,
        "server_fields": server_fields,
        "scrape_names": scrape_names,
    }


def main() -> int:
    tree = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT
    print(json.dumps(surface(tree), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
