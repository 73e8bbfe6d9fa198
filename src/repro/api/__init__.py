"""The query-service API: catalogs, sessions, fluent queries, prepared plans.

This package is the public client surface the ROADMAP's serving ambitions
build on.  Underneath sits the optimizing engine of :mod:`repro.engine`
unchanged; what this layer adds is everything a *caller* needs so that nobody
hand-builds AST nodes or re-derives plumbing per query:

* :class:`Database` / :class:`Catalog` (:mod:`repro.api.catalog`) -- named
  collections with type-checked schemas, registered once and served to any
  number of sessions;
* :class:`Q` / :class:`Query` (:mod:`repro.api.query`) -- the lazy fluent
  builder that elaborates to NRA expression templates;
* :class:`Row` (:mod:`repro.api.expr`) -- the typed row DSL inside
  combinator callables;
* :class:`Session` (:mod:`repro.api.session`) -- execution, per-session
  stats, ``executemany`` (one prepared execute per binding);
* :class:`PreparedStatement` / :func:`canonical_template`
  (:mod:`repro.api.prepare`) -- the template/slot split every runnable goes
  through, so one query shape costs one rewrite and one compile total,
  whatever its literals and however often it is rebuilt;
* :class:`Cursor` (:mod:`repro.api.cursor`) -- streaming results row by row;
* :class:`MaterializedView` / :class:`Changeset`
  (:mod:`repro.engine.incremental`) -- standing queries registered with
  ``Session.materialize`` and kept consistent by delta propagation as
  mutable databases absorb ``insert``/``delete``/``apply`` commits.

Quick start::

    from repro.api import Database, Q, connect
    from repro.workloads.graphs import path_graph

    db = Database.of("graphs", edges=path_graph(32))
    with connect(db) as session:
        reach = session.prepare(
            Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
        )
        for src in (0, 7, 13):
            print(src, reach.execute(src=src).fetchmany(5))

See README.md for the full tour and DESIGN.md for how the layer composes
with the engine's caches.
"""

from ..engine.incremental import Changeset, MaterializedView, ViewDelta, ViewStats
from .catalog import Catalog, Database
from .cursor import Cursor
from .expr import Row
from .prepare import PreparedStatement, canonical_template
from .query import Q, Query, param_var
from .session import Session, SessionStats, connect

__all__ = [
    "Catalog",
    "Changeset",
    "Database",
    "Cursor",
    "MaterializedView",
    "ViewDelta",
    "ViewStats",
    "Row",
    "PreparedStatement",
    "canonical_template",
    "Q",
    "Query",
    "param_var",
    "Session",
    "SessionStats",
    "connect",
]
