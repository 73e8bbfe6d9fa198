"""Incremental view maintenance: delta-compiled standing queries.

The constructs the engine already exploits for *evaluation* -- monotone,
union-distributive operators (semi-naive fixpoints in
:mod:`repro.engine.vectorized`, shardable unions in
:mod:`repro.engine.parallel`) -- are exactly the ones that make query results
*incrementally maintainable*: a small change to a base collection induces a
derivable change to the result.  This package closes that loop:

* :mod:`~repro.engine.incremental.changeset` --
  :class:`Changeset`, the normalized (net, disjoint) unit of mutation
  produced by mutable :class:`~repro.api.catalog.Database` objects;
* :mod:`~repro.engine.incremental.delta` -- the delta-rule compiler: one
  maintenance rule per accepted operator shape (linear ``ext`` family,
  bilinear joins, counted unions, semi-naive fixpoint continuation), each a
  syntactic theorem, with an explicit per-node ``recompute`` fallback for
  everything else;
* :mod:`~repro.engine.incremental.view` -- :class:`MaterializedView`: the
  runtime that holds support counts, incrementally maintained join indexes
  and fixpoint accumulators, and applies changesets.

The client surface is :meth:`repro.api.session.Session.materialize` plus the
mutation methods of :class:`repro.api.catalog.Database`;
``Engine.explain_plan(query, backend="incremental")`` shows the maintenance
plan a view would use.  See DESIGN.md (incremental view maintenance) for the
delta rules and the cost model.
"""

from .changeset import Changeset, CollectionDelta
from .delta import DELTA_KINDS, DeltaOp, derive, maintenance_plan
from .view import MaterializedView, ViewDelta, ViewStats

__all__ = [
    "Changeset",
    "CollectionDelta",
    "DELTA_KINDS",
    "DeltaOp",
    "derive",
    "maintenance_plan",
    "MaterializedView",
    "ViewDelta",
    "ViewStats",
]
