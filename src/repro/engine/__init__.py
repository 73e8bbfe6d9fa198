"""The optimizing NRA evaluation engine.

Where :mod:`repro.nra.eval` is the deliberately naive *reference* interpreter
(its job is to define what the right answer is), this package is the *fast
path*: it rewrites expressions with the paper's own algebraic identities,
hash-conses all values so equality is O(1), and compiles what remains into
set-at-a-time plans (the vectorized executor, the default backend).

Layers (each usable on its own):

* :mod:`repro.engine.rewrite` -- bottom-up rule-registry rewriter: ext
  fusion and unit laws, identity elimination, short-circuits, and the
  Proposition 2.1 translations applied as cost-directed ``sri`` -> ``dcr``
  rewrites;
* :mod:`repro.engine.shapes` -- the one shape analysis: equi-joins,
  projection chains as column walks, and which fixpoint steps run
  semi-naively (:func:`~repro.engine.shapes.analyze_step`), for the
  rewriter, the compiler, the router and the views alike;
* :mod:`repro.engine.interning` -- hash-consing :class:`InternTable` for
  complex object values;
* :mod:`repro.engine.vectorized` -- the set-at-a-time executor: a compiler
  from NRA expressions to columnar plans (hash joins, bulk select/project,
  semi-naive frontier iteration for provably inflationary steps);
* :mod:`repro.engine.parallel` -- the sharded backend: inputs cut into
  contiguous runs of their canonical order, one per worker, shard-local
  vectorized sub-plans on a worker thread pool and union combiners for
  union-distributive queries (external-call overlap);
  everything else runs whole on the vectorized driver;
* :mod:`repro.engine.incremental` -- the view-maintenance subsystem:
  delta-compiled standing queries (support counts, incremental join
  indexes, semi-naive fixpoint continuation) kept consistent under
  ``Changeset`` mutations instead of being recomputed;
* :mod:`repro.engine.engine` -- the :class:`Engine` facade:
  ``Engine(backend=...)``, then ``Engine.run(expr, db, optimize=True)``,
  ``Engine.explain(expr)`` and ``Engine.explain_plan(expr)``.  Engine-scoped caches are serialized
  behind one lock (see the concurrency note on :class:`Engine`); the
  client-facing layer over this facade -- catalogs, sessions, fluent
  queries, prepared statements -- is :mod:`repro.api`.

The contract, precisely: interning and compilation never change results (the
language is pure and total, and the recursion constructs delegate to the same
combinators as the reference interpreter); the structural rules are
unconditional identities; the cost-directed ``sri -> dcr`` rewrite preserves
results exactly when the recursion's own algebraic preconditions hold -- the
rewriter checks them on a sampled carrier (complete, not sound: the full check
is undecidable), and :data:`STRUCTURAL_RULES` turns the rewrite off for
callers who evaluate deliberately ill-behaved combiners.  ``tests/engine``
cross-check the engine against the reference interpreter value-for-value and
check under the work/depth model of :mod:`repro.nra.cost` that the rewrite
rules do not increase work or depth on their target shapes -- but for
``seed-closure``, which buys the work of a selected closure with depth.  A
materialized view maintains the same rewritten plan a query runs: its output
reads the base relation only linearly, which is what a view's counted
fixpoint keeps state for.  See DESIGN.md for where this sits in the package
architecture.
"""

from .engine import BACKENDS, Engine, Plan, default_workers
from .incremental import Changeset, MaterializedView, ViewDelta, ViewStats
from .interning import DenseIdLimitError, InternTable
from .parallel import ParallelEvaluator, ParStats
from .router import (
    CollectionStats,
    RouteDecision,
    Router,
    RouterStats,
    collection_stats,
)
from .rewrite import (
    COST_DIRECTED_RULES,
    DEFAULT_RULES,
    STRUCTURAL_RULES,
    Rewriter,
    Rule,
    RuleFiring,
    rewrite,
)
from .shapes import insert_as_step, is_inflationary_step, union_operands
from .vectorized import PlanNode, VecStats, VectorizedEvaluator

__all__ = [
    "BACKENDS",
    "Engine",
    "Plan",
    "Changeset",
    "MaterializedView",
    "ViewDelta",
    "ViewStats",
    "InternTable",
    "DenseIdLimitError",
    "ParallelEvaluator",
    "ParStats",
    "CollectionStats",
    "RouteDecision",
    "Router",
    "RouterStats",
    "collection_stats",
    "PlanNode",
    "Rewriter",
    "Rule",
    "RuleFiring",
    "VecStats",
    "VectorizedEvaluator",
    "default_workers",
    "rewrite",
    "insert_as_step",
    "is_inflationary_step",
    "union_operands",
    "DEFAULT_RULES",
    "STRUCTURAL_RULES",
    "COST_DIRECTED_RULES",
]
