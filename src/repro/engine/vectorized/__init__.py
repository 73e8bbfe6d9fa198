"""Set-at-a-time (vectorized) evaluation backend for the optimizing engine.

The paper's central claim is that NRA-with-recursion admits efficient
*parallel, set-at-a-time* evaluation; this package is that claim applied as
an engine backend, and the engine's default one.  Where the reference
interpreter walks expressions one element and one closure call at a time,
this backend **compiles** (rewritten) NRA expressions into plans of whole-set operators over a columnar
view of interned values:

* :mod:`~repro.engine.vectorized.batch` -- the columnar batch kernels: hash
  equi-join, fused select/project, bulk map, merged unions, plus the shared
  join-index cache;
* :mod:`~repro.engine.vectorized.plan` -- plan descriptions
  (:class:`PlanNode`), what ``Engine.explain_plan`` shows;
* :mod:`~repro.engine.vectorized.compiler` -- the lowering itself, including
  the **semi-naive** frontier strategy for loops/inserts
  :func:`repro.engine.shapes.analyze_step` proves union-distributive (the
  one step runner, which materialized views continue through too), and
  by-cardinality sharing for constant-item ``dcr``;
* :mod:`~repro.engine.vectorized.executor` -- :class:`VectorizedEvaluator`,
  the ``run`` front end used by ``Engine(backend="vectorized")``.

Every strategy is justified syntactically, so results are value-for-value
identical to the reference interpreter on *all* inputs -- no sampled
algebraic gate is involved (contrast the cost-directed rewrites of
:mod:`repro.engine.rewrite`).
"""

from .batch import BatchContext, VecStats
from .compiler import Compiled, PlanCompiler, VFunction
from .executor import VectorizedEvaluator
from .plan import PlanNode

__all__ = [
    "BatchContext",
    "Compiled",
    "PlanCompiler",
    "PlanNode",
    "VFunction",
    "VecStats",
    "VectorizedEvaluator",
]
