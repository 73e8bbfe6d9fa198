"""The data-parallel sharded backend (``Engine(backend="parallel")``).

The source paper proves NRA queries parallelizable in principle (NC on a
PRAM); this package makes the claim operational.  Three layers:

* :mod:`~repro.engine.parallel.sharder` -- the syntactic analysis deciding
  *what* may be sharded: union-distributive queries (shard the input, union
  the shard results);
* :mod:`~repro.engine.parallel.scheduler` -- the worker pool: isolated
  vectorized evaluators (private intern tables, translation caches) driven
  by a thread pool;
* :mod:`~repro.engine.parallel.executor` -- :class:`ParallelEvaluator`, the
  backend proper: the sharded set cut into contiguous runs of its canonical
  order, one per worker, dispatch, union combiners, driver fallback.

Fixpoints and every other unshardable query run whole on the driver, the
engine's vectorized evaluator.  What the pool buys is overlap of
external-call latency, not CPU parallelism under the GIL.  See the
"parallel backend" section of DESIGN.md for the semantics of the combiners
and the measured account of when this backend loses to the single-threaded
vectorized one.
"""

from .executor import ParallelEvaluator, ParStats
from .scheduler import ShardTask, ShardWorker, WorkerPool
from .sharder import ShardSpec, analyze, distributes_over_union

__all__ = [
    "ParallelEvaluator",
    "ParStats",
    "ShardTask",
    "ShardWorker",
    "WorkerPool",
    "ShardSpec",
    "analyze",
    "distributes_over_union",
]
