"""The data-parallel sharded backend (``Engine(backend="parallel")``).

The source paper proves NRA queries parallelizable in principle (NC on a
PRAM); this package makes the claim operational.  Four layers:

* :mod:`~repro.engine.parallel.partition` -- deterministic structural
  hashing and hash-sharding of canonical sets (shards are canonical
  subsequences, built without re-sorting);
* :mod:`~repro.engine.parallel.sharder` -- the syntactic analysis deciding
  *what* may be sharded: union-distributive queries (shard the input, union
  the shard results) and semi-naive evaluable fixpoints (shard the frontier,
  re-shard it every round);
* :mod:`~repro.engine.parallel.scheduler` -- the worker pool: isolated
  vectorized evaluators (private intern tables, translation caches) driven
  by a thread pool;
* :mod:`~repro.engine.parallel.executor` -- :class:`ParallelEvaluator`, the
  backend proper: analysis, dispatch, union combiners, driver fallback.

See the "parallel backend" section of DESIGN.md for the semantics of the
combiners, the frontier re-sharding, and an honest account of when this
backend loses to the single-threaded vectorized one.
"""

from .executor import ParallelEvaluator, ParStats
from .partition import hash_partition, structural_hash
from .scheduler import ShardTask, ShardWorker, WorkerPool
from .sharder import FixpointSpec, JoinSpec, ShardSpec, analyze, distributes_over_union

__all__ = [
    "ParallelEvaluator",
    "ParStats",
    "hash_partition",
    "structural_hash",
    "ShardTask",
    "ShardWorker",
    "WorkerPool",
    "ShardSpec",
    "FixpointSpec",
    "JoinSpec",
    "analyze",
    "distributes_over_union",
]
