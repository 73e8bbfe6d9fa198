"""The parallel evaluator: sharded plans, a worker pool, union combiners.

:class:`ParallelEvaluator` is the engine's ``parallel`` backend.
It realises the paper's data-parallel reading of NRA as a measurable system
property: a query that distributes over union is evaluated on its input cut
into contiguous runs of the canonical order, one per worker (the paper's
processor assignment on an ordered database) -- one shard-local *vectorized*
sub-plan per run, driven by the worker pool of
:mod:`repro.engine.parallel.scheduler` -- and recombined with a union
combiner.  What that buys is overlap: shard work that waits on external
calls waits concurrently, even under the GIL.  Everything
else -- fixpoints, bilinear queries, ill-shaped inputs -- falls back whole
to the **driver**, the engine's own
:class:`~repro.engine.vectorized.VectorizedEvaluator`, shared so compile
caches, join indexes and the intern table are common across backends.

Exactness is the same contract the vectorized backend honours: sharding is
applied only where distributivity is a syntactic theorem
(:mod:`repro.engine.parallel.sharder`), and a fallback is the vectorized
backend's run itself -- same value, same counters, same errors.  The
differential suite (``tests/property/test_backend_differential.py``) holds
every run backend to value-for-value agreement.

The evaluator is not itself thread-safe; the engine serializes calls behind
its lock (workers are internal to a call).  Results returned by workers are
re-interned into the driver's table by the driver thread, so no foreign
canonical representative ever leaks into engine state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...nra.ast import Expr
from ...nra.errors import NRAEvalError
from ...nra.externals import EMPTY_SIGMA, Signature
from ...objects.values import SetVal, Value, canonical_set
from ...obs.metrics import Counters
from ...obs.trace import TRACER
from ..interning import intern_env
from ..vectorized import VectorizedEvaluator
from ..vectorized.plan import PlanNode, leaf, node
from .scheduler import ShardTask, WorkerPool
from .sharder import ShardSpec, analyze


@dataclass(slots=True)
class ParStats(Counters):
    """Counters describing what the parallel backend actually did."""

    shard_runs: int = 0        # runs executed shard-at-a-time
    fallback_runs: int = 0     # runs delegated whole to the driver
    tasks: int = 0             # worker tasks dispatched (one per canonical run)
    worker_compiles: int = 0   # subexpression compiles inside pool workers


def canonical_runs(s: SetVal, k: int) -> list[SetVal]:
    """Cut a canonical set into ``min(k, |s|)`` contiguous canonical runs.

    Run sizes differ by at most one, and run ``i`` holds the ``i``-th block
    of the canonical order, so the runs are disjoint, cover ``s`` and need
    no re-sort (a slice of a canonical tuple is canonical).  A set of at
    most one element, or ``k <= 1``, is returned whole -- the empty input
    included, so a shard-local plan still runs exactly once: a
    union-distributive query may contain loop-invariant operands that
    contribute to the result even on empty input.
    """
    els = s.elements
    n = len(els)
    if k <= 1 or n <= 1:
        return [s]
    k = min(k, n)
    return [canonical_set(els[i * n // k:(i + 1) * n // k]) for i in range(k)]


class ParallelEvaluator:
    """Shard-at-a-time evaluation over a pool of isolated vectorized workers.

    Parameters
    ----------
    sigma:
        The external signature (workers get their own copy of the lookup).
    driver:
        The engine's vectorized evaluator: compiles shard templates for
        explain, evaluates fallbacks, and owns the intern table all results
        are canonicalized into.
    workers:
        Pool size, and the number of runs a sharded input is cut into.
        Worth raising beyond the core count when shard work blocks on
        external calls (the pool overlaps their latency even under the GIL).
    """

    def __init__(
        self,
        sigma: Signature = EMPTY_SIGMA,
        driver: Optional[VectorizedEvaluator] = None,
        workers: int = 4,
    ) -> None:
        self.driver = driver if driver is not None else VectorizedEvaluator(sigma)
        self.interner = self.driver.interner
        self.workers = workers
        self.pool = WorkerPool(sigma=sigma, workers=workers)
        self.stats = ParStats()
        self._specs: dict[Expr, Optional[ShardSpec]] = {}

    # -- analysis / explain -------------------------------------------------------

    def _spec(self, e: Expr) -> Optional[ShardSpec]:
        if e not in self._specs:
            self._specs[e] = analyze(e)
        return self._specs[e]

    def shard_plan(self, e: Expr) -> PlanNode:
        """The sharded operator tree (what ``explain_plan`` shows for this backend).

        Compiling the shard template through the driver also warms the
        compile cache ``prepare`` relies on.
        """
        spec = self._spec(e)
        w = self.workers
        if spec is None:
            return node(
                "parallel",
                "fallback: not union-distributive, driver evaluates whole",
                self.driver.plan(e),
            )
        return node(
            "parallel",
            f"workers={w}",
            node(
                "shard",
                f"{spec.kind} {spec.var!r} into <={w} runs of the canonical order",
                self.driver.plan(spec.body),
            ),
            leaf("combine-union", f"union of <={w} shard results"),
        )

    def clear_caches(self) -> None:
        """Drop shard specs and every worker-side cache (driver cleared by owner)."""
        self._specs.clear()
        self.pool.reset()

    def _mirror_worker_compiles(self) -> None:
        """Fold worker-side compile counts into ``stats`` (stays monotone).

        Thread-pool workers compile shard templates on their own private
        evaluators; without this mirror, the session layer's differencing
        of ``Engine.vectorized_compiles()`` misses recompiles a mid-stream
        reroute triggers inside the pool.  Worker stats survive
        ``pool.reset()`` (the worker objects live as long as the pool), so
        assigning the sum is monotone.
        """
        ws = self.pool.worker_stats()
        if ws:
            self.stats.worker_compiles = sum(s.compiled_exprs for s in ws)

    def _run_wave(self, tasks: list) -> list:
        """One pool wave, with a driver-side span when tracing is on.

        The driver blocks on the wave, so timing it here attributes all
        worker activity to the driver's current span -- worker threads never
        open spans of their own (see the span-correctness tests: merged or
        dropped, never misparented).
        """
        if TRACER.enabled:
            with TRACER.span("shard-wave", tasks=len(tasks)):
                return self.pool.run_tasks(tasks)
        return self.pool.run_tasks(tasks)

    def close(self) -> None:
        self.pool.close()

    # -- combining ----------------------------------------------------------------

    def _combine(self, results: list) -> Value:
        """Union the shard results (idempotence admits equal non-set scalars).

        A distributive body whose value does not depend on the sharded
        variable (a constant branch) yields the *same* value on every shard;
        the union combiner degenerates to that value.  Mixed or differing
        non-set results cannot arise from a well-typed distributive body and
        are reported as evaluation errors.
        """
        it = self.interner
        interned = [it.intern(r) for r in results]
        if len(interned) == 1:
            return interned[0]
        if all(isinstance(r, SetVal) for r in interned):
            out: Value = it.empty_set
            for r in interned:
                out = it.union(out, r)
            return out
        first = interned[0]
        if all(r is first for r in interned[1:]):
            return first
        raise NRAEvalError(
            "shard combiner: shards disagree on a non-set result "
            f"({[repr(r) for r in interned]})"
        )

    # -- evaluation ---------------------------------------------------------------

    def run(
        self,
        e: Expr,
        arg: Optional[Value] = None,
        env: Optional[dict] = None,
    ) -> Value:
        """Evaluate ``e``: shard-at-a-time when it distributes, else whole."""
        try:
            return self._run(e, arg, env)
        finally:
            self._mirror_worker_compiles()

    def _run(
        self,
        e: Expr,
        arg: Optional[Value] = None,
        env: Optional[dict] = None,
    ) -> Value:
        env = intern_env(self.interner, env)
        spec = self._spec(e)
        value = None
        if spec is not None:
            # An ``arg`` plan shards the applied argument (without one the
            # result is a function denotation); an ``env`` plan shards a
            # binding and is not a function, so it takes no argument.
            if spec.kind == "arg":
                value = None if arg is None else self.interner.intern(arg)
            elif arg is None:
                value = env.get(spec.var)
        if not isinstance(value, SetVal):
            # Unshardable, or an unbound, non-set or misplaced input: the
            # driver evaluates whole, so its error paths are exact.
            self.stats.fallback_runs += 1
            return self.driver.run(e, arg=arg, env=env)
        # Task i is run i of the canonical order, and the pool re-raises the
        # failure with the smallest task index: an error names the first
        # failing element, as the whole-set evaluation would.
        shards = canonical_runs(value, self.workers)
        tasks = [
            ShardTask(spec.body, {**env, spec.var: shard}) for shard in shards
        ]
        results = self._run_wave(tasks)
        self.stats.shard_runs += 1
        self.stats.tasks += len(tasks)
        return self._combine(results)
