"""The worker-pool scheduler: shard tasks onto isolated vectorized workers.

Execution model.  The engine's interning discipline makes *sharing* an intern
table across concurrent mutators unsound (identity equality requires every
value to be canonicalized exactly once), so parallel workers do not share:
each :class:`ShardWorker` owns a private
:class:`~repro.engine.vectorized.VectorizedEvaluator` -- its own intern
table, compile cache and join indexes -- and communicates with the driver
exclusively through immutable values.  Driver-side values entering a worker
are *translated* (re-interned) into the worker's table through a per-worker
translation cache, so the loop-invariant environment of a fixpoint (the
accumulator's stable elements, the collection bindings) is translated once,
not once per round; worker results flow back as plain canonical values the
driver re-interns under the engine lock.

A wave of tasks is distributed round-robin over the workers; each worker
processes its slice in order on one pool thread, so a worker's caches are
only ever touched by one thread at a time (the driver blocks on the whole
wave before dispatching the next).  Failures are collected per task and the
one with the smallest task index is re-raised, keeping error reporting
deterministic regardless of thread scheduling.

The thread pool additionally exposes :meth:`WorkerPool.run_callables`,
which the driver-side flat fixpoint uses to fan a round's probe chunks
across the pool threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from ...nra.ast import Expr
from ...nra.errors import NRAEvalError
from ...nra.externals import EMPTY_SIGMA, Signature
from ...objects.values import SetVal, Value
from ..vectorized import VectorizedEvaluator
from ..vectorized.batch import VecStats
from ..vectorized.compiler import VFunction


@dataclass(frozen=True)
class ShardTask:
    """One unit of worker work: evaluate ``expr`` under ``env``.

    With ``args`` unset the expression must denote a value (a shard-local
    sub-plan evaluated for its set); with ``args`` set it must denote a
    function, which is applied to each argument in order (the ``run_many``
    fan-out path).
    """

    expr: Expr
    env: dict
    args: Optional[tuple] = None


class ShardWorker:
    """One isolated evaluation context: private interner, compile cache."""

    #: Bound on cached translations.  Stable driver values (collection
    #: bindings, accumulator elements) are re-probed constantly and stay
    #: hot under LRU; the per-round wrappers (frontier shards, the round's
    #: accumulator set) are used once and age out instead of pinning dead
    #: driver objects for the engine's lifetime.
    MAX_TRANSLATIONS = 4096

    def __init__(self, sigma: Signature) -> None:
        self.evaluator = VectorizedEvaluator(sigma)
        # id(driver value) -> (driver value, worker value).  The driver value
        # is kept so its id stays valid for the entry's lifetime; evicting an
        # entry drops both, so a recycled id can never produce a stale hit.
        self._translated: dict[int, tuple[Value, Value]] = {}

    @property
    def stats(self) -> VecStats:
        return self.evaluator.stats

    def translate(self, v: Value) -> Value:
        """Re-intern a driver-side value into this worker's table (cached).

        Canonical order is structural (``sort_key``), so a canonical set
        translates element-by-element without re-sorting; element-level cache
        hits make re-translating a grown accumulator cost only its new part.
        """
        cache = self._translated
        cached = cache.pop(id(v), None)
        if cached is not None:
            cache[id(v)] = cached  # re-insert: most recently used last
            return cached[1]
        it = self.evaluator.interner
        if isinstance(v, SetVal) and v.elements:
            w = it.canonical_set(self.translate(e) for e in v.elements)
        else:
            w = it.intern(v)
        cache[id(v)] = (v, w)
        if len(cache) > self.MAX_TRANSLATIONS:
            cache.pop(next(iter(cache)))  # evict least recently used
        return w

    def run_task(self, task: ShardTask):
        env = {
            name: self.translate(v) if isinstance(v, Value) else v
            for name, v in task.env.items()
        }
        d = self.evaluator.compile(task.expr).fn(env)
        if task.args is None:
            if isinstance(d, VFunction):
                raise NRAEvalError(
                    "shard task produced a function denotation; expected a value"
                )
            return d
        if not isinstance(d, VFunction):
            raise NRAEvalError(f"run_many: expected a function expression, got {d!r}")
        return [d(self.translate(a)) for a in task.args]

    def reset(self) -> None:
        """Drop every cache (compiled plans, join indexes, translations)."""
        self.evaluator.clear_caches()
        self._translated.clear()


def _run_slice(worker: ShardWorker, items: list):
    """Run one worker's slice of a wave; never raises (failures are data)."""
    done: list = []
    for idx, task in items:
        try:
            done.append((idx, worker.run_task(task)))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the driver
            return done, (idx, exc)
    return done, None


@dataclass
class WorkerPool:
    """A fixed set of isolated workers plus the thread pool that drives them."""

    sigma: Signature = EMPTY_SIGMA
    workers: int = 4
    _workers: list[ShardWorker] = field(default_factory=list, repr=False)
    _executor: Optional[ThreadPoolExecutor] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("a worker pool needs at least one worker")

    def _ensure(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._workers = [ShardWorker(self.sigma) for _ in range(self.workers)]
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
        return self._executor

    # -- the wave protocol --------------------------------------------------------

    def run_tasks(self, tasks: list[ShardTask]) -> list:
        """Run one wave; returns results aligned with ``tasks``.

        Raises the failure with the smallest task index, if any (after the
        whole wave has drained, so worker caches stay consistent).
        """
        if not tasks:
            return []
        executor = self._ensure()
        if len(tasks) == 1:
            # One shard: no reason to hop threads.
            return [self._workers[0].run_task(tasks[0])]
        slices: list[list] = [[] for _ in range(min(self.workers, len(tasks)))]
        for idx, task in enumerate(tasks):
            slices[idx % len(slices)].append((idx, task))
        futures = [
            executor.submit(_run_slice, self._workers[w], items)
            for w, items in enumerate(slices)
        ]
        results: dict[int, object] = {}
        failures: list[tuple[int, BaseException]] = []
        for f in futures:
            done, failed = f.result()
            results.update(done)
            if failed is not None:
                failures.append(failed)
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return [results[i] for i in range(len(tasks))]

    def run_callables(self, fns: list) -> list:
        """Run plain callables across the pool threads, one result each, in order.

        This is how a driver-side flat fixpoint parallelizes a round's probe
        chunks (the chunks only *read* frozen indexes, so concurrent threads
        are safe).
        """
        if not fns:
            return []
        if len(fns) == 1:
            return [fns[0]()]
        executor = self._ensure()
        futures = [executor.submit(fn) for fn in fns]
        results = []
        failure: Optional[BaseException] = None
        for f in futures:
            try:
                results.append(f.result())
            except BaseException as exc:  # noqa: BLE001
                if failure is None:
                    failure = exc
                results.append(None)
        if failure is not None:
            raise failure
        return results

    # -- maintenance --------------------------------------------------------------

    def worker_stats(self) -> list[VecStats]:
        """Per-worker vectorized counters."""
        return [w.stats.copy() for w in self._workers]

    def reset(self) -> None:
        """Drop every worker-side cache."""
        for w in self._workers:
            w.reset()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._workers = []
