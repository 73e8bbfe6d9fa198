"""The parallel evaluator: sharded plans, a worker pool, union combiners.

:class:`ParallelEvaluator` is the engine's ``parallel`` backend.
It realises the paper's data-parallel reading of NRA as a measurable system
property: a query that distributes over union is evaluated on a hash
partition of its input -- one shard-local *vectorized* sub-plan per shard,
driven by the worker pool of :mod:`repro.engine.parallel.scheduler` -- and
recombined with a union combiner; a semi-naive evaluable fixpoint runs
parallel rounds in which the *frontier* is what gets sharded (and re-sharded
every round as it changes).  Everything else falls back to whole-set
evaluation on the **driver** -- the engine's own
:class:`~repro.engine.vectorized.VectorizedEvaluator`, shared so compile
caches, join indexes and the intern table are common across backends.

Exactness is the same contract the vectorized backend honours: sharding is
applied only where distributivity is a syntactic theorem
(:mod:`repro.engine.parallel.sharder`), the sharded fixpoint evaluates the
same delta terms the vectorized semi-naive loop does (their union over a
partition of the frontier equals their value on the whole frontier, because
delta terms are union-distributive in the frontier variable by
construction), and every unshardable or ill-shaped input takes the driver
path, so error behaviour matches the reference interpreter.  The
differential suite (``tests/property/test_backend_differential.py``) holds
every run backend to value-for-value agreement.

The evaluator is not itself thread-safe; the engine serializes calls behind
its lock (workers are internal to a call).  Results returned by workers are
re-interned into the driver's table by the driver thread, so no foreign
canonical representative ever leaks into engine state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from ...nra.ast import Expr
from ...nra.errors import NRAEvalError
from ...nra.externals import EMPTY_SIGMA, Signature
from ...objects.values import PairVal, SetVal, Value
from ...obs.trace import TRACER
from ...recursion.iterators import log_iterations
from ..interning import intern_env
from ..vectorized import VectorizedEvaluator
from ..vectorized.compiler import match_join
from ..vectorized.flat import FlatLoop, FlatUnavailable, analyze_flat_terms
from ..vectorized.plan import PlanNode, leaf, node
from .partition import hash_partition, hash_partition_aligned
from .scheduler import ShardTask, WorkerPool
from .sharder import FixpointSpec, ShardSpec, analyze


@dataclass
class ParStats:
    """Counters describing what the parallel backend actually did."""

    shard_runs: int = 0        # runs executed shard-at-a-time
    join_runs: int = 0         # runs executed as co-partitioned equi-joins
    fixpoint_runs: int = 0     # runs executed as sharded semi-naive rounds
    fallback_runs: int = 0     # runs delegated whole to the driver
    batch_runs: int = 0        # run_many fan-outs
    batch_inputs: int = 0      # inputs fanned out across workers
    tasks: int = 0             # worker tasks dispatched
    shards: int = 0            # shards produced (incl. re-sharded frontiers)
    fixpoint_rounds: int = 0   # parallel semi-naive rounds executed
    frontier_reshards: int = 0 # frontier partitions (one per parallel round)
    flat_fixpoint_runs: int = 0  # fixpoints run on the flat-column path
    worker_compiles: int = 0   # subexpression compiles inside pool workers

    def copy(self) -> "ParStats":
        return ParStats(**{f: getattr(self, f) for f in self.__dataclass_fields__})

    def since(self, baseline: "ParStats") -> "ParStats":
        """Per-call view, mirroring :meth:`repro.engine.vectorized.batch.VecStats.since`."""
        return ParStats(
            **{f: getattr(self, f) - getattr(baseline, f)
               for f in self.__dataclass_fields__}
        )


class ParallelEvaluator:
    """Shard-at-a-time evaluation over a pool of isolated vectorized workers.

    Parameters
    ----------
    sigma:
        The external signature (workers get their own copy of the lookup).
    driver:
        The engine's vectorized evaluator: compiles shard templates for
        explain, evaluates fallbacks and fixpoint carriers, and owns the
        intern table all results are canonicalized into.
    workers:
        Pool size.  Worth raising beyond the core count when shard work
        blocks on external calls (the pool overlaps their latency even under
        the GIL).
    shards:
        Target shard count per wave (defaults to ``2 * workers`` so slightly
        skewed shards still keep every worker busy).
    """

    def __init__(
        self,
        sigma: Signature = EMPTY_SIGMA,
        driver: Optional[VectorizedEvaluator] = None,
        workers: int = 4,
        shards: Optional[int] = None,
    ) -> None:
        self.driver = driver if driver is not None else VectorizedEvaluator(sigma)
        self.interner = self.driver.interner
        self.workers = workers
        self.shard_count = shards if shards is not None else 2 * workers
        if self.shard_count < 1:
            raise ValueError("shard count must be >= 1")
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
        w, k = self.workers, self.shard_count
        if spec is None:
            return node(
                "parallel",
                "fallback: not union-distributive, driver evaluates whole",
                self.driver.plan(e),
            )
        if spec.kind == "fixpoint":
            fx = spec.fixpoint
            shape = "log_loop" if fx.logarithmic else (
                "loop" if fx.loop_style else "sri-as-loop"
            )
            annotations: tuple[str, ...] = ("semi-naive", "reshard-per-round")
            if self.driver.ctx.use_flat and analyze_flat_terms(
                list(fx.delta_terms), fx.step_var, fx.delta_var, match_join
            ) is not None:
                annotations += ("flat-columns",)
                if fx.round_one_frontier:
                    annotations += ("round-one-frontier",)
            return node(
                "parallel-fixpoint",
                f"{shape}: frontier into <={k} shards, workers={w}",
                node(
                    "shard",
                    f"frontier {fx.delta_var!r} by structural hash",
                    self.driver.plan(fx.delta_union),
                ),
                leaf("combine-union", "derived = union of shard results"),
                annotations=annotations,
            )
        if spec.kind == "join":
            js = spec.join
            return node(
                "parallel",
                f"workers={w}",
                node(
                    "shard",
                    f"aligned join {js.left_var!r} x {js.right_var!r}: both "
                    f"sides into <={k} shards by join-key hash",
                    self.driver.plan(spec.body),
                ),
                leaf("combine-union", f"union of <={k} shard results"),
                annotations=("co-partitioned",),
            )
        return node(
            "parallel",
            f"workers={w}",
            node(
                "shard",
                f"{spec.kind} {spec.var!r} into <={k} shards by structural hash",
                self.driver.plan(spec.body),
            ),
            leaf("combine-union", f"union of <={k} shard results"),
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

    def _run_wave(self, tasks: list, kind: str) -> list:
        """One pool wave, with a driver-side span when tracing is on.

        The driver blocks on the wave, so timing it here attributes all
        worker activity to the driver's current span -- worker threads never
        open spans of their own (see the span-correctness tests: merged or
        dropped, never misparented).
        """
        if TRACER.enabled:
            with TRACER.span("shard-wave", kind=kind, tasks=len(tasks)):
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
        shards: Optional[int] = None,
    ) -> Value:
        """Evaluate ``e``; ``shards`` overrides the per-wave shard target.

        The override is per-call plan input (the adaptive router sizes waves
        from its cardinality estimate); ``None`` keeps the constructor-time
        ``shard_count``.
        """
        try:
            return self._run(e, arg, env, shards)
        finally:
            self._mirror_worker_compiles()

    def _run(
        self,
        e: Expr,
        arg: Optional[Value] = None,
        env: Optional[dict] = None,
        shards: Optional[int] = None,
    ) -> Value:
        shard_count = shards if shards is not None else self.shard_count
        env = intern_env(self.interner, env)
        spec = self._spec(e)
        if spec is None:
            self.stats.fallback_runs += 1
            return self.driver.run(e, arg=arg, env=env)
        if spec.kind == "fixpoint":
            return self._run_fixpoint(e, spec.fixpoint, arg, env, shard_count)
        if spec.kind == "join":
            return self._run_join(e, spec, arg, env, shard_count)
        if spec.kind == "arg":
            if arg is None:
                # The result would be a function denotation; the driver
                # raises the canonical error.
                self.stats.fallback_runs += 1
                return self.driver.run(e, arg=None, env=env)
            value = self.interner.intern(arg)
        else:
            if arg is not None:
                # An env-sharded template is not a function; driver raises.
                self.stats.fallback_runs += 1
                return self.driver.run(e, arg=arg, env=env)
            value = env.get(spec.var)
        if not isinstance(value, SetVal):
            # Unbound or non-set input: the driver's error paths are exact.
            self.stats.fallback_runs += 1
            return self.driver.run(e, arg=arg, env=env)
        shards = hash_partition(value, min(shard_count, len(value.elements) or 1))
        tasks = [
            ShardTask(spec.body, {**env, spec.var: shard}) for shard in shards
        ]
        results = self._run_wave(tasks, "shard")
        self.stats.shard_runs += 1
        self.stats.tasks += len(tasks)
        self.stats.shards += len(shards)
        return self._combine(results)

    def run_many(
        self,
        e: Expr,
        args: list,
        env: Optional[dict] = None,
    ) -> list[Value]:
        """Fan a batch of inputs out across the workers (order preserved).

        Each input is evaluated whole by one worker (shard-at-a-time *within*
        an input would shard-and-combine per input; across a batch, whole
        inputs are the natural unit), so a batch of B inputs keeps every
        worker busy as long as B >= workers.  Worker caches persist across
        batches: re-running an input on the worker it hashes to pays only
        re-application.
        """
        try:
            return self._run_many(e, args, env)
        finally:
            self._mirror_worker_compiles()

    def _run_many(
        self,
        e: Expr,
        args: list,
        env: Optional[dict] = None,
    ) -> list[Value]:
        env = intern_env(self.interner, env)
        values = [self.interner.intern(a) for a in args]
        if not values:
            return self.driver.run_many(e, [], env=env)
        groups: list[list[int]] = [[] for _ in range(min(self.workers, len(values)))]
        for i in range(len(values)):
            groups[i % len(groups)].append(i)
        tasks = [
            ShardTask(e, env, args=tuple(values[i] for i in group))
            for group in groups
        ]
        grouped = self._run_wave(tasks, "batch")
        self.stats.batch_runs += 1
        self.stats.batch_inputs += len(values)
        self.stats.tasks += len(tasks)
        out: list[Optional[Value]] = [None] * len(values)
        it = self.interner
        for group, results in zip(groups, grouped):
            for i, r in zip(group, results):
                out[i] = it.intern(r)
        return out  # type: ignore[return-value]

    # -- the co-partitioned equi-join ---------------------------------------------

    def _run_join(
        self,
        e: Expr,
        spec: ShardSpec,
        arg,
        env: dict,
        shard_count: Optional[int] = None,
    ) -> Value:
        """Shard-aligned build/probe: both join sides partitioned by key hash.

        Matching pairs hash to the same shard index, so worker ``i`` builds
        a hash index over the ``i``-th fraction of the right side only and
        probes it with the ``i``-th fraction of the left -- total index work
        is one pass over the right side however many workers run.  Left
        shards that came up empty are skipped (their join is empty); an
        empty left side short-circuits before the right side is touched,
        exactly like the vectorized backend's hash join.
        """
        js = spec.join
        it = self.interner
        if js.outer == "arg":
            if arg is None:
                return self._fallback(e, None, env)
            lval = it.intern(arg)
        else:
            if arg is not None:
                return self._fallback(e, arg, env)
            lval = env.get(js.left_var)
        rval = env.get(js.right_var)
        if not (isinstance(lval, SetVal) and isinstance(rval, SetVal)):
            return self._fallback(e, arg, env)
        if not lval.elements:
            return it.empty_set
        k = min(shard_count or self.shard_count, len(lval.elements))
        lkey = self._driver_eval(js.left_key, {})
        rkey = self._driver_eval(js.right_key, {})
        lshards = hash_partition_aligned(lval, k, lkey)
        rshards = hash_partition_aligned(rval, k, rkey)
        pairs = [(ls, rs) for ls, rs in zip(lshards, rshards) if ls.elements]
        if not pairs:  # pragma: no cover - lval nonempty implies pairs
            return it.empty_set
        tasks = [
            ShardTask(spec.body, {**env, js.left_var: ls, js.right_var: rs})
            for ls, rs in pairs
        ]
        results = self._run_wave(tasks, "join")
        self.stats.join_runs += 1
        self.stats.tasks += len(tasks)
        self.stats.shards += len(pairs)
        return self._combine(results)

    # -- the parallel semi-naive fixpoint -----------------------------------------

    def _driver_eval(self, expr: Expr, env: dict):
        return self.driver.compile(expr).fn(env)

    def _fallback(self, e: Expr, arg: Optional[Value], env: dict) -> Value:
        self.stats.fallback_runs += 1
        return self.driver.run(e, arg=arg, env=env)

    def _run_fixpoint(
        self,
        e: Expr,
        fix: FixpointSpec,
        arg: Optional[Value],
        env: dict,
        shard_count: Optional[int] = None,
    ) -> Value:
        """Semi-naive rounds with the frontier hash-partitioned every round.

        Mirrors :func:`repro.recursion.iterators.seminaive_iterate` exactly:
        round one applies the full step on the driver -- unless the step is
        strict (``fix.round_one_frontier``) and the flat loop takes the start
        as its first frontier, as the vectorized compiler does; every later
        round evaluates the delta terms -- with the accumulator bound whole
        and the frontier split into shards -- across the pool, unions the
        derived elements, and differences out the new frontier.  Ill-shaped inputs
        (non-pair iterator arguments, non-set carriers or start values) are
        delegated whole to the driver so error behaviour stays canonical.
        """
        it = self.interner
        env = dict(env)
        if fix.arg_var is not None:
            if arg is None:
                return self._fallback(e, None, env)
            env[fix.arg_var] = it.intern(arg)
        elif arg is not None:
            return self._fallback(e, arg, env)
        carrier = self._driver_eval(fix.carrier, env)
        if fix.loop_style:
            if not (isinstance(carrier, PairVal) and isinstance(carrier.fst, SetVal)):
                return self._fallback(e, arg, env)
            n = len(carrier.fst.elements)
            rounds = log_iterations(n) if fix.logarithmic else n
            start = carrier.snd
        else:
            if not isinstance(carrier, SetVal):
                return self._fallback(e, arg, env)
            rounds = len(carrier.elements)
            start = self._driver_eval(fix.seed, env)
        if not isinstance(start, SetVal):
            # The vectorized backend runs non-set accumulators through exact
            # full iteration; so do we, on the driver.
            return self._fallback(e, arg, env)
        if rounds <= 0:
            return start
        self.stats.fixpoint_runs += 1
        flat_ok = True
        if fix.round_one_frontier and start.elements:
            flat = self._try_flat_fixpoint(fix, env, start, start, rounds)
            if flat is not None:
                return flat
            flat_ok = False  # declined: it would again
        acc = self._driver_eval(fix.step_body, {**env, fix.step_var: start})
        if not isinstance(acc, SetVal):
            raise NRAEvalError(f"iterator step: expected a set, got {acc!r}")
        delta = it.difference(acc, start)
        done = 1
        if flat_ok and done < rounds and delta.elements:
            flat = self._try_flat_fixpoint(fix, env, acc, delta, rounds - done)
            if flat is not None:
                return flat
        while done < rounds and len(delta.elements):
            shards = hash_partition(
                delta, min(shard_count or self.shard_count, len(delta.elements))
            )
            base = {**env, fix.step_var: acc}
            tasks = [
                ShardTask(fix.delta_union, {**base, fix.delta_var: shard})
                for shard in shards
            ]
            results = self._run_wave(tasks, "fixpoint-round")
            self.stats.fixpoint_rounds += 1
            self.stats.frontier_reshards += 1
            self.stats.tasks += len(tasks)
            self.stats.shards += len(shards)
            derived: Value = it.empty_set
            for r in results:
                rv = it.intern(r)
                if not isinstance(rv, SetVal):
                    raise NRAEvalError(
                        f"iterator step: expected a set, got {rv!r}"
                    )
                derived = it.union(derived, rv)
            nxt = it.union(acc, derived)
            delta = it.difference(nxt, acc)
            acc = nxt
            done += 1
        return acc

    def _try_flat_fixpoint(
        self,
        fix: FixpointSpec,
        env: dict,
        acc: SetVal,
        delta: SetVal,
        budget: int,
    ) -> Optional[Value]:
        """Run up to ``budget`` rounds on dense-id arrays, or ``None`` to decline.

        The frontier terms are lowered exactly as the vectorized backend's
        semi-naive loop lowers them and the same :meth:`FlatLoop.run` drives
        the rounds; what changes is the *derive step* it is handed: the
        round's chunk *callables* fan across the pool threads (the indexes
        are frozen during a round, so the readers don't race and -- because
        the hot loops are integer probes, not object protocol calls -- they
        block each other far less than the ``SetVal`` path did).  A
        one-worker pool keeps the loop driver-local.  Any ineligible shape
        declines *before* state is touched, so the caller's object rounds
        proceed unchanged.
        """
        driver = self.driver
        if not (driver.ctx.use_flat and fix.delta_terms):
            return None
        specs = analyze_flat_terms(
            list(fix.delta_terms), fix.step_var, fix.delta_var, match_join
        )
        if specs is None:
            return None
        try:
            inv_vals: list = []
            for spec in specs:
                if spec == "copy":
                    inv_vals.append((None, None))
                    continue
                lval = rval = None
                if spec.left == "inv":
                    lval = self._driver_eval(spec.left_src, env)
                    if not isinstance(lval, SetVal):
                        raise FlatUnavailable("invariant source is not a set")
                    if not lval.elements:
                        # The object join never evaluates its right side
                        # under an empty left; preserve that order.
                        inv_vals.append((lval, None))
                        continue
                if spec.right == "inv":
                    rval = self._driver_eval(spec.right_src, env)
                    if not isinstance(rval, SetVal):
                        raise FlatUnavailable("invariant source is not a set")
                inv_vals.append((lval, rval))
            loop = FlatLoop(driver.ctx, specs, chunks=self.workers)
            loop.setup(acc, delta, inv_vals)
        except FlatUnavailable:
            driver.stats.flat_fallbacks += 1
            return None
        self.stats.flat_fixpoint_runs += 1
        driver.stats.flat_fixpoints += 1
        pooled = self.workers > 1

        def derive():
            """One round's derive step on the pool (the loop does the rest)."""
            tasks = loop.chunk_probes()
            parts = self.pool.run_callables(tasks)
            self.stats.tasks += len(tasks)
            self.stats.shards += len(tasks)
            return parts

        try:
            loop.run(
                budget,
                derive if pooled else None,
                partial(TRACER.event, "fixpoint-round", flat=True, pool="thread")
                if TRACER.enabled else None,
            )
        finally:
            # Rounds begun, also when one raised: the compiler counts the same.
            self.stats.fixpoint_rounds += loop.rounds
            if pooled:
                self.stats.frontier_reshards += loop.rounds
        return loop.materialize()
