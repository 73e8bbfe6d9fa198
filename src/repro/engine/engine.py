"""The optimizing NRA evaluation engine: rewrite, then evaluate fast.

:class:`Engine` is the front door of :mod:`repro.engine`.  It composes the
optimization layers of this package --

1. algebraic rewriting (:mod:`repro.engine.rewrite`),
2. value interning / hash-consing (:mod:`repro.engine.interning`),
3. a choice of evaluation **backend**:

   ============  ==================================================================
   backend       evaluation strategy
   ============  ==================================================================
   `reference`   the naive interpreter of :mod:`repro.nra.eval` (the oracle)
   `vectorized`  the default: compiled set-at-a-time plans -- hash joins, bulk
                 select/project, semi-naive frontier iteration
                 (:mod:`repro.engine.vectorized`)
   `parallel`    shard-and-union on a thread pool: a union-distributive query
                 runs shard-local vectorized sub-plans on contiguous runs of
                 its input's canonical order, one per worker, overlapping
                 external-call latency; fixpoints and every other query run
                 whole on the vectorized driver (:mod:`repro.engine.parallel`)
   `auto`        the adaptive cost-based router: estimates cost at catalog
                 scale, picks ``vectorized`` or ``parallel`` (plus join
                 order) per query, records actual runtimes and re-routes on
                 order-of-magnitude misses (:mod:`repro.engine.router`)
   ============  ==================================================================

-- behind an API that mirrors :func:`repro.nra.eval.run`::

    from repro.engine import Engine
    from repro.relational import transitive_closure_dcr
    from repro.workloads.graphs import path_graph

    eng = Engine()
    closure = eng.run(transitive_closure_dcr(), path_graph(24))

``Engine.explain`` returns the :class:`Plan` -- the rewritten expression plus
the log of fired rules -- and ``Engine.explain_plan`` the set-at-a-time
operator tree the vectorized backend compiles it to.  All backends are
cross-checked value-for-value against the reference interpreter in
``tests/engine``; the structural rewrite rules are unconditional identities
of the pure, total language, the vectorized strategies are syntactic
theorems, and the cost-directed recursion rewrites preserve results exactly
when the recursion's algebraic preconditions hold, which the rewriter
verifies on a sampled carrier -- pass ``rules=STRUCTURAL_RULES`` to disable
them when evaluating recursions with deliberately ill-behaved combiners (see
:mod:`repro.engine.rewrite`).

An engine runs one query on one input, through the backend it was built
with; the compiled plans, the intern table and the join indexes it keeps
serve every later run, so a repeated or overlapping input pays only for
what is genuinely new.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional, Union

from ..nra.ast import Expr, subexpressions
from ..nra.eval import run as reference_run
from ..nra.externals import EMPTY_SIGMA, Signature
from ..nra.pretty import pretty
from ..objects.values import Value, from_python
from ..obs.metrics import METRICS
from ..obs.profile import PlanProfiler, QueryProfile
from ..obs.trace import TRACER
from ..relational.relation import Relation
from .incremental.delta import maintenance_plan
from .interning import InternTable
from .parallel import ParallelEvaluator, ParStats
from .rewrite import DEFAULT_RULES, Rewriter, Rule, RuleFiring
from .router import RouteDecision, Router
from .vectorized import Compiled, PlanNode, VecStats, VectorizedEvaluator

#: The evaluation backends an :class:`Engine` can be built with.  ``auto``
#: is the adaptive cost-based router of :mod:`repro.engine.router`: it picks
#: ``vectorized`` or ``parallel`` per query.
BACKENDS = ("reference", "vectorized", "parallel", "auto")

#: Explain-only views: valid for ``explain_plan(backend=...)`` but not for
#: running (``incremental`` shows the maintenance plan the view-maintenance
#: subsystem would use; it is not an evaluation strategy).
EXPLAIN_ONLY_BACKENDS = ("incremental",)


def default_workers() -> int:
    """The default parallel-backend pool size.

    At least 4 -- the overlap of external-call latency does not need cores,
    only concurrent waiters -- and up to one worker per core (capped at 8)
    where cores exist for CPU-bound shard work.
    """
    return max(4, min(8, os.cpu_count() or 1))


def _validate_backend(name: str, explain: bool = False) -> str:
    """The single point of backend-name validation.

    The constructor and ``explain_plan`` both come through here and share
    one message: the constructor accepts :data:`BACKENDS`, ``explain_plan``
    additionally accepts the explain-only views in
    :data:`EXPLAIN_ONLY_BACKENDS`.
    """
    allowed = BACKENDS + EXPLAIN_ONLY_BACKENDS if explain else BACKENDS
    if name not in allowed:
        raise ValueError(
            f"unknown backend {name!r}: the Engine constructor accepts "
            f"{BACKENDS}; explain_plan additionally accepts "
            f"{EXPLAIN_ONLY_BACKENDS}"
        )
    return name


@dataclass
class Plan:
    """The result of optimizing one expression: what will actually be evaluated."""

    original: Expr
    optimized: Expr
    firings: list[RuleFiring] = field(default_factory=list)
    #: Plan-cache lookups the engine had served when this plan was last
    #: asked for (recency, for :meth:`Engine._evict_plans`).
    used: int = field(default=0, compare=False, repr=False)
    #: The vectorized backend's compiled entry for ``optimized``, so a repeat
    #: run neither hashes the tree again nor consults the compile cache.
    #: Plans are dropped wherever that cache is (``_evict_plans`` retains
    #: what surviving plans compile to, ``clear_plans`` clears both).
    compiled: Optional[Compiled] = field(default=None, compare=False, repr=False)

    @property
    def fired_rules(self) -> list[str]:
        """Names of the rules that fired, in application order."""
        return [f.rule for f in self.firings]

    @property
    def rule_counts(self) -> dict[str, int]:
        """How many times each rule fired."""
        counts: dict[str, int] = {}
        for f in self.firings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts

    def __str__(self) -> str:
        lines = ["plan:"]
        lines.append(f"  original : {pretty(self.original)}")
        lines.append(f"  optimized: {pretty(self.optimized)}")
        if self.firings:
            lines.append("  fired rules:")
            for name, count in sorted(self.rule_counts.items()):
                lines.append(f"    {name} x{count}")
        else:
            lines.append("  fired rules: (none)")
        return "\n".join(lines)


class Engine:
    """An optimizing evaluator for NRA expressions.

    Parameters
    ----------
    sigma:
        The external-function signature queries may call (as in
        :func:`repro.nra.eval.evaluate`).
    rules:
        The rewrite-rule registry; defaults to
        :data:`repro.engine.rewrite.DEFAULT_RULES`.  Pass ``[]`` to measure
        the evaluation backend alone.
    backend:
        The evaluation backend every ``run`` goes through, one of
        :data:`BACKENDS`.  ``vectorized``, the set-at-a-time compiler, is
        the default; ``parallel`` is the sharded backend over a thread
        pool; ``auto`` routes each query to one of those two and adapts
        from observed runtimes; ``reference`` is the oracle interpreter.
    workers:
        The parallel backend's pool size (ignored by the other backends;
        default :func:`default_workers`), which is also the number of
        contiguous runs a sharded input is cut into.  It must be at least 1
        whatever the backend, since ``explain_plan(backend="parallel")``
        builds the pool.
    flat:
        Whether the compiled backends may use the dense-id column kernels.

    The intern table is engine-scoped (values are shared across runs and
    backends of the same engine), and so are the vectorized backend's
    compiled plans and join indexes.  The outermost ``run`` or ``advance``
    ends in a sweep of the table once it has grown by half
    (:meth:`InternTable.sweep`), freeing the values nothing holds and
    nothing has used since the sweep before.
    ``last_stats`` always describes just the most recent ``run`` call,
    whatever the backend; a second call on a warm engine therefore reports
    zero compiles.

    Concurrency.  An engine owns four engine-scoped mutable caches, none of
    which is safe under unsynchronized concurrent mutation: the plan cache
    (``_plans``), the intern table (plain dicts; identity-keyed soundness
    additionally requires values to be interned exactly once), and the
    vectorized backend's compile cache and join-index cache.  The engine
    therefore serializes ``optimize`` / ``run`` / ``explain_plan`` /
    ``clear_plans`` behind one reentrant lock: sharing an engine across
    threads (e.g. many :class:`repro.api.session.Session` objects over one
    engine) is *correct* but not parallel at the call level.  The
    ``parallel`` backend parallelizes *inside* a call: its worker pool is
    internal to ``run``, its workers own private intern tables and never
    touch the engine-scoped caches, and the driver
    thread (which holds the lock) is the only one re-interning worker
    results -- so the lock contract is unchanged.  For parallel
    serving, give each worker thread its own engine -- caches are warm per
    worker, results identical.  ``last_stats`` is written under the lock but
    is a per-engine cell: with concurrent callers, read it from the session
    layer (which accounts per call) rather than from the engine.
    """

    #: Bound on cached plans (templates).  Sessions key plans on the query's
    #: canonical shape, so only genuinely distinct queries count; past the
    #: bound the least recently used quarter goes, with what only it compiled.
    MAX_CACHED_PLANS = 1024

    def __init__(
        self,
        sigma: Signature = EMPTY_SIGMA,
        rules: Optional[list[Rule]] = None,
        backend: str = "vectorized",
        workers: Optional[int] = None,
        flat: bool = True,
    ) -> None:
        self.sigma = sigma
        self.backend = _validate_backend(backend)
        self.rewriter = Rewriter(rules=rules, sigma=sigma)
        self.interner = InternTable()
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        #: Whether the vectorized/parallel backends may use the flat
        #: (dense-id array) kernels.  ``False`` pins the object kernels --
        #: the representation benchmarks' baseline and an escape hatch.
        self.flat = flat
        self.last_stats: Optional[Union[VecStats, ParStats]] = None
        # Keyed on the expression itself (AST nodes are frozen, hashable
        # dataclasses), so structurally equal queries share one plan.
        self._plans: dict[Expr, Plan] = {}
        #: Plan-cache traffic: hits are repeat queries (including every
        #: prepared-statement execute), misses are fresh rewrites.  The
        #: session layer reads deltas of these to attribute work per call.
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_evictions = 0
        # The vectorized evaluator is created on first use and lives as long
        # as the engine: its compile cache and join indexes span runs.  The
        # parallel evaluator (also lazy) uses it as its driver, so both
        # backends share one compile cache and one intern table.
        self._vectorized: Optional[VectorizedEvaluator] = None
        self._parallel: Optional[ParallelEvaluator] = None
        # Worker compiles of parallel evaluators already closed, so that
        # ``vectorized_compiles`` stays monotone across ``close``.
        self._closed_worker_compiles = 0
        # The adaptive router (lazy, engine-scoped, mutated under the lock);
        # created on first use of backend="auto".
        self._router: Optional[Router] = None
        # Serializes access to every engine-scoped cache; see the class
        # docstring's concurrency note.
        self._lock = threading.RLock()
        #: ``run``/``advance`` calls in progress on the lock holder's thread:
        #: only the outermost one ends in an intern-table sweep.
        self._depth = 0
        # Observability: every engine shares the process-wide registry's
        # direct query counter + latency histogram, and contributes a
        # scrape-time collector (held by weak reference, so registration
        # never outlives the engine) that flattens the per-subsystem stats
        # bags into ``repro_``-prefixed metric names.
        self._m_queries = METRICS.counter(
            "repro_queries_total", "engine run calls"
        )
        self._m_latency = METRICS.histogram(
            "repro_query_seconds", help="engine query wall time (seconds)"
        )
        METRICS.register_collector(self._metrics_sample)

    @property
    def lock(self) -> threading.RLock:
        """The engine's cache lock (reentrant).

        Callers composing several engine operations that must be atomic
        against other threads -- e.g. the session layer differencing
        ``work_counters()`` around a ``run`` and reading its ``last_stats`` --
        hold this across the compound; the engine's own methods re-acquire
        it reentrantly.
        """
        return self._lock

    def intern(self, v: Value) -> Value:
        """Intern a value into the engine's table, under the engine lock.

        The intern table's ``id``-keyed soundness requires every value to be
        canonicalized exactly once; callers outside the engine must go
        through this method (not ``engine.interner.intern`` directly) so
        concurrent interning cannot register duplicate representatives.
        """
        with self._lock:
            return self.interner.intern(v)

    def advance(self, s: Value, inserts, deletes) -> Value:
        """Interned ``(s - deletes) | inserts``; what is cached for ``s`` follows it.

        How an interned collection moves across a commit without being
        re-interned or re-indexed: :meth:`InternTable.splice` places the
        interned delta and the vectorized backend's record of ``s`` -- its
        columns, invariant indexes and node set -- is carried onto the result.
        """
        with self._lock:
            it = self.interner
            self._depth += 1
            try:
                new, dels, ins = it.splice(s, map(it.intern, inserts), map(it.intern, deletes))
                if new is not s and self._vectorized is not None:
                    self._vectorized.ctx.carry(s, new, dels, ins)
            finally:
                self._depth -= 1
            self._sweep_if_due()
            return new

    # -- planning -----------------------------------------------------------------

    def optimize(self, e: Expr) -> Plan:
        """Rewrite ``e`` and return the plan (cached per structural equality)."""
        with self._lock:
            plan = self._plans.get(e)
            if plan is None:
                self.plan_misses += 1
                if TRACER.enabled:
                    with TRACER.span("rewrite") as sp:
                        optimized, firings = self.rewriter.rewrite(e)
                        sp.set(rules_fired=len(firings))
                else:
                    optimized, firings = self.rewriter.rewrite(e)
                plan = self._plans[e] = Plan(e, optimized, firings)
            else:
                self.plan_hits += 1
            plan.used = self.plan_hits + self.plan_misses
            if len(self._plans) > self.MAX_CACHED_PLANS:
                self._evict_plans()
            return plan

    def _evict_plans(self) -> None:
        """Drop the least recently used quarter of the plans (lock held).

        Compiled subexpressions and route decisions go with them unless a
        surviving plan's optimized tree contains their expression; anything
        dropped that is asked for again is rewritten or recompiled.
        """
        plans = self._plans
        for plan in sorted(plans.values(), key=lambda p: p.used)[: len(plans) // 4]:
            del plans[plan.original]
            self.plan_evictions += 1
        live = {s for p in plans.values() for s in subexpressions(p.optimized)}
        if self._vectorized is not None:
            self._vectorized.compiler.retain(live)
        if self._router is not None:
            self._router.retain(live)

    def clear_plans(self) -> None:
        """Drop all per-query caches (long-lived engines over many ad-hoc queries).

        Clears the rewrite-plan cache and, when the vectorized backend has
        run, its compile cache and join indexes -- the engine-scoped memory
        that grows with the number of *distinct queries* seen.  The intern
        table is kept: dropping it would invalidate ``id``-keyed state, and
        its own sweep frees what nothing holds or uses.
        """
        with self._lock:
            self._plans.clear()
            if self._vectorized is not None:
                self._vectorized.clear_caches()
            if self._parallel is not None:
                self._parallel.clear_caches()
            if self._router is not None:
                self._router.clear()

    def explain(self, e: Expr) -> Plan:
        """The plan for ``e``: rewritten expression and the rules that fired."""
        return self.optimize(e)

    def explain_plan(
        self, e: Expr, optimize: bool = True, backend: Optional[str] = None
    ) -> PlanNode:
        """The set-at-a-time operator tree the compiling backends would run.

        Useful for asserting strategy selection (``"hash-join" in
        engine.explain_plan(q).ops()``) and for eyeballing what a query
        actually executes as; compiling is cheap and cached, and no
        evaluation happens.  Session ``prepare`` calls this to warm the
        compile cache for a template ahead of the first execute.

        ``backend`` defaults to the *vectorized* view unless the engine's
        default backend is ``parallel`` (or ``backend="parallel"`` is
        passed), in which case the tree is the sharded plan: the input cut
        into canonical runs, one per worker, the shard-local vectorized
        sub-plan, and the union combiner -- or the driver fallback, clearly
        labelled.

        ``backend="incremental"`` (an explain-only view: it is not a ``run``
        backend) returns the **maintenance plan** the incremental
        view-maintenance subsystem would use for the expression -- the
        ``ivm-*`` delta rule chosen per operator, with every free variable
        treated as a mutable base collection and conservative fallbacks
        labelled ``ivm-recompute`` (see :mod:`repro.engine.incremental`).

        ``backend="auto"`` returns the router's "why this backend" trace: a
        ``route`` node carrying the cost estimate, the decision (backend,
        join-order swaps) and any re-route history, wrapped around the
        routed backend's own plan.  When the template has already
        been routed (a prepare or a run happened) the recorded decision is
        shown; otherwise a fresh statistics-free decision is made.
        """
        with self._lock:
            chosen = _validate_backend(
                backend if backend is not None else self.backend, explain=True
            )
            expr = self.optimize(e).optimized if optimize else e
            if chosen == "auto":
                router = self.router()
                decision = router.route(expr)
                inner_backend = decision.backend
                inner_expr = decision.expr
            else:
                inner_backend, inner_expr = chosen, expr
            if inner_backend == "parallel":
                inner = self._par().shard_plan(inner_expr)
            elif inner_backend == "incremental":
                inner = maintenance_plan(inner_expr)
            else:
                inner = self._vec().plan(inner_expr)
            if chosen == "auto":
                return self.router().trace(expr, inner)
            return inner

    def vectorized_compiles(self) -> int:
        """Lifetime count of vectorized subexpression compiles (0 if unused).

        Monotone; callers (the session stats layer) difference it around
        calls to attribute compile work.  Complements ``last_stats``, which
        only describes the most recent ``run``.

        Includes compiles performed *inside* the parallel backend's worker
        threads (mirrored into ``ParStats.worker_compiles`` at the end of
        every parallel run), so a routed template that re-routes to the
        parallel backend mid-stream still attributes its recompiles to the
        session that triggered them -- also those of pools already closed.
        """
        with self._lock:
            total = self._closed_worker_compiles
            if self._vectorized is not None:
                total += self._vectorized.stats.compiled_exprs
            if self._parallel is not None:
                total += self._parallel.stats.worker_compiles
            return total

    # -- evaluation ---------------------------------------------------------------

    def run(
        self,
        e: Expr,
        db=None,
        env: Optional[dict] = None,
        optimize: bool = True,
    ) -> Value:
        """Optimize and evaluate ``e``, optionally applying it to input ``db``.

        ``db`` may be a complex object :class:`~repro.objects.values.Value`, a
        :class:`~repro.relational.relation.Relation`, or plain Python data
        (converted with :func:`~repro.objects.values.from_python`); ``env``
        supplies values of free variables.  With ``optimize=False`` the
        expression is evaluated as-is (still through the engine's backend),
        which is how the benchmarks isolate the contribution of the rewrites.
        """
        chosen = self.backend
        with self._lock:
            with TRACER.span("query", backend=chosen) as sp:
                t_start = perf_counter()
                self._depth += 1
                try:
                    plan = self.optimize(e) if optimize else None
                    expr = e if plan is None else plan.optimized
                    arg = self._to_value(db)
                    if chosen == "auto":
                        decision = self.router().route(expr, arg=arg, env=env)
                        if sp is not None:
                            sp.set(backend=decision.backend, route=decision.reason)
                        t0 = perf_counter()
                        result = self._execute(
                            decision.backend, decision.expr, arg, env, plan=plan
                        )
                        self.router().record_runtime(
                            expr, decision.backend, perf_counter() - t0
                        )
                    else:
                        result = self._execute(chosen, expr, arg, env, plan=plan)
                finally:
                    self._depth -= 1
                if sp is not None:
                    els = getattr(result, "elements", None)
                    if isinstance(els, (frozenset, set, tuple, list)):
                        sp.set(rows=len(els))
                self._sweep_if_due()
                self._observe_query(perf_counter() - t_start)
                return result

    def _sweep_if_due(self) -> None:
        """Sweep the intern table once it has grown enough (lock held).

        Only at the end of the outermost ``run`` or ``advance``: no kernel,
        loop or maintenance pass is in flight then, and the caller holds its
        result.  Traced, the sweep is an ``intern-sweep`` span under the
        query or commit span that paid for it.
        """
        it = self.interner
        if self._depth or not it.sweep_due:
            return
        with TRACER.span("intern-sweep") as sp:
            t0 = perf_counter()
            freed = it.sweep()
            if sp is not None:
                sp.set(freed=freed, kept=it.size, ms=round((perf_counter() - t0) * 1e3, 3))

    def _execute(
        self,
        chosen: str,
        expr: Expr,
        arg: Optional[Value],
        env: Optional[dict],
        plan: Optional[Plan] = None,
    ) -> Value:
        """Dispatch one evaluation to a concrete backend (lock already held).

        ``plan`` is the cached plan ``expr`` came from, if any: the
        vectorized backend keeps its compiled entry there.
        """
        if chosen == "reference":
            self.last_stats = None
            return reference_run(expr, arg, env=env, sigma=self.sigma)
        if chosen == "parallel":
            pv = self._par()
            before_par = pv.stats.copy()
            result = pv.run(expr, arg=arg, env=env)
            self.last_stats = pv.stats.since(before_par)
            return result
        ev = self._vec()
        # The evaluator's counters run for its whole lifetime (they back the
        # engine-scoped caches); report just this call's share.
        before = ev.stats.copy()
        if plan is None or plan.optimized is not expr:
            entry = ev.compile(expr)
        else:
            entry = plan.compiled
            if entry is None:
                entry = plan.compiled = ev.compile(expr)
        result = ev.run_compiled(entry, arg=arg, env=env)
        self.last_stats = ev.stats.since(before)
        return result

    # -- profiling and metrics ----------------------------------------------------

    def profile(
        self,
        e: Expr,
        db=None,
        env: Optional[dict] = None,
        optimize: bool = True,
    ) -> QueryProfile:
        """Execute ``e`` with per-plan-node instrumentation (explain analyze).

        Runs the query on a **fresh** vectorized evaluator whose compiler
        wraps every cached closure with timing + cardinality accounting --
        the engine's steady-state compile caches never see instrumented
        closures, so profiling one query costs the other queries nothing.
        The throwaway evaluator shares the engine's intern table (safe: we
        hold the engine lock for the whole profiled run).

        The returned :class:`~repro.obs.profile.QueryProfile` renders the
        executed plan tree with actual per-node time (inclusive of
        children), rows, and call counts next to the work/depth
        cost-semantics prediction (externals stubbed, scaled by the
        router's calibrated seconds-per-work).
        """
        with self._lock:
            expr = self.optimize(e).optimized if optimize else e
            arg = self._to_value(db)
            profiler = PlanProfiler()
            ev = VectorizedEvaluator(self.sigma, self.interner, flat=self.flat)
            ev.ctx.profiler = profiler
            t0 = perf_counter()
            result = ev.run(expr, arg=arg, env=env)
            seconds = perf_counter() - t0
            plan = ev.compile(expr).plan
            router = self.router()
            estimate = router.estimate(expr, arg=arg, env=env)
            predicted_s = (
                estimate.work * router.seconds_per_work
                if estimate is not None
                else None
            )
            els = getattr(result, "elements", None)
            rows = (
                len(els) if isinstance(els, (frozenset, set, tuple, list))
                else None
            )
            return QueryProfile(
                plan=plan, result=result, seconds=seconds, rows=rows,
                estimate=estimate, predicted_s=predicted_s, profiler=profiler,
            )

    def _observe_query(self, seconds: float) -> None:
        """Fold one query into the shared registry (a flag check when off)."""
        if METRICS.enabled:
            self._m_queries.inc()
            self._m_latency.observe(seconds)

    def _metrics_sample(self) -> dict:
        """Scrape-time collector: the per-subsystem stats bags, flattened.

        Called by the registry *without* the engine lock: every value read
        is a plain int/float attribute (atomic under the GIL), so a scrape
        racing a run at worst observes a counter one increment stale.
        """
        out: dict[str, float] = {
            "repro_plan_cache_hits_total": self.plan_hits,
            "repro_plan_cache_misses_total": self.plan_misses,
            "repro_plan_cache_evictions_total": self.plan_evictions,
        }
        for owner, family in ((self._vectorized, "vec"), (self._parallel, "par"),
                              (self._router, "router")):
            if owner is not None:
                out.update(owner.stats.sample(family))
        return out

    # -- helpers ------------------------------------------------------------------

    def _vec(self) -> VectorizedEvaluator:
        with self._lock:
            if self._vectorized is None:
                self._vectorized = VectorizedEvaluator(
                    self.sigma, self.interner, flat=self.flat
                )
            return self._vectorized

    def _par(self) -> ParallelEvaluator:
        with self._lock:
            if self._parallel is None:
                self._parallel = ParallelEvaluator(
                    self.sigma, driver=self._vec(), workers=self.workers
                )
            return self._parallel

    def router(self) -> Router:
        """The engine's adaptive router (created on first use, lock-scoped)."""
        with self._lock:
            if self._router is None:
                self._router = Router(self.sigma, workers=self.workers)
            return self._router

    def route(
        self,
        e: Expr,
        arg: Optional[Value] = None,
        env: Optional[dict] = None,
        counts: Optional[dict] = None,
        optimize: bool = True,
    ) -> RouteDecision:
        """Route ``e`` without running it (the session ``prepare`` path).

        ``env`` may hold catalog *samples* with ``counts`` giving the full
        cardinalities -- the decision is then made from statistics alone,
        before any execution.  The decision is cached per optimized template;
        subsequent runs on an ``auto`` engine reuse and adapt it.
        """
        with self._lock:
            expr = self.optimize(e).optimized if optimize else e
            return self.router().route(expr, arg=arg, env=env, counts=counts)

    def router_stats(self) -> Optional[dict]:
        """Routing counters and per-backend template counts (None if unused).

        Never blocks: the engine lock is held for the full duration of a
        ``run``, and the service ``status`` probe must stay responsive while
        a query sits on a slow external oracle.  Takes the lock only if it
        is free; otherwise reads unsynchronized -- the counters are plain
        ints, and if the decision table mutates mid-iteration the counters
        are reported without the per-backend breakdown.
        """
        locked = self._lock.acquire(blocking=False)
        try:
            router = self._router
            if router is None:
                return None
            try:
                return router.as_dict()
            except RuntimeError:  # records dict mutated under our feet
                out = router.stats.as_dict()
                out["templates"] = len(router.records)
                out["backends"] = {}
                out["seconds_per_work"] = router.seconds_per_work
                return out
        finally:
            if locked:
                self._lock.release()

    def router_counters(self) -> tuple[int, int]:
        """Monotone ``(routes, reroutes)`` for per-call attribution (0 if unused)."""
        with self._lock:
            if self._router is None:
                return (0, 0)
            s = self._router.stats
            return (s.routes, s.reroutes)

    def work_counters(self) -> tuple[int, int, int, int, int]:
        """Monotone ``(plan misses, plan hits, compiles, routes, reroutes)``.

        One snapshot under the lock: the session layer differences two of
        these around a call to charge the call's engine work to its session.
        """
        with self._lock:
            return (self.plan_misses, self.plan_hits, self.vectorized_compiles(),
                    *self.router_counters())

    def close(self) -> None:
        """Release the parallel worker pool (idempotent; other state is GC'd).

        Engines are usually process-lived; tests and benchmarks that churn
        through many parallel engines call this to drop pool threads eagerly
        instead of waiting for garbage collection.
        """
        with self._lock:
            if self._parallel is not None:
                self._closed_worker_compiles += self._parallel.stats.worker_compiles
                self._parallel.close()
                self._parallel = None

    def _to_value(self, db) -> Optional[Value]:
        """Coerce an input to a complex object value.

        Accepted, in order: ``None``; a ready :class:`Value`; a flat
        :class:`~repro.relational.relation.Relation`; any object implementing
        the documented conversion hook ``__nra_value__() -> Value`` (how
        custom containers opt in -- merely *having* an unrelated ``value``
        attribute no longer makes an object an input, it is converted like
        plain data or rejected); plain python data via
        :func:`~repro.objects.values.from_python`.
        """
        if db is None:
            return None
        if isinstance(db, Value):
            return db
        if isinstance(db, Relation):
            return db.value()
        hook = getattr(type(db), "__nra_value__", None)
        if hook is not None:
            converted = hook(db)
            if not isinstance(converted, Value):
                raise TypeError(
                    f"__nra_value__ of {type(db).__name__} returned "
                    f"{converted!r}, not a complex object value"
                )
            return converted
        return from_python(db)
