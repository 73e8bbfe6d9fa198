"""Sessions: the per-client face of the query service.

A :class:`Session` ties together one :class:`~repro.api.catalog.Database`,
one :class:`~repro.engine.Engine`, and per-session bookkeeping:

* ``execute(query, params=...)`` -- elaborate a fluent
  :class:`~repro.api.query.Query` (or accept a raw :class:`Expr`) against the
  database schema, reduce it to its canonical template
  (:func:`~repro.api.prepare.canonical_template`: literals become defaulted
  slots, binder names a function of the term), evaluate that with
  collections, parameters and literals supplied through the environment,
  and hand back a streaming :class:`~repro.api.cursor.Cursor` -- one rewrite
  + one vectorized compile per query *shape*, prepared or not;
* ``prepare(query)`` -- the same template held as a statement: the split and
  the cache warm-up are paid once, ahead of the first binding;
* ``executemany(query, bindings)`` -- the batch path; templates with one
  open parameter are closed into a unary function and delegated to
  ``Engine.run_many``, so the whole batch shares one compiled plan, one
  intern table and all join indexes;
* ``stats`` -- per-session counters (executes, rewrites, vectorized
  compiles, plan-cache hits, rows streamed), fed by the engine's own
  plan-cache and backend counters.

Sessions are cheap: many sessions can share one engine (pass ``engine=``) and
therefore its plan caches -- the engine serializes cache access internally
(see the concurrency note in :class:`repro.engine.Engine`) -- or own a
private engine (the default), which is the one-engine-per-worker-thread
deployment shape.  The database is always shareable; its collection values
are immutable and interned into the session engine's table once per engine,
in the :class:`~repro.api.catalog.Snapshot` every session and view of that
engine reads; commits advance the snapshot by their changeset, so a read
after a write re-interns nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..engine.engine import Engine
from ..engine.incremental.view import MaterializedView
from ..engine.router import placeholder_value
from ..nra.ast import Expr, Lambda, free_variables
from ..nra.externals import EMPTY_SIGMA, Signature
from ..objects.values import Value, from_python
from ..obs.profile import QueryProfile
from .catalog import Database
from .cursor import Cursor
from .prepare import PreparedStatement, canonical_template
from .query import Query, param_var


@dataclass
class SessionStats:
    """Counters for one session's lifetime (see DESIGN.md, query-service layer)."""

    executes: int = 0
    batches: int = 0
    prepares: int = 0
    prepared_hits: int = 0
    rewrites: int = 0          # engine plan-cache misses caused by this session
    plan_hits: int = 0         # engine plan-cache hits observed by this session
    vec_compiles: int = 0      # vectorized subexpression compiles caused
    rows_streamed: int = 0     # python rows handed out by cursors
    materializes: int = 0      # views created by this session
    delta_applies: int = 0     # changesets absorbed by this session's views
    fallback_recomputes: int = 0  # view applies that fell back to recompute
    view_rows_touched: int = 0    # view result rows inserted + deleted
    dred_overdeletes: int = 0     # elements over-deleted by delete/rederive
    dred_rederives: int = 0       # over-deleted elements rederivation re-proved
    # Flat-column attribution (see repro.engine.vectorized.flat): which of
    # this session's work ran on dense-id arrays rather than objects.  Read
    # from the engine's per-call stats, so a shared engine attributes each
    # run to exactly one session.
    flat_joins: int = 0           # hash joins executed on id columns
    flat_dedups: int = 0          # array-level dedup/materialization passes
    # Adaptive-router attribution (engines with backend="auto"): fresh
    # routing decisions made for this session's templates, and adaptation
    # flips after observed runtimes contradicted an estimate by >= 10x.
    routes: int = 0
    reroutes: int = 0

    def snapshot(self) -> "SessionStats":
        return SessionStats(**{f: getattr(self, f) for f in self.__dataclass_fields__})

    def as_dict(self) -> dict:
        """A plain-dict snapshot (JSON-ready; the wire service's stats frames)."""
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


#: What ``execute``/``prepare`` accept: a fluent query, a prepared statement,
#: or a raw NRA expression.
Runnable = Union[Query, PreparedStatement, Expr]


class Session:
    """One client's window onto a database and an engine."""

    def __init__(
        self,
        db: Optional[Database] = None,
        engine: Optional[Engine] = None,
        backend: str = "vectorized",
        sigma: Signature = EMPTY_SIGMA,
        rules=None,
    ) -> None:
        self.db = db
        self.engine = engine if engine is not None else Engine(
            sigma=sigma, rules=rules, backend=backend
        )
        self.stats = SessionStats()
        self.closed = False
        self._lock = threading.RLock()
        # The engine's snapshot of the database, taken on the first read and
        # held (it follows commits only while someone holds it) until close.
        self._snapshot = None
        # Keyed on (template, defaults, backend): two queries whose literals
        # differ share the template but not the defaults, and must not share
        # a statement.
        self._prepared: dict[tuple, PreparedStatement] = {}
        # Views this session materialized; closed (and hence unregistered
        # from the database) with the session, so short-lived sessions do
        # not leak standing maintenance work.
        self._views: list[MaterializedView] = []

    # -- context management -------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drop prepared statements and this session's views; refuse further work."""
        with self._lock:
            self._prepared.clear()
            views, self._views = self._views, []
            self._snapshot = None
            self.closed = True
        for v in views:
            v.close()

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("session is closed")

    # -- environment / schema plumbing --------------------------------------------

    def schema(self) -> dict:
        return self.db.schema() if self.db is not None else {}

    def _environment(self) -> dict[str, Value]:
        """The database's collections as interned in the engine's snapshot.

        Read-only (copy before binding).  No session lock: making the snapshot
        waits for the commit lock, whose holder may be waiting for ours.
        """
        if self.db is None:
            return {}
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = self.db.snapshot(self.engine)
        return snapshot.env

    def _template_of(self, query: Runnable) -> tuple[Expr, dict, dict, str]:
        """(template, param types, default bindings, label) for any runnable.

        The one place a session turns a query into what the engine's caches
        key on: everything but a prepared statement (whose template already
        is) goes through :func:`~repro.api.prepare.canonical_template`, so
        literals travel as defaulted slots and binder names say nothing.
        """
        if isinstance(query, PreparedStatement):
            return query.template, query.param_types, query.defaults, query.label
        if isinstance(query, Query):
            el = query.elaborate(self.schema(), self.engine.sigma)
            template, ptypes, defaults = canonical_template(el.expr)
            ptypes.update(el.params)
            return template, ptypes, defaults, query.label
        if isinstance(query, Expr):
            return (*canonical_template(query), "expr")
        raise TypeError(f"cannot execute {query!r}; expected Query, prepared or Expr")

    def _bind(self, param_types: dict, defaults: dict, params: Optional[dict]) -> dict:
        """Parameter bindings -> ``$``-namespaced, interned environment entries."""
        given = dict(params or {})
        unknown = [k for k in given if k not in param_types]
        if unknown:
            raise KeyError(
                f"unknown parameter(s) {sorted(unknown)}; "
                f"this query declares {sorted(param_types)}"
            )
        env: dict[str, Value] = {}
        intern = self.engine.intern
        for name in param_types:
            if name in given:
                v = given[name]
                value = v if isinstance(v, Value) else from_python(v)
            elif name in defaults:
                value = defaults[name]
            else:
                raise KeyError(f"parameter {name!r} is unbound and has no default")
            env[param_var(name)] = intern(value)
        return env

    # -- execution ----------------------------------------------------------------

    def execute(
        self,
        query: Runnable,
        params: Optional[dict] = None,
        backend: Optional[str] = None,
        optimize: bool = True,
    ) -> Cursor:
        """Elaborate, optimize (cached), evaluate; returns a streaming cursor."""
        self._check_open()
        if isinstance(query, PreparedStatement):
            backend = backend if backend is not None else query.backend
        template, ptypes, defaults, _ = self._template_of(query)
        env = dict(self._environment())
        env.update(self._bind(ptypes, defaults, params))
        value = self._run(template, env, backend, optimize)
        return self._cursor(value)

    def _execute_prepared(self, ps: PreparedStatement, params: dict) -> Cursor:
        return self.execute(ps, params=params)

    def explain_analyze(
        self,
        query: Runnable,
        params: Optional[dict] = None,
        optimize: bool = True,
    ) -> QueryProfile:
        """Execute once with per-plan-node instrumentation (explain analyze).

        Runs the query through :meth:`repro.engine.Engine.profile`: a
        throwaway instrumented vectorized evaluator measures actual time,
        rows, and call counts per plan node, rendered beside the
        work/depth cost-semantics prediction -- ``print(profile)`` shows
        the annotated tree.  Counts as one execute in the session stats
        (profiled runs never touch the engine's steady-state compile
        caches); the result is available as ``profile.result``.
        """
        self._check_open()
        template, ptypes, defaults, _ = self._template_of(query)
        env = dict(self._environment())
        env.update(self._bind(ptypes, defaults, params))
        with self.engine.lock:
            before_misses = self.engine.plan_misses
            before_hits = self.engine.plan_hits
            profile = self.engine.profile(template, env=env, optimize=optimize)
            misses = self.engine.plan_misses - before_misses
            hits = self.engine.plan_hits - before_hits
        with self._lock:
            self.stats.executes += 1
            self.stats.rewrites += misses
            self.stats.plan_hits += hits
        return profile

    def executemany(
        self,
        query: Runnable,
        bindings: Iterable,
        backend: Optional[str] = None,
    ) -> list[Cursor]:
        """Run one query over many parameter bindings, caches shared batch-wide.

        ``bindings`` is an iterable of parameter dicts (or, for queries with
        one open parameter, bare values).  A template with a single slot
        that has no default -- literals are slots too, but theirs are bound
        once for the whole batch -- is closed into a unary function over
        that slot and delegated to ``Engine.run_many``: one compiled plan,
        one intern table and all join indexes serve the whole batch.
        Templates with several open parameters fall back to per-binding
        execution, which still hits every template-keyed cache.
        """
        self._check_open()
        template, ptypes, defaults, label = self._template_of(query)
        bindings = list(bindings)
        with self._lock:
            self.stats.batches += 1
        if backend is None and isinstance(query, PreparedStatement):
            backend = query.backend
        open_slots = [n for n in ptypes if n not in defaults] or list(ptypes)
        if len(open_slots) == 1:
            (name,) = open_slots
            slot, var = {name: ptypes[name]}, param_var(name)
            values = [
                self._bind(slot, defaults, b if isinstance(b, dict) else {name: b})[var]
                for b in bindings
            ]
            shared = {n: t for n, t in ptypes.items() if n != name}
            env = dict(self._environment())
            env.update(self._bind(shared, defaults, None))
            closed = Lambda(var, ptypes[name], template)
            return [self._cursor(v) for v in self._run_many(closed, values, env, backend)]
        # Split once for the whole batch, not once per binding.
        statement = PreparedStatement(self, template, ptypes, defaults, label, backend)
        out = []
        for b in bindings:
            if not isinstance(b, dict):
                raise TypeError(
                    "multi-parameter executemany needs dict bindings, "
                    f"got {b!r} for parameters {sorted(open_slots)}"
                )
            out.append(self.execute(statement, params=b))
        return out

    def prepare(self, query: Runnable, backend: Optional[str] = None) -> PreparedStatement:
        """Split into template + slots and warm the template's caches.

        The split is :func:`~repro.api.prepare.canonical_template`'s, as for
        every other entry point: each ``Const`` becomes a slot with its
        original value as default, beside the ``Q.param`` slots.  Preparing
        the same template with the same defaults twice returns the cached
        statement.
        """
        self._check_open()
        if isinstance(query, PreparedStatement):
            return query
        return self.prepare_template(*self._template_of(query), backend)

    def prepare_template(
        self,
        template: Expr,
        param_types: dict,
        defaults: dict,
        label: str = "prepared",
        backend: Optional[str] = None,
    ) -> PreparedStatement:
        """Prepare an already-split template (the wire service's entry point).

        ``prepare`` computes the template/slot split from a runnable and
        delegates here; remote callers (:mod:`repro.service`) ship the split
        explicitly -- template text, parameter types, default bindings -- and
        this method gives them the same cache-and-warm behaviour without
        re-deriving slots from a tree whose parameters are already free
        variables.
        """
        self._check_open()
        ptypes, defaults = dict(param_types), dict(defaults)
        cache_key = (template, tuple(sorted(defaults.items())), backend)
        with self._lock:
            found = self._prepared.get(cache_key)
            if found is not None:
                self.stats.prepared_hits += 1
                return found
        # Warm the rewrite and (for the vectorized backend) the compiled plan
        # now, so the first execute is as cheap as the hundredth.  Counter
        # deltas are taken under the engine lock for exact attribution.
        chosen = backend if backend is not None else self.engine.backend
        with self.engine.lock:
            before_misses = self.engine.plan_misses
            before_hits = self.engine.plan_hits
            before_compiles = self.engine.vectorized_compiles()
            before_routes, before_reroutes = self.engine.router_counters()
            self.engine.optimize(template)
            if chosen == "auto":
                # Route from catalog statistics (counts + samples) before any
                # execution, then warm the *routed* backend's plan -- the
                # explain trace compiles through the decision.
                self._route_template(template, ptypes, defaults)
                self.engine.explain_plan(template, backend="auto")
            elif chosen in ("vectorized", "parallel"):
                # Warming the parallel view also runs the shard analysis and
                # compiles the shard-local template through the driver.
                self.engine.explain_plan(template, backend=chosen)
            misses = self.engine.plan_misses - before_misses
            hits = self.engine.plan_hits - before_hits
            compiles = self.engine.vectorized_compiles() - before_compiles
            after_routes, after_reroutes = self.engine.router_counters()
        ps = PreparedStatement(self, template, ptypes, defaults, label, backend)
        with self._lock:
            self.stats.prepares += 1
            self.stats.rewrites += misses
            # The warm-up's second look at the plan cache is a hit; count it
            # here so engine totals always equal the per-session sums (the
            # invariant the concurrency stress suite asserts).
            self.stats.plan_hits += hits
            self.stats.vec_compiles += compiles
            self.stats.routes += after_routes - before_routes
            self.stats.reroutes += after_reroutes - before_reroutes
            self._prepared[cache_key] = ps
        return ps

    def _route_template(self, template: Expr, ptypes: dict, defaults: dict):
        """Feed catalog statistics through the engine's router (prepare path).

        Collections referenced by the template contribute their catalog
        *samples* as estimation inputs and their exact counts for
        extrapolation; parameters contribute their default values, or typed
        placeholders when unbound -- routing happens before any binding
        exists.
        """
        names = free_variables(template)
        env: dict[str, Value] = {}
        counts: dict[str, int] = {}
        if self.db is not None:
            for name, st in self.db.stats().items():
                if name in names:
                    env[name] = st.sample
                    counts[name] = st.count
        for pname, ptype in ptypes.items():
            var = param_var(pname)
            if var not in names:
                continue
            if pname in defaults:
                env[var] = defaults[pname]
            else:
                env[var] = placeholder_value(ptype)
        return self.engine.route(template, env=env, counts=counts)

    # -- materialized views --------------------------------------------------------

    def materialize(
        self,
        query: Runnable,
        name: Optional[str] = None,
        params: Optional[dict] = None,
    ) -> MaterializedView:
        """Create a :class:`MaterializedView` maintained under database updates.

        The query is elaborated, its result computed once, and a maintenance
        plan compiled (delta rules where they are syntactic theorems,
        recompute fallbacks elsewhere -- ``view.maintenance_plan()`` shows
        which).  The view is registered with the session's database: every
        subsequent ``insert``/``delete``/``apply`` commit refreshes it before
        returning, and the session's stats aggregate the maintenance work
        (``delta_applies``, ``fallback_recomputes``, ``view_rows_touched``,
        and the delete/rederive counters ``dred_overdeletes`` /
        ``dred_rederives``).

        Parameters are bound *now* (views are standing queries, not
        templates); the result must be set-valued.  Works without a database
        too, in which case there is nothing to maintain and the view is just
        a cached result.  Views live until closed -- ``view.close()``
        unregisters from the database, and closing the session closes every
        view it materialized.
        """
        self._check_open()
        template, ptypes, defaults, label = self._template_of(query)

        def build() -> MaterializedView:
            env = dict(self._environment())
            env.update(self._bind(ptypes, defaults, params))
            collections = set(self.db) if self.db is not None else set()
            bases = frozenset(free_variables(template) & collections)
            with self.engine.lock:
                before_misses = self.engine.plan_misses
                before_hits = self.engine.plan_hits
                before_compiles = self.engine.vectorized_compiles()
                view = MaterializedView(
                    self.engine,
                    template,
                    env,
                    bases,
                    name=name if name is not None else label,
                    on_apply=self._view_applied,
                )
                misses = self.engine.plan_misses - before_misses
                hits = self.engine.plan_hits - before_hits
                compiles = self.engine.vectorized_compiles() - before_compiles
            with self._lock:
                self.stats.materializes += 1
                self.stats.rewrites += misses
                self.stats.plan_hits += hits
                self.stats.vec_compiles += compiles
            return view

        if self.db is not None:
            # Snapshot + build + register under the commit lock, so no commit
            # can land between the snapshot the view is built from and the
            # point it starts receiving changesets.
            with self.db._commit_lock:
                view = build()
                self.db.add_view(view)
                view.bind_registry(self.db)
        else:
            view = build()
        with self._lock:
            self._views.append(view)
        return view

    def _view_applied(self, view, delta, fallback: bool) -> None:
        with self._lock:
            self.stats.delta_applies += 1
            if fallback:
                self.stats.fallback_recomputes += 1
            self.stats.view_rows_touched += len(delta.inserted) + len(delta.deleted)
            self.stats.dred_overdeletes += delta.dred_overdeleted
            self.stats.dred_rederives += delta.dred_rederived

    # -- explain ------------------------------------------------------------------

    def explain(self, query: Runnable):
        """The engine's rewrite plan for the query's template."""
        template, _, _, _ = self._template_of(query)
        return self.engine.explain(template)

    def explain_plan(
        self, query: Runnable, optimize: bool = True, backend: Optional[str] = None
    ):
        """The operator tree for the query's template.

        By default the vectorized (or sharded) execution plan;
        ``backend="incremental"`` returns the maintenance-plan tree a
        materialized view of this query would use.
        """
        template, _, _, _ = self._template_of(query)
        return self.engine.explain_plan(template, optimize=optimize, backend=backend)

    # -- engine call-throughs with stats accounting --------------------------------

    def _run(self, template, env, backend, optimize) -> Value:
        # The engine lock (reentrant) is held across the counter snapshot,
        # the run and the delta reads, so with a shared engine each call's
        # rewrites/compiles are attributed to exactly one session.
        with self.engine.lock:
            before_misses = self.engine.plan_misses
            before_hits = self.engine.plan_hits
            before_compiles = self.engine.vectorized_compiles()
            before_routes, before_reroutes = self.engine.router_counters()
            result = self.engine.run(
                template, db=None, env=env, optimize=optimize, backend=backend
            )
            misses = self.engine.plan_misses - before_misses
            hits = self.engine.plan_hits - before_hits
            # Counter delta, not last_stats: uniform over backends (the
            # parallel backend compiles through the same driver evaluator).
            compiles = self.engine.vectorized_compiles() - before_compiles
            after_routes, after_reroutes = self.engine.router_counters()
            last = self.engine.last_stats
        with self._lock:
            self.stats.executes += 1
            self.stats.rewrites += misses
            self.stats.plan_hits += hits
            self.stats.vec_compiles += compiles
            self.stats.routes += after_routes - before_routes
            self.stats.reroutes += after_reroutes - before_reroutes
            self._absorb_flat(last)
        return result

    def _run_many(self, closed, values, env, backend) -> list[Value]:
        with self.engine.lock:
            before_misses = self.engine.plan_misses
            before_hits = self.engine.plan_hits
            before_compiles = self.engine.vectorized_compiles()
            before_routes, before_reroutes = self.engine.router_counters()
            results = self.engine.run_many(closed, values, env=env, backend=backend)
            misses = self.engine.plan_misses - before_misses
            hits = self.engine.plan_hits - before_hits
            compiles = self.engine.vectorized_compiles() - before_compiles
            after_routes, after_reroutes = self.engine.router_counters()
            last = self.engine.last_stats
        with self._lock:
            self.stats.executes += len(values)
            self.stats.rewrites += misses
            self.stats.plan_hits += hits
            self.stats.vec_compiles += compiles
            self.stats.routes += after_routes - before_routes
            self.stats.reroutes += after_reroutes - before_reroutes
            self._absorb_flat(last)
        return results

    def _absorb_flat(self, last) -> None:
        """Fold a per-call backend stats view into the session counters.

        ``last_stats`` is already the delta of the one run this session just
        made (taken under the engine lock), so addition is exact whatever
        backend produced it; counters a backend does not track read as 0.
        """
        for f in ("flat_joins", "flat_dedups"):
            setattr(self.stats, f, getattr(self.stats, f) + getattr(last, f, 0))

    def _cursor(self, value: Value) -> Cursor:
        def count_rows(n: int) -> None:
            with self._lock:
                self.stats.rows_streamed += n

        return Cursor(value, rows_hook=count_rows)

    def __repr__(self) -> str:
        dbname = self.db.name if self.db is not None else None
        return (
            f"<Session db={dbname!r} backend={self.engine.backend!r} "
            f"executes={self.stats.executes}>"
        )


def connect(
    db: Optional[Database] = None,
    backend: str = "vectorized",
    **kwargs,
) -> Session:
    """Open a session -- the one-liner front door of the query service."""
    return Session(db, backend=backend, **kwargs)
