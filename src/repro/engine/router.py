"""The adaptive cost-based backend router behind ``Engine(backend="auto")``.

Two of the run backends are candidates, ``vectorized`` and ``parallel``
(``reference`` is the oracle, ``incremental`` an explain-only view).  This
module estimates how expensive a query is at catalog scale with the
work/depth cost semantics, picks the backend (and join order), then
**adapts** -- it records what actually happened and re-routes
when reality contradicts the estimate by an order of magnitude.

How a decision is made
----------------------

1. **Statistics.**  :class:`CollectionStats` (count + a small canonical
   sample, maintained O(1) per commit by :class:`repro.api.catalog.Database`)
   give the full cardinalities; the samples give representative data.
2. **Estimation.**  :func:`repro.nra.cost.estimate_cost` runs the work/depth
   cost semantics on inputs truncated to two small caps, fits a power law
   through the two observations and extrapolates work/depth to the full
   counts.  External functions are *stubbed* with typed placeholders during
   estimation -- routing must never execute a real oracle call.
3. **Join order.**  Equi-joins (the :func:`match_join_apply` shape) are
   rewritten so the **smaller** side is streamed and the larger side gets
   the reusable cached hash index -- the right orientation for the prepared
   steady-state regime, where the index is built once and every execute pays
   only the probe side.
4. **Decision.**  ``ext`` over external calls with at least
   ``MIN_PARALLEL_N`` estimated elements routes to ``parallel`` (latency
   overlap is the one thing Python threads genuinely win; the input is cut
   into one canonical run per worker).  Everything else routes to
   ``vectorized``.  CPU-bound work is *never* routed to ``parallel``: under
   the GIL the thread pool loses (DESIGN.md's parallel section has the
   measurement).
5. **Adaptation.**  Every routed run's wall-clock time is recorded.  A
   calibration EWMA maps cost-model work units to seconds.  When an observed
   runtime exceeds the current prediction by ``MISS_FACTOR`` (10x), the
   router re-decides from the corrected cost; once two backends have been
   measured for a template it pins the measured argmin (no oscillation).
   Runs merely *faster* than predicted only recalibrate -- a backend beating
   its estimate is not evidence another backend would do better.  Every
   re-route is kept in the record's history, which ``explain_plan`` renders
   as ``route-history`` nodes in the "why this backend" trace.

Thread safety: a :class:`Router` is engine-scoped state, mutated only under
the engine lock (the same contract as the plan cache and intern table).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from ..nra import ast
from ..nra.ast import Expr, map_children, subexpressions
from ..nra.cost import CostDenotation, CostEstimate, estimate_cost
from ..nra.externals import ExternalFunction, Signature
from ..nra.pretty import pretty
from ..objects.types import BaseType, BoolType, ProdType, SetType, Type, UnitType
from ..objects.values import BaseVal, BoolVal, PairVal, SetVal, UnitVal, Value, canonical_set
from ..obs.metrics import Counters
from .shapes import match_join_apply
from .vectorized.plan import PlanNode, leaf, node

# ---------------------------------------------------------------------------
# Catalog statistics
# ---------------------------------------------------------------------------

#: Elements kept per collection sample (canonical prefix of the sorted tuple).
SAMPLE_CAP = 16


@dataclass(frozen=True)
class CollectionStats:
    """Incremental per-collection statistics the catalog maintains.

    ``count`` is the exact top-level cardinality, ``sample`` a canonical
    value holding at most :data:`SAMPLE_CAP` elements (a legal sub-instance:
    a prefix of a sorted canonical tuple is itself sorted), ``updates`` the
    number of commits that touched the collection since registration.  All
    three are O(1) to maintain because collection values are already stored
    as canonical sorted tuples.
    """

    count: int
    sample: Value
    updates: int = 0

    def as_dict(self) -> dict:
        return {"count": self.count, "updates": self.updates}


def collection_stats(value: Value, updates: int = 0) -> CollectionStats:
    """Statistics for one collection value (O(1): slice of a sorted tuple)."""
    if isinstance(value, SetVal):
        return CollectionStats(
            count=len(value),
            sample=canonical_set(value.elements[:SAMPLE_CAP]),  # a prefix stays canonical
            updates=updates,
        )
    return CollectionStats(count=1, sample=value, updates=updates)


def placeholder_value(t: Type) -> Value:
    """A minimal value of type ``t`` (estimation stand-in for unknowns).

    Used for unbound prepared-statement parameters and for stubbed external
    results during cost estimation; sets get one element so downstream
    operators see non-degenerate (but tiny) inputs.
    """
    if isinstance(t, BoolType):
        return BoolVal(False)
    if isinstance(t, UnitType):
        return UnitVal()
    if isinstance(t, ProdType):
        return PairVal(placeholder_value(t.fst), placeholder_value(t.snd))
    if isinstance(t, SetType):
        return SetVal([placeholder_value(t.elem)])
    if isinstance(t, BaseType):
        return BaseVal(0)
    raise TypeError(f"no placeholder for type {t!r}")


def stub_signature(sigma: Signature) -> Signature:
    """``sigma`` with every implementation replaced by a typed placeholder.

    Cost estimation runs the cost semantics, which *calls* external
    functions; routing must never execute a real oracle (it may block, sleep,
    or have side effects), so estimates price externals at the model's one
    unit and see only a placeholder of the declared codomain.
    """
    return Signature(
        ExternalFunction(
            f.name,
            f.arg_type,
            f.result_type,
            # Polymorphic externals (type_rule, no fixed result type) get an
            # atom: every shipped one (card/sum/max) is atom-valued anyway,
            # and estimation only needs *a* value of plausible size.
            (
                lambda v, t=f.result_type: placeholder_value(t)
                if t is not None
                else BaseVal(0)
            ),
            f"stub of {f.name} (router estimation)",
            type_rule=f.type_rule,
        )
        for f in sigma
    )


# ---------------------------------------------------------------------------
# Decisions and records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RouteDecision:
    """What the router chose for one template, and why."""

    backend: str
    expr: Expr  # the expression to execute (possibly join-reordered)
    join_swaps: int
    estimate: Optional[CostEstimate]
    predicted_s: Optional[float]
    reason: str


@dataclass(frozen=True)
class RerouteEvent:
    """One adaptation step: the estimate missed, the route changed (or not)."""

    from_backend: str
    to_backend: str
    predicted_s: float
    observed_s: float
    reason: str


@dataclass
class RouteRecord:
    """Everything the router knows about one template."""

    decision: RouteDecision
    #: The cost model's *original* prediction (seconds) and backend for this
    #: template, frozen at decision time.  ``record_runtime`` overwrites
    #: ``decision.predicted_s`` with the measured EWMA as it adapts, so the
    #: predicted-vs-actual accuracy report needs the pristine value here.
    predicted_s0: Optional[float] = None
    backend0: str = ""
    runs: int = 0
    total_s: float = 0.0
    #: EWMA of observed seconds per backend actually run.
    measured: dict[str, float] = field(default_factory=dict)
    history: list[RerouteEvent] = field(default_factory=list)


@dataclass(slots=True)
class RouterStats(Counters):
    """Monotone counters; the session/service layers difference these."""

    routes: int = 0  # fresh decisions
    route_hits: int = 0  # cached decisions served
    reroutes: int = 0  # adaptation flips (order-of-magnitude misses)
    recalibrations: int = 0  # overshoot events (prediction corrected, route kept)
    estimate_failures: int = 0
    joins_reordered: int = 0
    runs_recorded: int = 0


def _has_parallel_externals(e: Expr) -> bool:
    """Does ``e`` fan an external call out over a set (``ext`` shape)?

    This is the workload class where the parallel backend genuinely wins:
    many concurrent waiters overlapping external latency.
    """
    for sub in subexpressions(e):
        if isinstance(sub, ast.Ext):
            if any(isinstance(s, ast.ExternalCall) for s in subexpressions(sub.func)):
                return True
    return False


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------


class Router:
    """Per-engine routing state: decide once per template, adapt per run."""

    #: Order-of-magnitude miss that triggers adaptation.
    MISS_FACTOR = 10.0
    #: Minimum full cardinality before the parallel backend is considered.
    MIN_PARALLEL_N = 16
    #: Smoothing for per-backend measured runtimes.
    EWMA = 0.5
    #: Smoothing for the work-units -> seconds calibration.
    CALIBRATION_EWMA = 0.3
    #: Initial guess for seconds per cost-model work unit (recalibrated from
    #: the first recorded run onward).
    INITIAL_SECONDS_PER_WORK = 2e-7

    def __init__(self, sigma: Signature, workers: int) -> None:
        self.sigma = sigma
        self.workers = workers
        self.seconds_per_work = self.INITIAL_SECONDS_PER_WORK
        self.records: dict[Expr, RouteRecord] = {}
        self.stats = RouterStats()
        #: Estimation seam: tests inject fabricated estimates here to drive
        #: the adaptation path deterministically.
        self.estimator = estimate_cost
        self._stub_sigma = stub_signature(sigma)

    # -- routing ------------------------------------------------------------------

    def route(
        self,
        e: Expr,
        arg: Optional[Value] = None,
        env: Optional[Mapping[str, CostDenotation]] = None,
        counts: Optional[Mapping[str, int]] = None,
    ) -> RouteDecision:
        """The decision for ``e`` (cached per template; adaptation updates it).

        ``env``/``arg`` supply (sample) input values for estimation;
        ``counts`` the full cardinalities when the values are samples (the
        catalog path).  With full values and no counts, counts default to
        the actual sizes.
        """
        rec = self.records.get(e)
        if rec is not None:
            # A statistics-free default (e.g. from an explain before any
            # run) is upgraded once real inputs appear; everything else --
            # including adapted decisions -- is served from the cache.
            stale_default = (
                rec.decision.estimate is None
                and rec.runs == 0
                and not rec.history
                and (arg is not None or bool(env))
            )
            if not stale_default:
                self.stats.route_hits += 1
                return rec.decision
        self.stats.routes += 1
        expr, swaps = self._reorder_joins(e, env, arg, counts)
        estimate = self.estimate(expr, arg=arg, env=env, counts=counts)
        decision = self._decide(expr, estimate, swaps)
        if swaps:
            self.stats.joins_reordered += swaps
        self.records[e] = RouteRecord(
            decision=decision,
            predicted_s0=decision.predicted_s,
            backend0=decision.backend,
        )
        return decision

    def estimate(
        self,
        e: Expr,
        arg: Optional[Value] = None,
        env: Optional[Mapping[str, CostDenotation]] = None,
        counts: Optional[Mapping[str, int]] = None,
    ) -> Optional[CostEstimate]:
        """The work/depth estimate for ``e`` with externals stubbed.

        ``None`` (and an ``estimate_failures`` tick) when the cost
        semantics cannot run the expression -- routing and profiling both
        degrade gracefully.
        """
        try:
            return self.estimator(
                e, arg=arg, env=dict(env or {}), sigma=self._stub_sigma,
                counts=counts,
            )
        except Exception:
            self.stats.estimate_failures += 1
            return None

    def _decide(
        self, expr: Expr, est: Optional[CostEstimate], swaps: int
    ) -> RouteDecision:
        fan_out = _has_parallel_externals(expr)
        if est is None:
            return RouteDecision(
                backend="vectorized", expr=expr, join_swaps=swaps,
                estimate=None, predicted_s=None,
                reason="estimate unavailable; defaulting to vectorized",
            )
        n = est.full_n
        if fan_out and n >= self.MIN_PARALLEL_N:
            backend, reason = "parallel", (
                f"ext over external calls, n~{n}: overlap call latency "
                f"across {self.workers} workers"
            )
        else:
            backend, reason = "vectorized", (
                f"estimated work ~{est.work:.0f} (exponent ~{est.exponent:.2f}, "
                f"n~{n}): set-at-a-time kernels"
            )
        return RouteDecision(
            backend=backend, expr=expr, join_swaps=swaps,
            estimate=est, predicted_s=est.work * self.seconds_per_work,
            reason=reason,
        )

    # -- join order ---------------------------------------------------------------

    def _reorder_joins(
        self,
        e: Expr,
        env: Optional[Mapping[str, CostDenotation]],
        arg: Optional[Value],
        counts: Optional[Mapping[str, int]],
    ) -> tuple[Expr, int]:
        """Swap equi-join sides so the smaller side is streamed.

        The vectorized compiler builds its reusable hash index on the right
        (inner) source and streams the left (outer) one per execute, so in
        the prepared steady state each execute costs the probe side.  Only
        joins between base collections of *known* size are touched, and only
        when the swap is capture-free (see :func:`match_join_apply`).
        """
        def size_of(src: Expr) -> Optional[int]:
            if not isinstance(src, ast.Var):
                return None
            if counts and src.name in counts:
                return counts[src.name]
            if env is not None and src.name in env:
                v = env[src.name]
                if isinstance(v, SetVal):
                    return len(v)
            return None

        swaps = 0

        def walk(x: Expr) -> Expr:
            nonlocal swaps
            shape = match_join_apply(x)
            if shape is not None:
                left_n = size_of(shape.left_source)
                right_n = size_of(shape.right_source)
                if (
                    left_n is not None
                    and right_n is not None
                    and left_n > 2 * right_n
                ):
                    swaps += 1
                    # Sources are base Vars: nothing below them to rewrite.
                    return shape.swapped()
            return map_children(x, walk)

        return walk(e), swaps

    # -- adaptation ---------------------------------------------------------------

    def record_runtime(self, e: Expr, backend: str, seconds: float) -> None:
        """Fold one observed run into the record; maybe re-route.

        Called by the engine (under its lock) after every routed run.
        """
        rec = self.records.get(e)
        if rec is None:
            return
        self.stats.runs_recorded += 1
        rec.runs += 1
        rec.total_s += seconds
        prev = rec.measured.get(backend)
        rec.measured[backend] = (
            seconds if prev is None
            else (1 - self.EWMA) * prev + self.EWMA * seconds
        )
        d = rec.decision
        if (
            backend == d.backend
            and d.estimate is not None
            and d.estimate.work > 0
            and seconds > 0
        ):
            spw = seconds / d.estimate.work
            self.seconds_per_work = (
                (1 - self.CALIBRATION_EWMA) * self.seconds_per_work
                + self.CALIBRATION_EWMA * spw
            )
        predicted = d.predicted_s
        if predicted is None or predicted <= 0:
            rec.decision = replace(d, predicted_s=rec.measured[backend])
            return
        if seconds >= predicted * self.MISS_FACTOR:
            self._reroute(rec, backend, seconds)
        elif seconds * self.MISS_FACTOR <= predicted:
            # Overshoot: the routed backend *beat* the prediction by 10x.
            # That is a calibration error, not evidence against the route --
            # correct the prediction, keep the backend, remember the event.
            self.stats.recalibrations += 1
            rec.history.append(
                RerouteEvent(
                    from_backend=d.backend, to_backend=d.backend,
                    predicted_s=predicted, observed_s=seconds,
                    reason="observed >=10x faster than predicted: recalibrated",
                )
            )
            rec.decision = replace(d, predicted_s=rec.measured[backend])
        else:
            # Track reality so drift (e.g. a growing database) is judged
            # against the latest belief, not the original estimate.
            rec.decision = replace(d, predicted_s=rec.measured[backend])

    def _reroute(self, rec: RouteRecord, backend: str, seconds: float) -> None:
        d = rec.decision
        if len(rec.measured) >= 2:
            # Two backends measured: pin the argmin; estimates no longer vote.
            new_backend = min(rec.measured, key=rec.measured.__getitem__)
            new_predicted = rec.measured[new_backend]
            reason = (
                f"measured argmin over {sorted(rec.measured)}: "
                f"{new_backend} at {new_predicted * 1e3:.2f}ms"
            )
        else:
            # Re-decide from the corrected cost implied by the observation.
            corrected_work = seconds / max(self.seconds_per_work, 1e-12)
            corrected = (
                replace(d.estimate, work=corrected_work)
                if d.estimate is not None
                else CostEstimate(
                    work=corrected_work, depth=corrected_work, exponent=1.0,
                    sample_n=0, full_n=0,
                )
            )
            fresh = self._decide(d.expr, corrected, d.join_swaps)
            new_backend = fresh.backend
            new_predicted = seconds if new_backend == backend else fresh.predicted_s
            reason = (
                f"observed {seconds * 1e3:.2f}ms >= 10x predicted "
                f"{d.predicted_s * 1e3:.2f}ms: corrected work "
                f"~{corrected_work:.0f} -> {new_backend}"
            )
        self.stats.reroutes += 1
        rec.history.append(
            RerouteEvent(
                from_backend=d.backend, to_backend=new_backend,
                predicted_s=d.predicted_s, observed_s=seconds, reason=reason,
            )
        )
        rec.decision = replace(
            d, backend=new_backend, predicted_s=new_predicted, reason=reason
        )

    # -- introspection ------------------------------------------------------------

    def trace(self, e: Expr, inner: PlanNode) -> PlanNode:
        """The "why this backend" plan tree wrapped around the routed plan."""
        rec = self.records.get(e)
        if rec is None:
            return node("route", "auto (no decision recorded)", inner)
        d = rec.decision
        children: list[PlanNode] = []
        if d.estimate is not None:
            est = d.estimate
            kind = "exact" if est.exact else f"extrapolated from n={est.sample_n}"
            children.append(
                leaf(
                    "route-estimate",
                    f"work~{est.work:.0f} depth~{est.depth:.0f} "
                    f"exponent~{est.exponent:.2f} n={est.full_n} ({kind})",
                )
            )
        else:
            children.append(leaf("route-estimate", "unavailable"))
        detail = d.reason
        if d.join_swaps:
            detail += f"; join sides swapped x{d.join_swaps}"
        children.append(leaf("route-decision", detail))
        for ev in rec.history:
            children.append(
                leaf(
                    "route-history",
                    f"{ev.from_backend} -> {ev.to_backend}: {ev.reason}",
                )
            )
        return node("route", f"auto -> {d.backend}", *children, inner)

    def as_dict(self) -> dict:
        """Routing stats for ``Engine.router_stats`` / the service ``status``."""
        by_backend: dict[str, int] = {}
        for rec in self.records.values():
            b = rec.decision.backend
            by_backend[b] = by_backend.get(b, 0) + 1
        out = self.stats.as_dict()
        out["templates"] = len(self.records)
        out["backends"] = dict(sorted(by_backend.items()))
        out["seconds_per_work"] = self.seconds_per_work
        out["accuracy"] = self._accuracy()
        return out

    def _accuracy(self) -> list[dict]:
        """Per-template predicted-vs-actual cost (the model's report card).

        ``predicted_s`` is the *original* estimate-derived prediction
        (``RouteRecord.predicted_s0``: adaptation overwrites the live
        decision's prediction with measured EWMAs, which would make the
        model grade its own homework); ``measured_s`` is the runtime EWMA
        of the backend currently routed to (falling back to any measured
        backend); ``ratio`` is predicted/measured, so 1.0 is a perfect
        model, >1 overestimates, <1 underestimates.
        """
        report: list[dict] = []
        for e, rec in self.records.items():
            if rec.predicted_s0 is None or not rec.measured:
                continue
            measured = rec.measured.get(rec.decision.backend)
            if measured is None:
                measured = next(iter(rec.measured.values()))
            if measured <= 0:
                continue
            label = pretty(e)
            if len(label) > 80:
                label = label[:77] + "..."
            report.append(
                {
                    "template": label,
                    "backend": rec.decision.backend,
                    "predicted_backend": rec.backend0,
                    "predicted_s": rec.predicted_s0,
                    "measured_s": measured,
                    "ratio": rec.predicted_s0 / measured,
                    "runs": rec.runs,
                }
            )
        return report

    def clear(self) -> None:
        """Forget all decisions (paired with ``Engine.clear_plans``)."""
        self.records.clear()

    def retain(self, live: set) -> None:
        """Forget the decisions for templates not in ``live`` (plan eviction)."""
        self.records = {e: r for e, r in self.records.items() if e in live}
