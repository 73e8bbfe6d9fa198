"""The adaptive cost-based backend router behind ``Engine(backend="auto")``.

Covers the whole routing story: catalog statistics maintained O(1) per
commit, sample-based cost estimation with stubbed externals, the decision
policy (parallel only for external fan-out, vectorized otherwise), the join-order rewrite, the "why this backend" explain trace,
the unified backend-name validation, session/prepare integration -- and the
adaptation loop: a fabricated mis-estimate must be corrected by re-routing
once observed runtimes contradict it by an order of magnitude.
"""

import pytest

from repro.api.catalog import Database
from repro.engine import Engine, Router
from repro.engine.engine import BACKENDS, EXPLAIN_ONLY_BACKENDS
from repro.engine.router import (
    SAMPLE_CAP,
    collection_stats,
    placeholder_value,
    stub_signature,
)
from repro.nra import ast
from repro.nra.ast import (
    Apply,
    EmptySet,
    Eq,
    Ext,
    If,
    Lambda,
    Pair,
    Proj1,
    Proj2,
    Singleton,
    Var,
)
from repro.nra.cost import CostEstimate, estimate_cost
from repro.nra.eval import run as reference_run
from repro.nra.externals import EMPTY_SIGMA
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, PairVal, SetVal
from repro.relational.queries import reachable_pairs_query
from repro.workloads.databases import graph_database
from repro.workloads.graphs import path_graph
from repro.workloads.services import (
    enrichment_query,
    enrichment_sigma,
    enrichment_workload,
    request_ids,
)

pytestmark = pytest.mark.router

EDGE_T = ProdType(BASE, BASE)


def edge_set(pairs):
    return SetVal(PairVal(BaseVal(a), BaseVal(b)) for a, b in pairs)


# -- unified backend validation ---------------------------------------------------


class TestBackendValidation:
    """One validator, one message, both entry points."""

    def _message(self, call):
        with pytest.raises(ValueError) as info:
            call()
        return str(info.value)

    def test_all_entry_points_share_one_message(self):
        eng = Engine()
        msgs = {
            self._message(lambda: Engine(backend="bogus")),
            self._message(lambda: eng.explain_plan(Var("x"), backend="bogus")),
        }
        assert len(msgs) == 1
        (msg,) = msgs
        assert "unknown backend 'bogus'" in msg
        for name in BACKENDS + EXPLAIN_ONLY_BACKENDS:
            assert name in msg

    def test_incremental_is_explain_only(self):
        msg = self._message(lambda: Engine(backend="incremental"))
        assert "incremental" in msg  # named as explain-only, not unknown
        plan = Engine().explain_plan(Var("edges"), backend="incremental")
        assert "ivm" in str(plan)

    def test_auto_is_a_run_backend(self):
        assert "auto" in BACKENDS
        eng = Engine(backend="auto")
        assert eng.run(ast.Singleton(ast.Const(BaseVal(1), BASE))) == SetVal(
            [BaseVal(1)]
        )


# -- cost estimation --------------------------------------------------------------


class TestEstimateCost:
    def test_small_inputs_are_exact(self):
        q = reachable_pairs_query("dcr")
        g = path_graph(6).value()  # 5 edges: under the larger sample cap
        est = estimate_cost(q, arg=g)
        assert est.exact
        assert est.full_n == 5
        assert est.work > 0

    def test_large_inputs_extrapolate_superlinearly(self):
        q = reachable_pairs_query("dcr")
        g = path_graph(40).value()
        est = estimate_cost(q, arg=g)
        assert not est.exact
        assert est.full_n == 39
        assert est.exponent > 1.0  # recursive closure: clearly superlinear
        small = estimate_cost(q, arg=path_graph(12).value())
        assert est.work > small.work

    def test_counts_drive_extrapolation_of_samples(self):
        e = Var("edges")
        sample = edge_set((i, i + 1) for i in range(8))
        lo = estimate_cost(e, env={"edges": sample}, counts={"edges": 100})
        hi = estimate_cost(e, env={"edges": sample}, counts={"edges": 10_000})
        assert hi.work > lo.work

    def test_stubbed_externals_are_never_executed(self):
        def explode(v):
            raise AssertionError("router estimation executed a real oracle")

        sigma = enrichment_sigma()
        exploding = stub_signature(sigma)  # sanity: stubs replace impls
        assert exploding is not None
        est = estimate_cost(
            Apply(enrichment_query(), Var("reqs")),
            env={"reqs": request_ids(64)},
            sigma=stub_signature(sigma),
        )
        assert est.work > 0

    def test_placeholder_values_inhabit_their_types(self):
        assert placeholder_value(BASE) == BaseVal(0)
        v = placeholder_value(SetType(EDGE_T))
        assert isinstance(v, SetVal) and len(v) == 1


# -- catalog statistics -----------------------------------------------------------


class TestCatalogStats:
    def test_collection_stats_caps_the_sample(self):
        big = edge_set((i, i + 1) for i in range(100))
        st = collection_stats(big)
        assert st.count == 100
        assert len(st.sample) == SAMPLE_CAP
        # The sample is a canonical prefix: a legal sub-instance.
        assert st.sample.elements == big.elements[:SAMPLE_CAP]

    def test_database_maintains_stats_per_commit(self):
        db = Database("d", mutable=True)
        db.register("edges", edge_set([(0, 1), (1, 2)]))
        st = db.stats()["edges"]
        assert (st.count, st.updates) == (2, 0)
        db.insert("edges", [(5, 6)])
        st = db.stats()["edges"]
        assert (st.count, st.updates) == (3, 1)
        db.delete("edges", [(0, 1), (5, 6)])
        st = db.stats()["edges"]
        assert (st.count, st.updates) == (1, 2)
        db.drop("edges")
        assert "edges" not in db.stats()


# -- the decision policy ----------------------------------------------------------


class TestDecisionPolicy:
    def test_tiny_work_routes_to_vectorized(self):
        router = Router(EMPTY_SIGMA, workers=4)
        d = router.route(Var("edges"), env={"edges": edge_set([(0, 1)])})
        assert d.backend == "vectorized"
        assert "set-at-a-time kernels" in d.reason

    def test_heavy_cpu_work_routes_to_vectorized_never_parallel(self):
        router = Router(EMPTY_SIGMA, workers=4)
        d = router.route(
            reachable_pairs_query("dcr"), arg=path_graph(40).value()
        )
        assert d.backend == "vectorized"

    def test_external_fanout_routes_to_parallel(self):
        sigma = enrichment_sigma(latency=0.5)  # slow enough that a single
        # *real* call during routing would dominate the test's runtime
        router = Router(sigma, workers=4)
        d = router.route(
            Apply(enrichment_query(), Var("reqs")),
            env={"reqs": request_ids(64)},
        )
        assert d.backend == "parallel"
        assert "across 4 workers" in d.reason

    def test_small_external_fanout_stays_serial(self):
        sigma = enrichment_sigma()
        router = Router(sigma, workers=4)
        d = router.route(
            Apply(enrichment_query(), Var("reqs")),
            env={"reqs": request_ids(4)},
        )
        assert d.backend != "parallel"

    def test_decisions_are_cached_per_template(self):
        router = Router(EMPTY_SIGMA, workers=4)
        e = Var("edges")
        env = {"edges": edge_set([(0, 1)])}
        first = router.route(e, env=env)
        second = router.route(e, env=env)
        assert second is first
        assert router.stats.routes == 1
        assert router.stats.route_hits == 1

    def test_statistics_free_default_upgrades_on_real_inputs(self):
        router = Router(EMPTY_SIGMA, workers=4)
        e = Var("edges")
        blind = router.route(e)  # explain-before-run: no inputs at all
        assert blind.estimate is None
        informed = router.route(e, env={"edges": edge_set([(0, 1)])})
        assert informed.estimate is not None
        assert router.stats.routes == 2


# -- join-order rewrite -----------------------------------------------------------


def two_hop_join(outer: str, inner: str):
    """``outer join inner on outer.snd = inner.fst`` in the matchable shape."""
    l, r = Var("l"), Var("r")
    body = If(
        Eq(Proj2(l), Proj1(r)),
        Singleton(Pair(Proj1(l), Proj2(r))),
        EmptySet(EDGE_T),
    )
    return Apply(
        Ext(Lambda("l", EDGE_T, Apply(Ext(Lambda("r", EDGE_T, body)), Var(inner)))),
        Var(outer),
    )


class TestJoinReorder:
    def test_streams_the_smaller_side(self):
        router = Router(EMPTY_SIGMA, workers=4)
        big = edge_set((i, i + 1) for i in range(40))
        small = edge_set([(1, 2), (2, 3)])
        env = {"big": big, "small": small}
        d = router.route(two_hop_join("big", "small"), env=env)
        assert d.join_swaps == 1
        assert router.stats.joins_reordered == 1
        # The swap streams the small side and indexes the big one.
        assert d.expr.arg == Var("small")
        # Semantics are preserved.
        assert reference_run(d.expr, None, env=env) == reference_run(
            two_hop_join("big", "small"), None, env=env
        )

    def test_already_right_order_is_left_alone(self):
        router = Router(EMPTY_SIGMA, workers=4)
        env = {
            "big": edge_set((i, i + 1) for i in range(40)),
            "small": edge_set([(1, 2), (2, 3)]),
        }
        d = router.route(two_hop_join("small", "big"), env=env)
        assert d.join_swaps == 0
        assert d.expr == two_hop_join("small", "big")

    def test_capture_risk_refuses_the_swap(self):
        # A free variable named like the inner binder in the outer source:
        # swapping would capture it.  match_join_apply must refuse.
        from repro.engine.shapes import match_join_apply

        l, r = Var("l"), Var("r")
        body = If(
            Eq(Proj2(l), Proj1(r)),
            Singleton(Pair(Proj1(l), Proj2(r))),
            EmptySet(EDGE_T),
        )
        e = Apply(
            Ext(Lambda("l", EDGE_T, Apply(Ext(Lambda("r", EDGE_T, body)), Var("small")))),
            Var("r"),  # the outer source is literally the inner binder's name
        )
        assert match_join_apply(e) is None


# -- the explain trace ------------------------------------------------------------


class TestExplainTrace:
    def test_trace_shows_estimate_decision_and_backend(self):
        eng = Engine(backend="auto")
        q = reachable_pairs_query("dcr")
        eng.run(q, path_graph(24))
        text = str(eng.explain_plan(q, backend="auto"))
        assert "route" in text
        assert "route-estimate" in text
        assert "route-decision" in text
        assert "auto -> vectorized" in text

    def test_any_engine_can_explain_auto(self):
        # explain_plan(backend="auto") works on a non-auto engine too,
        # mirroring how "incremental" is explainable everywhere.
        eng = Engine(backend="reference")
        text = str(eng.explain_plan(Var("edges"), backend="auto"))
        assert "route-decision" in text


# -- adaptation -------------------------------------------------------------------


class TestAdaptation:
    def _record(self, eng):
        router = eng.router()
        assert len(router.records) == 1
        return next(iter(router.records.values()))

    def test_undershoot_reroutes_after_order_of_magnitude_miss(self):
        """A 10x mis-estimate is re-decided from the corrected cost.

        A fabricated estimate prices an external fan-out at one unit of
        work; the routed parallel run lands orders of magnitude over the
        prediction, the router re-decides from the corrected cost -- still
        parallel, the rule is syntactic -- and records the re-route in the
        template's history (rendered by the explain trace).
        """
        sigma, q, v = enrichment_workload(24, latency=0.0)
        eng = Engine(sigma=sigma, backend="auto", workers=2)
        try:
            router = eng.router()
            router.estimator = lambda *a, **k: CostEstimate(
                work=1.0, depth=1.0, exponent=1.0, sample_n=8, full_n=24
            )
            first = eng.run(q, v)  # routed run: parallel, then the miss
            rec = self._record(eng)
            assert rec.decision.backend == "parallel"
            assert router.stats.reroutes >= 1
            flip = rec.history[0]
            assert (flip.from_backend, flip.to_backend) == ("parallel", "parallel")
            assert flip.observed_s >= flip.predicted_s * Router.MISS_FACTOR
            assert "corrected work" in flip.reason
            # The next run is judged against the corrected prediction and (a
            # differential check for free) agrees with the reference.
            assert eng.run(q, v) == first == reference_run(q, v, sigma=sigma)
            text = str(eng.explain_plan(q, backend="auto"))
            assert "route-history" in text
            assert "parallel -> parallel" in text
        finally:
            eng.close()

    def test_measured_argmin_pins_once_two_backends_are_known(self):
        sigma, q, v = enrichment_workload(24, latency=0.0)
        eng = Engine(sigma=sigma, backend="auto", workers=2)
        try:
            router = eng.router()
            assert eng.route(q, arg=v).backend == "parallel"
            rec = self._record(eng)
            rec.measured.update({"parallel": 0.5, "vectorized": 0.001})
            router._reroute(rec, "parallel", 0.5)
            assert rec.decision.backend == "vectorized"
            assert "measured argmin" in rec.decision.reason
            rec.measured.update({"parallel": 0.001, "vectorized": 0.5})
            router._reroute(rec, "vectorized", 0.5)
            assert rec.decision.backend == "parallel"
            assert eng.run(q, v) == reference_run(q, v, sigma=sigma)
            assert router.stats.reroutes >= 2
        finally:
            eng.close()

    def test_overshoot_recalibrates_without_flipping(self):
        eng = Engine(backend="auto")
        router = eng.router()
        # A wildly pessimistic estimate: predicted seconds are enormous.
        router.estimator = lambda *a, **k: CostEstimate(
            work=1e9, depth=1e3, exponent=2.0, sample_n=8, full_n=63
        )
        q = reachable_pairs_query("dcr")
        g = path_graph(24)
        eng.run(q, g)
        rec = self._record(eng)
        assert rec.decision.backend == "vectorized"  # kept, not flipped
        assert router.stats.reroutes == 0
        assert router.stats.recalibrations >= 1
        assert any("recalibrated" in ev.reason for ev in rec.history)
        # The calibration moved seconds-per-work off its initial guess.
        assert router.seconds_per_work != Router.INITIAL_SECONDS_PER_WORK

    def test_runtimes_calibrate_seconds_per_work(self):
        eng = Engine(backend="auto")
        eng.run(reachable_pairs_query("dcr"), path_graph(24))
        stats = eng.router_stats()
        assert stats["runs_recorded"] == 1
        assert stats["backends"] == {"vectorized": 1}
        assert stats["seconds_per_work"] > 0


# -- engine + session integration -------------------------------------------------


class TestAutoIntegration:
    def test_auto_agrees_with_reference_across_workloads(self):
        q = reachable_pairs_query("dcr")
        for n in (6, 24):
            g = path_graph(n)
            auto = Engine(backend="auto")
            assert auto.run(q, g) == Engine(backend="reference").run(q, g)

    def test_repeated_runs_route_once_and_record_each_run(self):
        eng = Engine(backend="auto")
        q = reachable_pairs_query("dcr")
        args = [path_graph(12).value(), path_graph(12).value()]
        results = [eng.run(q, a) for a in args]
        assert results[0] == results[1] == Engine(backend="reference").run(q, args[0])
        stats = eng.router_stats()
        assert stats["routes"] == 1
        assert stats["route_hits"] >= 1
        assert stats["runs_recorded"] == 2

    def test_external_fanout_runs_on_the_parallel_backend(self):
        sigma = enrichment_sigma()
        eng = Engine(sigma=sigma, backend="auto", workers=2)
        reqs = request_ids(64)
        result = eng.run(Apply(enrichment_query(), Var("reqs")), env={"reqs": reqs})
        assert len(result) == 64
        stats = eng.router_stats()
        assert stats["backends"] == {"parallel": 1}

    def test_session_prepare_routes_from_catalog_stats(self):
        db = graph_database(24, "path", mutable=True)
        with db.connect(backend="auto") as sess:
            from repro.relational.queries import transitive_closure_query

            stmt = sess.prepare(transitive_closure_query("edges"))
            assert sess.stats.routes >= 1
            before = sess.stats.routes
            rows = stmt.execute()
            assert len(rows) == 23 * 24 // 2
            # The execute reuses the prepare-time decision: no fresh route.
            assert sess.stats.routes == before
            assert sess.engine.router_stats()["route_hits"] >= 1

    def test_clear_plans_clears_routing_state(self):
        eng = Engine(backend="auto")
        eng.run(reachable_pairs_query("dcr"), path_graph(12))
        assert eng.router_stats()["templates"] == 1
        eng.clear_plans()
        assert eng.router_stats()["templates"] == 0
