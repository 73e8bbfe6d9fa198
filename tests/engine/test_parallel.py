"""Unit tests for the data-parallel sharded backend (repro.engine.parallel).

Layer by layer: partitioning (determinism, disjoint cover, canonical
shards), the distributivity / join / fixpoint analysis, the executor's four
strategies against the reference interpreter, error propagation out of
workers, the thread pool on its own (ordering, failures, close and reuse),
the explain tree, and the engine cache contract (clear_plans, warm reruns,
compile counts across close).
"""

import pytest

from repro.engine import Engine
from repro.engine.parallel import (
    ParallelEvaluator,
    analyze,
    distributes_over_union,
    hash_partition,
    structural_hash,
)
from repro.engine.parallel.partition import hash_partition_aligned
from repro.engine.parallel.scheduler import ShardTask, WorkerPool
from repro.nra import ast
from repro.nra.ast import (
    Apply,
    BoolConst,
    Const,
    EmptySet,
    Eq,
    Ext,
    If,
    Lambda,
    Pair,
    Proj1,
    Proj2,
    Singleton,
    Union,
    Var,
)
from repro.nra.derived import compose, select
from repro.nra.errors import NRAEvalError
from repro.nra.eval import run as reference_run
from repro.nra.externals import ExternalFunction, Signature
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, SetVal, from_python
from repro.relational.queries import REL_T, reachable_pairs_query
from repro.workloads.graphs import binary_tree, path_graph, random_graph
from repro.workloads.nested_graphs import edges_query, nested_random_graph, two_hop_query
from repro.workloads.services import enrichment_workload

EDGE_T = ProdType(BASE, BASE)


def parallel_engine(**kw):
    kw.setdefault("workers", 3)
    kw.setdefault("shards", 5)
    return Engine(backend="parallel", **kw)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

class TestPartition:
    def test_shards_cover_and_are_disjoint(self):
        s = from_python({(i, i + 1) for i in range(40)})
        shards = hash_partition(s, 7)
        assert 1 < len(shards) <= 7
        seen = []
        for shard in shards:
            assert isinstance(shard, SetVal)
            seen.extend(shard.elements)
        assert len(seen) == len(set(map(id, seen))) == len(s.elements)
        assert SetVal(seen) == s

    def test_shards_are_canonical_subsequences(self):
        s = from_python({5, 1, 9, 4, 2, 8})
        for shard in hash_partition(s, 3):
            # A canonical SetVal equals its own re-canonicalization.
            assert shard == SetVal(shard.elements)

    def test_partition_is_deterministic(self):
        s = from_python({("a", i) for i in range(25)})
        a = hash_partition(s, 4)
        b = hash_partition(s, 4)
        assert a == b

    def test_structural_hash_is_structural(self):
        v1 = from_python({(1, "x"), (2, "y")})
        v2 = from_python({(2, "y"), (1, "x")})
        assert v1 is not v2
        assert structural_hash(v1) == structural_hash(v2)
        assert structural_hash(from_python(3)) != structural_hash(from_python(4))

    def test_empty_set_yields_one_empty_shard(self):
        shards = hash_partition(from_python(set()), 5)
        assert shards == [SetVal()]

    def test_aligned_partition_keeps_positions(self):
        s = from_python({(i, i % 3) for i in range(20)})
        key = lambda p: p.snd
        shards = hash_partition_aligned(s, 6, key)
        assert len(shards) == 6  # empties preserved for alignment
        for shard in shards:
            buckets = {structural_hash(key(e)) % 6 for e in shard.elements}
            assert len(buckets) <= 1


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------

class TestAnalysis:
    def test_map_over_var_is_distributive(self):
        body = Apply(Ext(Lambda("x", BASE, Singleton(Var("x")))), Var("s"))
        assert distributes_over_union(body, "s")

    def test_bilinear_self_join_is_rejected(self):
        body = compose(Var("v"), Var("v"), BASE)
        assert not distributes_over_union(body, "v")
        assert analyze(Lambda("v", REL_T, body)) is None

    def test_two_hop_falls_back(self):
        assert analyze(two_hop_query()) is None

    def test_condition_on_the_variable_is_rejected(self):
        from repro.nra.ast import IsEmpty

        body = If(IsEmpty(Var("s")), Var("s"), EmptySet(BASE))
        assert not distributes_over_union(body, "s")

    def test_unnest_is_arg_shardable(self):
        spec = analyze(edges_query())
        assert spec is not None and spec.kind == "arg"

    def test_bare_template_is_env_shardable(self):
        pred = Lambda("e", EDGE_T, Eq(Proj1(Var("e")), Const(BaseVal(1), BASE)))
        spec = analyze(select(pred, Var("edges")))
        assert spec is not None and spec.kind == "env" and spec.var == "edges"

    def test_cross_relation_join_is_co_partitioned(self):
        spec = analyze(compose(Var("a"), Var("b"), BASE))
        assert spec is not None and spec.kind == "join"
        assert spec.join.left_var == "a" and spec.join.right_var == "b"

    def test_join_whose_output_reads_a_relation_is_rejected(self):
        # The join output may mention the element variables, never the
        # relation variables: workers only hold shards of those, so this
        # shape must fall back (it used to shard and silently shrink the
        # {(x, r)} outputs to {(x, shard-of-r)}).
        out = Singleton(Pair(Var("x"), Var("r")))
        inner = Lambda("y", BASE, If(Eq(Var("x"), Var("y")), out, EmptySet(BASE)))
        q = Apply(Ext(Lambda("x", BASE, Apply(Ext(inner), Var("r")))), Var("s"))
        spec = analyze(q)
        assert spec is None or spec.kind != "join"
        env = {"s": from_python({0, 1, 2, 3}), "r": from_python({0, 1, 2, 3, 4, 5, 6, 7})}
        eng = parallel_engine()
        try:
            assert eng.run(q, env=env) == reference_run(q, None, env=env)
        finally:
            eng.close()

    def test_logloop_tc_is_a_fixpoint(self):
        spec = analyze(reachable_pairs_query("logloop"))
        assert spec is not None and spec.kind == "fixpoint"
        assert spec.fixpoint.logarithmic

    def test_sri_tc_is_a_fixpoint(self):
        spec = analyze(reachable_pairs_query("sri"))
        assert spec is not None and spec.kind == "fixpoint"
        assert not spec.fixpoint.logarithmic and not spec.fixpoint.loop_style


# ---------------------------------------------------------------------------
# Execution strategies vs the reference interpreter
# ---------------------------------------------------------------------------

class TestParallelExecution:
    def test_shard_map_matches_reference(self):
        q = edges_query()
        db = nested_random_graph(30, 0.1, seed=3)
        eng = parallel_engine()
        try:
            assert eng.run(q, db) == reference_run(q, db)
            assert eng.last_stats.shard_runs == 1
            assert eng.last_stats.shards > 1
        finally:
            eng.close()

    def test_env_shard_matches_reference(self):
        pred = Lambda("e", EDGE_T, Eq(Proj1(Var("e")), Const(BaseVal(3), BASE)))
        q = select(pred, Var("edges"))
        env = {"edges": path_graph(20).value()}
        eng = parallel_engine()
        try:
            assert eng.run(q, env=env) == reference_run(q, None, env=env)
            assert eng.last_stats.shard_runs == 1
        finally:
            eng.close()

    def test_co_partitioned_join_matches_reference(self):
        a = random_graph(24, 0.2, seed=1).value()
        b = random_graph(24, 0.2, seed=2).value()
        q = compose(Var("a"), Var("b"), BASE)
        env = {"a": a, "b": b}
        eng = parallel_engine()
        try:
            assert eng.run(q, env=env) == reference_run(q, None, env=env)
            assert eng.last_stats.join_runs == 1
        finally:
            eng.close()

    def test_join_with_empty_left_short_circuits(self):
        q = compose(Var("a"), Var("b"), BASE)
        env = {"a": from_python(set()), "b": path_graph(5).value()}
        eng = parallel_engine()
        try:
            assert eng.run(q, env=env) == from_python(set())
        finally:
            eng.close()

    @pytest.mark.parametrize("style", ["logloop", "sri"])
    @pytest.mark.parametrize("graph", ["path", "tree"])
    def test_fixpoint_matches_reference(self, style, graph):
        g = (path_graph(12) if graph == "path" else binary_tree(3)).value()
        q = reachable_pairs_query(style)
        eng = parallel_engine()
        try:
            assert eng.run(q, g) == reference_run(q, g)
            assert eng.last_stats.fixpoint_runs == 1
            assert eng.last_stats.frontier_reshards == eng.last_stats.fixpoint_rounds > 0
        finally:
            eng.close()

    def test_fallback_matches_reference(self):
        q = reachable_pairs_query("dcr")  # dcr-by-size: no shardable shape
        g = path_graph(10).value()
        eng = parallel_engine()
        try:
            assert eng.run(q, g) == reference_run(q, g)
            assert eng.last_stats.fallback_runs == 1
        finally:
            eng.close()

    def test_run_many_fans_out(self):
        q = Lambda("r", REL_T, compose(Var("r"), Var("r"), BASE))
        inputs = [path_graph(n).value() for n in (4, 6, 8, 10, 12)]
        eng = parallel_engine()
        try:
            got = eng.run_many(q, inputs)
            assert got == [reference_run(q, g) for g in inputs]
            assert eng.last_stats.batch_runs == 1
            assert eng.last_stats.batch_inputs == 5
        finally:
            eng.close()

    def test_scalar_valued_distributive_body(self):
        # A body whose value ignores the sharded variable: every shard
        # returns the same non-set value and the combiner must not union.
        body = If(BoolConst(True), Singleton(Const(BaseVal(1), BASE)), Var("s"))
        q = Lambda("s", SetType(BASE), body)
        v = from_python({1, 2, 3, 4, 5, 6})
        eng = parallel_engine()
        try:
            assert eng.run(q, v) == reference_run(q, v)
        finally:
            eng.close()

    def test_oracle_overlap_workload_matches_reference(self):
        sigma, q, v = enrichment_workload(32, latency=0.0)
        eng = Engine(sigma=sigma, backend="parallel", workers=3, shards=6)
        try:
            assert eng.run(q, v) == reference_run(q, v, sigma=sigma)
            assert eng.last_stats.shard_runs == 1
        finally:
            eng.close()

    def test_workers_actually_ran_vectorized_kernels(self):
        a = random_graph(24, 0.3, seed=5).value()
        b = random_graph(24, 0.3, seed=6).value()
        q = compose(Var("a"), Var("b"), BASE)
        eng = parallel_engine()
        try:
            eng.run(q, env={"a": a, "b": b})
            worker_joins = sum(
                s.hash_joins for s in eng._par().pool.worker_stats()
            )
            assert worker_joins >= 1
        finally:
            eng.close()


# ---------------------------------------------------------------------------
# Error propagation
# ---------------------------------------------------------------------------

def _boom_sigma():
    def boom(v):
        raise NRAEvalError("boom")

    return Signature([ExternalFunction("boom", BASE, BASE, boom, "always raises")])


class TestErrorPropagation:
    def test_worker_errors_surface(self):
        sigma = _boom_sigma()
        q = Lambda(
            "s",
            SetType(BASE),
            Apply(
                Ext(Lambda("x", BASE, Singleton(ast.ExternalCall("boom", Var("x"))))),
                Var("s"),
            ),
        )
        v = from_python({1, 2, 3, 4, 5, 6, 7, 8})
        eng = Engine(sigma=sigma, backend="parallel", workers=3, shards=4)
        try:
            with pytest.raises(NRAEvalError):
                eng.run(q, v)
        finally:
            eng.close()

    def test_empty_input_skips_the_raising_oracle(self):
        sigma = _boom_sigma()
        q = Lambda(
            "s",
            SetType(BASE),
            Apply(
                Ext(Lambda("x", BASE, Singleton(ast.ExternalCall("boom", Var("x"))))),
                Var("s"),
            ),
        )
        eng = Engine(sigma=sigma, backend="parallel", workers=2, shards=4)
        try:
            assert eng.run(q, from_python(set())) == from_python(set())
        finally:
            eng.close()

    def test_non_set_argument_falls_back_to_exact_error(self):
        q = edges_query()
        eng = parallel_engine()
        try:
            with pytest.raises(NRAEvalError):
                eng.run(q, from_python((1, 2)))
        finally:
            eng.close()


# ---------------------------------------------------------------------------
# The thread pool
# ---------------------------------------------------------------------------

class TestWorkerPool:
    def test_a_pool_needs_at_least_one_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            WorkerPool(workers=0)

    def test_empty_waves_start_no_threads(self):
        pool = WorkerPool(workers=2)
        assert pool.run_tasks([]) == [] and pool.run_callables([]) == []
        assert pool._executor is None and pool.worker_stats() == []

    def test_callables_come_back_in_order_from_a_narrower_pool(self):
        pool = WorkerPool(workers=3)
        try:
            assert pool.run_callables([lambda i=i: i * i for i in range(10)]) == [
                i * i for i in range(10)
            ]
        finally:
            pool.close()

    def test_a_wave_raises_its_smallest_failing_task_and_stays_usable(self):
        v = from_python({1, 2, 3})
        tasks = [
            ShardTask(Var("a"), {"a": v}),
            ShardTask(Var("missing_1"), {}),
            ShardTask(Var("a"), {"a": v}),
            ShardTask(Var("missing_3"), {}),
        ]
        pool = WorkerPool(workers=2)
        try:
            with pytest.raises(NRAEvalError, match="missing_1"):
                pool.run_tasks(tasks)
            assert pool.run_tasks([tasks[0], tasks[2]]) == [v, v]
        finally:
            pool.close()

    def test_close_then_reuse_restarts_the_threads(self):
        pool = WorkerPool(workers=2)
        assert pool.run_callables([lambda: 1, lambda: 2]) == [1, 2]
        pool.close()
        assert pool._executor is None and pool.worker_stats() == []
        try:
            assert pool.run_callables([lambda: 3, lambda: 4]) == [3, 4]
            assert len(pool.worker_stats()) == 2
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Explain, cache contract, engine wiring
# ---------------------------------------------------------------------------

class TestEngineWiring:
    def test_explain_plan_shows_shards_and_combiner(self):
        eng = parallel_engine()
        try:
            plan = eng.explain_plan(edges_query())
            assert {"parallel", "shard", "combine-union"} <= plan.ops()
        finally:
            eng.close()

    def test_explain_plan_shows_the_fixpoint(self):
        eng = parallel_engine()
        try:
            plan = eng.explain_plan(reachable_pairs_query("logloop"))
            assert "parallel-fixpoint" in plan.ops()
            assert "reshard-per-round" in next(
                n for n in plan.walk() if n.op == "parallel-fixpoint"
            ).annotations
        finally:
            eng.close()

    def test_explain_plan_labels_the_fallback(self):
        eng = parallel_engine()
        try:
            plan = eng.explain_plan(two_hop_query())
            root = next(iter(plan.walk()))
            assert root.op == "parallel" and "fallback" in root.detail
        finally:
            eng.close()

    def test_vectorized_view_is_still_available(self):
        eng = parallel_engine()
        try:
            plan = eng.explain_plan(two_hop_query(), backend="vectorized")
            assert "hash-join" in plan.ops()
            assert "parallel" not in plan.ops()
        finally:
            eng.close()

    def test_backend_override_per_call(self):
        q = edges_query()
        db = nested_random_graph(15, 0.15, seed=2)
        eng = Engine(backend="vectorized")
        try:
            assert eng.run(q, db, backend="parallel") == eng.run(q, db)
            assert eng.run(q, db, backend="parallel") == reference_run(q, db)
        finally:
            eng.close()

    def test_clear_plans_resets_worker_state_but_not_results(self):
        q = edges_query()
        db = nested_random_graph(15, 0.15, seed=2)
        eng = parallel_engine()
        try:
            first = eng.run(q, db)
            eng.clear_plans()
            assert eng.run(q, db) == first
        finally:
            eng.close()

    def test_warm_engine_reuses_driver_compiles(self):
        q = edges_query()
        db = nested_random_graph(15, 0.15, seed=2)
        eng = parallel_engine()
        try:
            eng.run(q, db)
            before = eng.vectorized_compiles()
            eng.run(q, db)
            assert eng.vectorized_compiles() == before
        finally:
            eng.close()

    def test_compile_count_never_decreases_across_close(self):
        # close() drops the pool; the compiles its workers did stay counted.
        sigma, q, v = enrichment_workload(24, latency=0.0)
        eng = Engine(sigma=sigma, backend="parallel", workers=2)
        try:
            counts = []
            for _ in range(2):
                eng.run(q, v)
                counts.append(eng.vectorized_compiles())
                eng.close()
                counts.append(eng.vectorized_compiles())
            assert counts[0] > 0
            assert counts == sorted(counts), counts
        finally:
            eng.close()

    def test_translation_cache_is_bounded(self):
        from repro.engine.parallel import ShardWorker
        from repro.nra.externals import EMPTY_SIGMA

        worker = ShardWorker(EMPTY_SIGMA)
        for i in range(ShardWorker.MAX_TRANSLATIONS + 500):
            worker.translate(from_python(i))
        assert len(worker._translated) <= ShardWorker.MAX_TRANSLATIONS
        # Hot entries survive: a value re-probed after the flood is served
        # from cache (same worker object back).
        v = from_python("hot")
        w1 = worker.translate(v)
        assert worker.translate(v) is w1

    def test_parallel_in_backends_and_validation(self):
        from repro.engine import BACKENDS

        assert "parallel" in BACKENDS
        with pytest.raises(ValueError):
            Engine(backend="sharded")
