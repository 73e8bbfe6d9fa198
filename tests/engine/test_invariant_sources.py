"""Kernel sources are evaluated at most once per run per binding.

The derived operators repeat an argument under an ``ext`` binder; the
vectorized compiler runs every such source behind a once-cell
(``PlanCompiler._source``).  Held here:

* **exactness**, observed through a call-counting external: once per run
  under a ten-element outer set, never when the reference interpreter would
  not reach the source, again on the next run, per element when the source
  mentions the binder, shared across a ``run_many`` batch, and an error is
  raised on every run and never kept;
* the cell is replaced whole, so two threads on one compiler never read a
  key from one evaluation with the value of another;
* the entry points that call ``compile(e).fn(env)`` themselves (the three
  worker pools, the incremental views) agree with the reference interpreter;
* the counts of the benchmark's own ``nested_objects`` statement.
"""

import sys
import threading

import pytest

from repro.api import Changeset, Database, Q, connect
from repro.engine import Engine
from repro.engine.vectorized import VectorizedEvaluator
from repro.nra.ast import (
    Apply,
    Const,
    EmptySet,
    Eq,
    Ext,
    ExternalCall,
    If,
    Lambda,
    Pair,
    Singleton,
    Union,
    Var,
)
from repro.nra.derived import compose, difference, nest
from repro.nra.eval import run as reference_run
from repro.nra.externals import ExternalFunction, Signature
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import from_python, to_python
from repro.relational.queries import REL_T
from repro.workloads.graphs import random_graph
from repro.workloads.nested_graphs import ADJ_DB_T, nested_random_graph, two_hop_query

SET_T = SetType(BASE)
PAIR_T = ProdType(BASE, BASE)


class Counting:
    """A signature with ``count : {D} -> {D}``, the identity that counts calls."""

    def __init__(self, fail: bool = False):
        self.calls = 0
        self.fail = fail
        self.sigma = Signature([ExternalFunction("count", SET_T, SET_T, self)])

    def __call__(self, v):
        self.calls += 1
        if self.fail:
            raise RuntimeError(f"external failure #{self.calls}")
        return v


def cross(source, outer="x", inner="y", over=Var("xs")):
    """``ext(\\outer. ext(\\inner. {(outer, inner)})(source))(over)``."""
    body = Singleton(Pair(Var(outer), Var(inner)))
    return Apply(
        Ext(Lambda(outer, BASE, Apply(Ext(Lambda(inner, BASE, body)), source))), over
    )


def env_of(xs, ys):
    return {"xs": from_python(set(xs)), "ys": from_python(set(ys))}


def both(expr, env, sigma):
    """(engine result, reference result); the engine runs ``expr`` as written."""
    engine = Engine(sigma=sigma, backend="vectorized")
    return engine.run(expr, env=env, optimize=False), reference_run(expr, env=env, sigma=sigma)


# ---------------------------------------------------------------------------
# Once per run, and only on demand
# ---------------------------------------------------------------------------

def test_invariant_source_is_evaluated_once_per_run_and_again_on_the_next():
    ext = Counting()
    expr = cross(ExternalCall("count", Var("ys")))
    env = env_of(range(10), {100, 101, 102})
    engine = Engine(sigma=ext.sigma, backend="vectorized")
    want = reference_run(expr, env=env, sigma=Counting().sigma)
    assert len(want) == 30
    for run in (1, 2, 3):
        assert engine.run(expr, env=env, optimize=False) == want
        assert ext.calls == run  # ten outer elements, one call; nothing kept


def test_empty_outer_set_and_dead_branch_never_reach_the_source():
    ext = Counting()
    source = ExternalCall("count", Var("ys"))
    got, want = both(cross(source), env_of((), {1, 2}), ext.sigma)
    assert got == want and len(got) == 0
    calls_by_reference = ext.calls
    dead = Apply(
        Ext(Lambda("x", BASE, If(
            Eq(Var("x"), Const(from_python(-1), BASE)),
            Apply(Ext(Lambda("y", BASE, Singleton(Pair(Var("x"), Var("y"))))), source),
            EmptySet(PAIR_T),
        ))),
        Var("xs"),
    )
    got, want = both(dead, env_of(range(10), {1, 2}), ext.sigma)
    assert got == want and len(got) == 0
    assert ext.calls == calls_by_reference == 0


def test_raising_source_raises_on_every_run_and_is_never_kept():
    ext = Counting(fail=True)
    expr = cross(ExternalCall("count", Var("ys")))
    env = env_of(range(10), {1})
    engine = Engine(sigma=ext.sigma, backend="vectorized")
    for run in (1, 2, 3):
        with pytest.raises(RuntimeError, match=f"external failure #{run}$"):
            engine.run(expr, env=env, optimize=False)
    ext.fail = False  # the same compiled plan, now succeeding
    assert len(engine.run(expr, env=env, optimize=False)) == 10
    assert ext.calls == 4


def test_source_mentioning_the_binder_is_recomputed_per_element():
    ext = Counting()
    expr = cross(ExternalCall("count", Union(Singleton(Var("x")), Var("ys"))))
    got, want = both(expr, env_of(range(10), {100}), ext.sigma)
    assert got == want and len(got) == 20
    assert ext.calls == 10 + 10  # the engine, then the reference


def test_inner_binder_reusing_the_outer_name():
    # \x. ext(\x. {(x, x)})(S): the inner x shadows in the body, not in S.
    for source, calls, rows in (
        (ExternalCall("count", Var("ys")), 1, 3),                   # S closed
        (ExternalCall("count", Singleton(Var("x"))), 10, 10),       # S reads outer x
    ):
        ext = Counting()
        expr = cross(source, outer="x", inner="x")
        env = env_of(range(10), {100, 101, 102})
        engine = Engine(sigma=ext.sigma, backend="vectorized")
        got = engine.run(expr, env=env, optimize=False)
        assert ext.calls == calls
        assert got == reference_run(expr, env=env, sigma=ext.sigma)
        assert len(got) == rows


def test_run_many_shares_within_the_batch():
    ext = Counting()
    fn = Lambda("xs", SET_T, cross(ExternalCall("count", Var("ys"))))
    env = {"ys": from_python({7, 8})}
    batch = [from_python({1, 2, 3}), from_python({4}), from_python(set()), from_python({5, 6})]
    engine = Engine(sigma=ext.sigma, backend="vectorized")
    got = engine.run_many(fn, batch, env=env, optimize=False)
    assert ext.calls == 1
    assert got == [reference_run(fn, a, env=env, sigma=Counting().sigma) for a in batch]
    engine.run_many(fn, batch, env=env, optimize=False)
    assert ext.calls == 2


def test_structurally_equal_sources_share_one_evaluation():
    ext = Counting()
    rel = ExternalCall("count", Var("ys"))
    expr = Union(cross(rel, over=rel), Apply(Ext(Lambda("z", BASE, Singleton(Var("z")))), rel))
    got, want = both(expr, env_of((), {1, 2, 3}), ext.sigma)
    assert got == want
    assert ext.calls == 1 + 5  # the reference evaluates each occurrence: 1 + 3 + 1


def test_rebinding_a_free_variable_invalidates_the_cell():
    # let ys = ... in <source over ys>, under two different lets in one run.
    ext = Counting()
    body = Apply(Ext(Lambda("y", BASE, Singleton(Var("y")))), ExternalCall("count", Var("ys")))
    expr = Apply(
        Ext(Lambda("x", BASE, Apply(Lambda("ys", SET_T, body), Singleton(Var("x"))))),
        Var("xs"),
    )
    got, want = both(expr, env_of(range(6), ()), ext.sigma)
    assert got == want == from_python(set(range(6)))
    assert ext.calls == 6 + 6


# ---------------------------------------------------------------------------
# Two threads, one compiler
# ---------------------------------------------------------------------------

@pytest.mark.stress
def test_two_threads_on_one_compiler_never_observe_a_torn_cell():
    ev = VectorizedEvaluator()
    expr = Apply(Ext(Lambda("x", BASE, Singleton(Var("x")))), Union(Var("a"), Var("b")))
    it = ev.interner
    envs = [
        {"a": it.intern(from_python({1, 2})), "b": it.intern(from_python({3}))},
        {"a": it.intern(from_python({10})), "b": it.intern(from_python({20, 30}))},
    ]
    # Intern every result first: the concurrent phase only looks values up.
    wants = [ev.compile(expr).fn(dict(env)) for env in envs]
    assert [to_python(w) for w in wants] == [{1, 2, 3}, {10, 20, 30}]
    wrong, stop = [], threading.Event()

    def drive(i):
        env = dict(envs[i])
        while not stop.is_set():
            fn = ev.compile(expr).fn  # every run starts at compile()
            for _ in range(50):
                if fn(env) is not wants[i]:
                    wrong.append(i)
                    stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive, args=(i % 2,)) for i in range(4)]
        for t in threads:
            t.start()
        stop.wait(timeout=0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# Entry points that call compile(e).fn(env) themselves
# ---------------------------------------------------------------------------

EDGES = sorted(random_graph(9, 0.3, seed=5))
R = Var("r")
TWO_HOP = compose(R, R, BASE)
DIRECT_ENTRY_QUERIES = {
    "nest": nest(TWO_HOP, BASE, BASE),
    "difference": difference(TWO_HOP, R, PAIR_T),
    "compose-of-computed": compose(TWO_HOP, TWO_HOP, BASE),
}


@pytest.mark.parametrize("workers,shards", [(1, 1), (2, 3), (4, 8)])
def test_worker_pools_agree_with_the_reference(workers, shards):
    env = {"r": from_python(set(EDGES))}
    engine = Engine(backend="parallel", workers=workers, shards=shards)
    try:
        for name, expr in DIRECT_ENTRY_QUERIES.items():
            want = reference_run(expr, env=env)
            assert engine.run(expr, env=env) == want, name
            assert engine.run(expr, env=env) == want, name  # warm plan, new run
        fn = Lambda("r", REL_T, DIRECT_ENTRY_QUERIES["nest"])
        batch = [from_python(set(EDGES[:k])) for k in (0, 4, 9, len(EDGES))]
        assert engine.run_many(fn, batch) == [reference_run(fn, a) for a in batch]
    finally:
        engine.close()


@pytest.mark.ivm
def test_views_over_repeated_sources_agree_with_the_reference():
    db = Database("g").register("r", from_python(set(EDGES)), type=REL_T)
    r = Q.coll("r")
    queries = [r.compose(r).nest(), r.compose(r) - r, r.compose(r).compose(r.compose(r))]
    with connect(db) as session:
        views = [session.materialize(q) for q in queries]
        for ins, dels in (([(0, 8), (8, 3)], []), ([], [EDGES[0], (8, 3)]), ([(2, 2)], [EDGES[1]])):
            db.apply(Changeset.of(r=(ins, dels)))
            for q, view in zip(queries, views):
                template = q.elaborate(db.schema()).expr
                assert view.value == reference_run(template, env=db.environment())


@pytest.mark.ivm
@pytest.mark.columnar
def test_nest_and_unnest_views_agree_with_the_reference():
    db = Database("nested").register("adj", nested_random_graph(9, 0.3, seed=5), type=ADJ_DB_T)
    adj = Q.coll("adj")
    queries = [adj.unnest(), adj.nest(), adj.unnest().nest()]
    with connect(db) as session:
        views = [session.materialize(q) for q in queries]
        for ins, dels in (
            ([(20, frozenset({1, 2})), (21, frozenset())], []),
            ([(22, frozenset({20}))], [(20, frozenset({1, 2}))]),
            ([(20, frozenset({3}))], [(21, frozenset()), (22, frozenset({20}))]),
        ):
            db.apply(Changeset.of(adj=(ins, dels)))
            for q, view in zip(queries, views):
                template = q.elaborate(db.schema()).expr
                want = reference_run(template, env=db.environment())
                assert view.value == want
                assert session.execute(q).value == want


# ---------------------------------------------------------------------------
# The benchmark's statement, counted
# ---------------------------------------------------------------------------

def test_nested_two_hop_counts_per_run():
    # Re-pinned when nest and unnest became set-at-a-time kernels: the unnest
    # is one flattening pass (it was an elementwise ext and a map per record),
    # and nest one grouped pass (it was a select per two-hop pair, each
    # probing the index and rebuilding its whole group).
    def run_counts(adj):
        db = Database("nested").register("adj", adj, type=ADJ_DB_T)
        statement = Q.coll("adj").pipe(two_hop_query()).nest()
        with connect(db) as session:
            first = session.execute(statement)
            rows, a = first.rows(), session.engine.last_stats
            assert session.execute(statement).rows() == rows
            b = session.engine.last_stats
        for s in (a, b):  # per run, and the second run recomputes: not 0
            assert s.hash_joins == 1
            assert (s.elementwise_exts, s.bulk_selects, s.flat_fallbacks) == (0, 0, 0)
            assert s.bulk_maps == s.flat_maps == 2  # the unnest (one cell), the nest
            # one dedup per group, plus the unnest's and the join's
            assert s.flat_dedups == len(rows) + 2
        assert b.compiled_exprs == 0
        # one index fetch per run for the join and one for every group together
        assert (b.index_builds, b.index_hits) == (0, 2)
        return len(rows), b

    groups, stats = run_counts(nested_random_graph(32, 0.05, seed=4))
    more_groups, more_stats = run_counts(nested_random_graph(32, 0.08, seed=4))
    assert groups < more_groups
    assert stats.flat_dedups < more_stats.flat_dedups


def test_cells_do_not_keep_a_dropped_evaluator_alive():
    # A cell that pointed back at its compiler would close a cycle through
    # the compile cache; sessions would then be freed by the cycle collector
    # only (seen as set-up time on the never-seen-query benchmark workload).
    import gc
    import weakref

    ev = VectorizedEvaluator()
    expr = nest(compose(R, R, BASE), BASE, BASE)
    assert len(ev.run(expr, env={"r": from_python(set(EDGES))}).elements) > 0
    assert ev.compile(expr).plan.children[0].annotations[-1] == "once"
    compiler = weakref.ref(ev.compiler)
    gc.disable()
    try:
        del ev
        assert compiler() is None
    finally:
        gc.enable()
