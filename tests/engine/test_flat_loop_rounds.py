"""The flat frontier loop: rounds are the paper's depth, whoever derives.

``FlatLoop.run`` is the one round loop of the default backend; the
vectorized compiler and the parallel executor both hand it a budget and, for
a pool, a derive step.  What is pinned here:

* **rounds are depth**: on path(n) the seeded closure ``reach(src)`` takes
  exactly ``n - 2 - src`` frontier rounds, in the engine's own counters, and
  the whole-relation closure is logarithmic by ``dcr`` and linear by ``sri``
  -- the paper's NC-vs-PTIME shape, without the cost interpreter;
* **one loop, three derive steps**: local, thread-pool chunks and
  shared-memory workers give the same value from the same number of rounds
  and joins, equal to the object kernels and the reference interpreter;
* the **budget** stops the loop exactly where the iterator's cardinality
  argument says;
* **tracing** reports one ``fixpoint-round`` event per round, and a round
  that raises leaves the error, the counters and a usable engine behind.

Counter literals were recorded at the commit before the loop was fused
(``flat_dedups`` of a warm read is 2 lower since: the two maps of
``field_of(edges)`` are served per collection value).
"""

import pytest

from repro.api import Database, Q
from repro.complexity.fit import is_polylog
from repro.engine import Engine
from repro.nra.ast import (
    Apply, EmptySet, Eq, Ext, If, Lambda, Loop, Pair, Proj1, Proj2, Singleton,
    Union, Var,
)
from repro.nra.derived import compose
from repro.nra.errors import NRAEvalError
from repro.nra.eval import run as reference_run
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import from_python
from repro.obs.trace import TRACER
from repro.relational.queries import reachable_pairs_query
from repro.workloads.graphs import binary_tree, cycle_graph, path_graph, random_graph

pytestmark = pytest.mark.columnar

COUNTERS = (
    "seminaive_rounds", "flat_rounds", "flat_joins", "hash_joins",
    "flat_dedups", "index_builds", "index_hits",
)


def _reach(n):
    """A session over path(n) and the prepared ``reach(src)`` statement."""
    session = Database.of("g", edges=path_graph(n)).connect()
    reach = session.prepare(
        Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    )
    return session, reach


# ---------------------------------------------------------------------------
# 1. Rounds are depth
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 16, 96])
def test_reach_on_a_path_takes_one_round_per_edge_walked(n):
    session, reach = _reach(n)
    for src in range(n):
        rows = reach.execute(src=src).fetchall()
        assert sorted(rows) == [(src, dst) for dst in range(src + 1, n)]
        stats = session.engine.last_stats
        depth = max(0, n - 2 - src)
        assert stats.seminaive_rounds == stats.flat_rounds == depth
        assert stats.flat_fixpoints == (1 if len(rows) > 1 else 0)
        assert stats.flat_fallbacks == 0


def test_reach_counters_on_path_16_are_the_recorded_ones():
    session, reach = _reach(16)
    recorded = {0: (14, 14, 15, 15, 18, 2, 13), 3: (11, 11, 12, 12, 13, 0, 13)}
    for src, want in recorded.items():
        reach.execute(src=src).fetchall()
        stats = session.engine.last_stats
        assert tuple(getattr(stats, c) for c in COUNTERS) == want


def test_dcr_rounds_are_polylog_and_sri_rounds_linear():
    ns = [8, 16, 32, 64]
    counts = {}
    for style, counter in (("dcr", "hash_joins"), ("sri", "seminaive_rounds")):
        counts[style] = []
        for n in ns:
            engine = Engine(backend="vectorized")
            want = {(a, b) for a in range(n) for b in range(a + 1, n)}
            assert engine.run(reachable_pairs_query(style), path_graph(n).value()) == from_python(want)
            counts[style].append(getattr(engine.last_stats, counter))
    assert counts["dcr"] == [3, 4, 5, 6]
    assert counts["sri"] == [6, 14, 30, 62]
    assert is_polylog(ns, counts["dcr"])
    assert not is_polylog(ns, counts["sri"])


# ---------------------------------------------------------------------------
# 2. One loop, three derive steps
# ---------------------------------------------------------------------------

GRAPHS = {
    "cycle-9": cycle_graph(9),
    "tree-3": binary_tree(3),
    "gnp-12": random_graph(12, 0.3, seed=7),
}


def _run_with(query, graph, **engine_args):
    """``(value, flat_rounds, hash_joins)`` of one run on a fresh engine."""
    engine = Engine(**engine_args)
    try:
        value = engine.run(query, graph)
        stats = engine._vec().stats  # the driver's, under either backend
        return value, stats.flat_rounds, stats.hash_joins
    finally:
        engine.close()


@pytest.mark.parametrize("style", ["logloop", "sri"])
@pytest.mark.parametrize("gname", list(GRAPHS))
def test_local_and_thread_drivers_agree_with_object_kernels_and_reference(gname, style):
    graph, query = GRAPHS[gname].value(), reachable_pairs_query(style)
    want = reference_run(query, graph)
    local = _run_with(query, graph, backend="vectorized")
    assert local[0] == want and local[1] > 0
    assert _run_with(query, graph, backend="vectorized", flat=False) == (want, 0, local[2])
    assert _run_with(query, graph, backend="parallel", workers=1) == local
    assert _run_with(query, graph, backend="parallel", workers=2, pool="thread") == local


@pytest.mark.slow
@pytest.mark.parametrize("gname", list(GRAPHS))
def test_shm_pool_driver_agrees_with_the_local_one(gname):
    graph, query = GRAPHS[gname].value(), reachable_pairs_query("sri")
    local = _run_with(query, graph, backend="vectorized")
    assert local[0] == reference_run(query, graph)
    assert _run_with(query, graph, backend="parallel", workers=2, pool="shm") == local


# ---------------------------------------------------------------------------
# 3. The budget
# ---------------------------------------------------------------------------

REL_T = SetType(ProdType(BASE, BASE))
WALK = Lambda("v", REL_T, Union(Var("v"), compose(Var("v"), Var("r"), BASE)))


@pytest.mark.parametrize("budget", [1, 2, 5, 14, 15, 40])
def test_a_budget_below_the_depth_stops_exactly_there(budget):
    # loop(f)(n, s) applies f |n| times: one full round, then |n| - 1 frontier
    # rounds or as many as the 14 the path is deep, whichever is fewer.
    expr = Apply(Loop(WALK, BASE), Pair(Var("n"), Var("r")))
    env = {"r": path_graph(16).value(), "n": from_python(set(range(budget)))}
    engine = Engine(backend="vectorized")
    assert engine.run(expr, env=env, optimize=False) == reference_run(expr, env=env)
    stats = engine.last_stats
    assert stats.flat_rounds == stats.seminaive_rounds == min(budget - 1, 14)
    assert len(engine.run(expr, env=env, optimize=False).elements) == sum(
        16 - d for d in range(1, min(budget + 1, 15) + 1)
    )


# ---------------------------------------------------------------------------
# 4. Tracing and failure
# ---------------------------------------------------------------------------

@pytest.fixture()
def tracer():
    TRACER.clear()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.clear()


@pytest.mark.parametrize("engine_args", [
    dict(backend="vectorized"),
    dict(backend="parallel", workers=2, pool="thread"),
])
def test_one_fixpoint_round_event_per_round(tracer, engine_args):
    engine = Engine(**engine_args)
    try:
        with tracer.span("outer") as outer:
            engine.run(reachable_pairs_query("sri"), path_graph(8).value())
        events = [sp for sp in outer.walk() if sp.name == "fixpoint-round"]
        assert len(events) == engine._vec().stats.flat_rounds == 6
        assert [sp.attrs["round"] for sp in events] == [1, 2, 3, 4, 5, 6]
        # Round k of the closure of a path extends the 8 - k - 1 paths of
        # length k + 1 found by the round before.
        assert [sp.attrs["frontier"] for sp in events] == [6, 5, 4, 3, 2, 1]
        assert all(sp.attrs["flat"] is True and sp.seconds >= 0 for sp in events)
        pools = {sp.attrs.get("pool") for sp in events}
        assert pools == ({"thread"} if engine_args["backend"] == "parallel" else {None})
    finally:
        engine.close()


# A step that projects twice into the row's second component: sound while
# the rows it derives keep a pair there, an error once one does not.
_ROW = ProdType(BASE, ProdType(BASE, BASE))
_HOP = Apply(
    Ext(Lambda("p", _ROW, Apply(Ext(Lambda("q", _ROW, If(
        Eq(Proj1(Proj2(Var("p"))), Proj1(Var("q"))),
        Singleton(Pair(Proj1(Var("p")), Proj2(Var("q")))),
        EmptySet(_ROW),
    ))), Var("r")))),
    Var("v"),
)
DEEP_KEY_LOOP = Apply(
    Loop(Lambda("v", SetType(_ROW), Union(Var("v"), _HOP)), BASE),
    Pair(Var("n"), Var("start")),
)


@pytest.mark.parametrize("backend", ["vectorized", "parallel"])
def test_a_round_that_raises_leaves_the_error_the_counters_and_a_usable_engine(backend):
    sound = {("a", ("b", "x")), ("b", ("c", "x"))}
    env = {
        "r": from_python(sound | {("c", "d")}),  # the third hop derives ('s', 'd')
        "start": from_python({("s", ("a", "x"))}),
        "n": from_python(set(range(8))),
    }
    with pytest.raises(NRAEvalError) as reference_error:
        reference_run(DEEP_KEY_LOOP, env=env)
    engine = Engine(backend=backend, workers=2)
    try:
        for attempt in (1, 2):
            with pytest.raises(NRAEvalError, match="pi1: expected a pair, got 'd'") as error:
                engine.run(DEEP_KEY_LOOP, env=env, optimize=False)
            assert str(error.value) == str(reference_error.value)
            stats = engine._vec().stats
            # Two rounds completed; the third began (its join counts) and raised.
            assert (stats.flat_fixpoints, stats.flat_rounds, stats.flat_joins,
                    stats.hash_joins, stats.flat_dedups) == tuple(
                attempt * c for c in (1, 2, 4, 4, 3))
            if backend == "vectorized":
                assert stats.seminaive_rounds == 3 * attempt
        env["r"] = from_python(sound)
        assert engine.run(DEEP_KEY_LOOP, env=env, optimize=False) == reference_run(
            DEEP_KEY_LOOP, env=env)
    finally:
        engine.close()
