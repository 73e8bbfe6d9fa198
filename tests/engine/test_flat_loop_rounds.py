"""The flat frontier loop: rounds are the paper's depth.

``FlatLoop.run`` is the one round loop of the compiling backends, with one
derive step: the vectorized compiler hands it a budget, and the parallel
backend hands every fixpoint whole to that compiler.  It walks the
accumulator as a level-ordered queue -- a round is the rows between two
level boundaries -- so everything below pins that the levels are exactly
the semi-naive rounds.  What is pinned here:

* **rounds are depth**: on path(n) the seeded closure ``reach(src)`` takes
  exactly ``n - 1 - src`` frontier rounds, in the engine's own counters, and
  the whole-relation closure is logarithmic by ``dcr`` and linear by ``sri``
  -- the paper's NC-vs-PTIME shape, without the cost interpreter;
* **one loop**: the vectorized and the parallel backend (whose driver runs
  the fixpoint) give the same value from the same number of rounds and
  joins, equal to the object kernels and the reference interpreter;
* the **budget** stops the loop exactly where the iterator's cardinality
  argument says, for a linear step, for one with two frontier terms and
  for a bilinear (squaring) one;
* **tracing** reports one ``fixpoint-round`` event per round and does not
  fork the loop (values and counters equal with the tracer on and off),
  an untraced loop reads no clock per round, and a round that raises
  leaves the error, the counters and a usable engine behind;
* **round one** runs in the frontier loop exactly when no branch of the
  step is loop-invariant (the plan says ``round-one-frontier``), so the
  first read after a commit builds no index and runs no map;
* the loop's **node set** ``field_of(edges)`` follows a commit by its node
  counts: the first read after one builds no set when no node came or
  went, reads the set off the carried counts when one did, and a
  collection of non-pairs still takes the union as written, errors included.

Counter literals were recorded when a strict step's round one moved into
the frontier loop (one round more than the object round one counted; no
object round-one join, dedup or row-numbered index) and ``field_of(edges)``
came to be read off the collection's id columns (no ``bulk_maps``).
"""

import pytest

import repro.engine.vectorized.flat as flat
from repro.api import Changeset, Database, Q
from repro.api.query import param_var
from repro.complexity.fit import is_polylog
from repro.engine import Engine
from repro.engine.interning import InternTable
from repro.engine.vectorized.batch import BatchContext
from repro.nra.ast import (
    Apply, Const, EmptySet, Eq, Ext, If, Lambda, Loop, Pair, Proj1, Proj2,
    Singleton, Union, Var,
)
from repro.nra.derived import compose, field_of
from repro.nra.errors import NRAEvalError
from repro.nra.eval import run as reference_run
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import from_python
from repro.obs import METRICS
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
        depth = max(0, n - 1 - src)
        assert stats.seminaive_rounds == stats.flat_rounds == depth
        assert stats.flat_fixpoints == (1 if rows else 0)
        assert stats.flat_fallbacks == 0


def test_reach_counters_on_path_16_are_the_recorded_ones():
    session, reach = _reach(16)
    # src 0 builds the loop's index over edges; src 3 builds none: its
    # select on fst is a bisection of edges, not an index (was 1 at src 3).
    recorded = {0: (15, 15, 15, 15, 16, 1, 14), 3: (12, 12, 12, 12, 13, 0, 12)}
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
    assert counts["sri"] == [7, 15, 31, 63]
    assert is_polylog(ns, counts["dcr"])
    assert not is_polylog(ns, counts["sri"])


# ---------------------------------------------------------------------------
# 2. One loop, whichever backend asked
# ---------------------------------------------------------------------------

GRAPHS = {
    "cycle-9": cycle_graph(9),
    "tree-3": binary_tree(3),
    "gnp-12": random_graph(12, 0.3, seed=7),
}

REL_T = SetType(ProdType(BASE, BASE))
#: A loop-invariant branch: an edge off every graph, so f({}) = OFF_GRAPH.
OFF_GRAPH = Const(from_python({(100, 101)}), REL_T)


def _query(style):
    """The closure in ``style``, ``loop(\\v. v U C U v o r)`` from ``r`` or from {},
    or the left-linear ``loop(\\v. v U r o v)`` from ``r``.

    The invariant branch ``C`` keeps the step's object round one: started
    in the frontier loop, the empty start would wrongly stay empty.  The
    left-linear step has no frontier-left term: ``r o v`` joins each level
    at its boundary, against the level's rebuilt index.
    """
    if style in ("logloop", "sri"):
        return reachable_pairs_query(style)
    if style == "left-linear":
        step = Lambda("v", REL_T, Union(Var("v"), compose(Var("r"), Var("v"), BASE)))
        start = Var("r")
    else:
        step = Lambda("v", REL_T, Union(
            Union(Var("v"), OFF_GRAPH), compose(Var("v"), Var("r"), BASE)))
        start = Var("r") if style == "invariant-branch" else EmptySet(ProdType(BASE, BASE))
    return Lambda("r", REL_T, Apply(
        Loop(step, BASE), Pair(field_of(Var("r"), BASE, BASE), start)))


def _run_with(query, graph, **engine_args):
    """``(value, flat_rounds, hash_joins)`` of one run on a fresh engine."""
    engine = Engine(**engine_args)
    try:
        value = engine.run(query, graph)
        stats = engine._vec().stats  # the driver's, under either backend
        return value, stats.flat_rounds, stats.hash_joins
    finally:
        engine.close()


@pytest.mark.parametrize(
    "style", ["logloop", "sri", "invariant-branch", "invariant-branch-empty", "left-linear"])
@pytest.mark.parametrize("gname", list(GRAPHS))
def test_local_and_thread_drivers_agree_with_object_kernels_and_reference(gname, style):
    graph, query = GRAPHS[gname].value(), _query(style)
    want = reference_run(query, graph)
    local = _run_with(query, graph, backend="vectorized")
    assert local[0] == want and local[1] > 0
    assert _run_with(query, graph, backend="vectorized", flat=False) == (want, 0, local[2])
    assert _run_with(query, graph, backend="parallel", workers=1) == local
    assert _run_with(query, graph, backend="parallel", workers=2) == local


@pytest.mark.parametrize("gname", list(GRAPHS))
def test_a_pool_wider_than_the_frontier_agrees_with_the_local_one(gname):
    # Sixteen threads, frontiers of a handful of rows: the fixpoint is not
    # cut up at all -- it falls back whole to the driver, which takes the
    # same rounds and joins as the vectorized backend and runs no pool task.
    graph, query = GRAPHS[gname].value(), reachable_pairs_query("sri")
    local = _run_with(query, graph, backend="vectorized")
    assert local[0] == reference_run(query, graph)
    engine = Engine(backend="parallel", workers=16)
    try:
        value = engine.run(query, graph)
        driver, par = engine._vec().stats, engine.last_stats
        assert (value, driver.flat_rounds, driver.hash_joins) == local
        assert par.fallback_runs == 1 and par.tasks == 0
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# 3. The budget
# ---------------------------------------------------------------------------

WALK = Lambda("v", REL_T, Union(Var("v"), compose(Var("v"), Var("r"), BASE)))


@pytest.mark.parametrize("budget", [1, 2, 5, 14, 15, 40])
def test_a_budget_below_the_depth_stops_exactly_there(budget):
    # loop(f)(n, s) applies f |n| times: |n| frontier rounds, the first from
    # the start itself, or the 15 the path is deep, whichever is fewer.
    expr = Apply(Loop(WALK, BASE), Pair(Var("n"), Var("r")))
    env = {"r": path_graph(16).value(), "n": from_python(set(range(budget)))}
    engine = Engine(backend="vectorized")
    assert engine.run(expr, env=env, optimize=False) == reference_run(expr, env=env)
    stats = engine.last_stats
    assert stats.flat_rounds == stats.seminaive_rounds == min(budget, 15)
    assert len(engine.run(expr, env=env, optimize=False).elements) == sum(
        16 - d for d in range(1, min(budget + 1, 15) + 1)
    )


#: ``\v. v U v o r U v o s``: two frontier terms, one edge or one skip (two
#: edges) further per round.
TWO_STEPS = Lambda("v", REL_T, Union(
    Union(Var("v"), compose(Var("v"), Var("r"), BASE)), compose(Var("v"), Var("s"), BASE)))


def _reference_rounds(step, env, budget):
    """The rounds the reference iterates ``step`` from ``r``: up to and
    including the first that adds nothing, or ``budget``."""
    before = env["r"]
    for k in range(1, budget + 1):
        expr = Apply(Loop(step, BASE), Pair(Var("n"), Var("r")))
        now = reference_run(expr, env=env | {"n": from_python(set(range(k)))})
        if now == before:
            return k
        before = now
    return budget


def _counted(expr, env, **engine_args):
    """Value, ``COUNTERS`` and ``flat_fixpoints`` of one run on a fresh engine,
    read off its vectorized evaluator: the one that runs every fixpoint,
    under either backend."""
    engine = Engine(**engine_args)
    try:
        value = engine.run(expr, env=env, optimize=False)
        stats = engine._vec().stats
        return value, tuple(getattr(stats, c) for c in COUNTERS), stats.flat_fixpoints
    finally:
        engine.close()


@pytest.mark.parametrize("budget", [1, 2, 5, 40])
def test_a_budget_cuts_a_step_with_two_frontier_terms_where_the_reference_does(budget):
    # The cursor probes each row with ``v o r``; ``v o s`` joins each level
    # at its boundary.  Round k finds the paths of length 2k and 2k + 1.
    expr = Apply(Loop(TWO_STEPS, BASE), Pair(Var("n"), Var("r")))
    env = {
        "r": path_graph(16).value(),
        "s": from_python({(i, i + 2) for i in range(14)}),
        "n": from_python(set(range(budget))),
    }
    value, counters, fixpoints = _counted(expr, env, backend="vectorized")
    assert value == reference_run(expr, env=env) and fixpoints == 1
    seminaive_rounds, flat_rounds = counters[:2]
    assert seminaive_rounds == flat_rounds == _reference_rounds(TWO_STEPS, env, budget)
    assert _counted(expr, env, backend="parallel", workers=2) == (value, counters, fixpoints)


#: ``loop(\v. v U v o v)``: squaring, a bilinear step -- J(delta, acc) from
#: round one, its mirror J(acc, delta) from round two.
SQUARE = Lambda("v", REL_T, Union(Var("v"), compose(Var("v"), Var("v"), BASE)))


@pytest.mark.parametrize("budget, rows, joins", [(1, 29, 1), (2, 54, 3), (3, 92, 5)])
def test_a_budget_cuts_a_bilinear_step_where_the_reference_does(budget, rows, joins):
    # Round k of squaring path(16) finds the paths of length up to 2 ** k;
    # the frontier-side index is rebuilt per round, the acc-side one grows.
    expr = Apply(Loop(SQUARE, BASE), Pair(Var("n"), Var("r")))
    env = {"r": path_graph(16).value(), "n": from_python(set(range(budget)))}
    engine = Engine(backend="vectorized")
    value = engine.run(expr, env=env, optimize=False)
    assert value == reference_run(expr, env=env) and len(value.elements) == rows
    stats = engine.last_stats
    assert stats.flat_rounds == stats.seminaive_rounds == budget
    assert (stats.flat_fixpoints, stats.flat_joins, stats.flat_fallbacks) == (1, joins, 0)


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
    dict(backend="parallel", workers=2),
])
def test_one_fixpoint_round_event_per_round(tracer, engine_args):
    engine = Engine(**engine_args)
    try:
        with tracer.span("outer") as outer:
            engine.run(reachable_pairs_query("sri"), path_graph(8).value())
        events = [sp for sp in outer.walk() if sp.name == "fixpoint-round"]
        assert len(events) == engine._vec().stats.flat_rounds == 7
        assert [sp.attrs["round"] for sp in events] == [1, 2, 3, 4, 5, 6, 7]
        # Round k of the closure of a path extends the 8 - k paths of
        # length k: the start's edges, then what the round before found.
        assert [sp.attrs["frontier"] for sp in events] == [7, 6, 5, 4, 3, 2, 1]
        assert all(sp.attrs["flat"] is True and sp.seconds >= 0 for sp in events)
        # The parallel backend falls back whole: its driver runs the loop.
        assert all("pool" not in sp.attrs for sp in events)
    finally:
        engine.close()


def test_an_untraced_loop_reads_no_clock_per_round(monkeypatch):
    session, reach = _reach(96)
    reads = []
    clock = flat.perf_counter

    def counted():
        reads.append(1)
        return clock()

    monkeypatch.setattr(flat, "perf_counter", counted)
    assert not TRACER.enabled
    assert len(reach.execute(src=0).fetchall()) == 95
    assert session.engine.last_stats.flat_rounds == 95
    assert len(reads) <= 1


def _observed(case):
    """Values and ``COUNTERS`` of one case, on a fresh engine."""
    if case == "reach-path-16":
        session, reach = _reach(16)
        out = []
        for src in range(16):
            rows = reach.execute(src=src).fetchall()
            out.append((rows, tuple(getattr(session.engine.last_stats, c) for c in COUNTERS)))
        return out
    style, gname = case.split("-", 1)
    engine = Engine(backend="vectorized")
    value = engine.run(reachable_pairs_query(style), GRAPHS[gname].value())
    return value, tuple(getattr(engine.last_stats, c) for c in COUNTERS)


@pytest.mark.parametrize("case", [
    "reach-path-16", "logloop-cycle-9", "logloop-gnp-12", "sri-cycle-9", "sri-gnp-12",
])
def test_tracing_does_not_fork_the_loop(tracer, case):
    # The round events are the loop's only trace-dependent work: values and
    # every counter come out the same with the tracer on and off.
    with tracer.span("outer") as outer:
        traced = _observed(case)
    assert any(sp.name == "fixpoint-round" for sp in outer.walk())
    tracer.disable()
    assert _observed(case) == traced


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
            # Three rounds completed; the fourth began (its join counts) and raised.
            assert (stats.flat_fixpoints, stats.flat_rounds, stats.flat_joins,
                    stats.hash_joins, stats.flat_dedups) == tuple(
                attempt * c for c in (1, 3, 4, 4, 3))
            # The parallel backend falls back whole, so the driver counts.
            assert stats.seminaive_rounds == 4 * attempt
        env["r"] = from_python(sound)
        assert engine.run(DEEP_KEY_LOOP, env=env, optimize=False) == reference_run(
            DEEP_KEY_LOOP, env=env)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# 5. Round one in the frontier loop, and the first read after a commit
# ---------------------------------------------------------------------------

def _loops(plan):
    return [n for n in plan.walk() if n.op == "loop-seminaive"]


def test_the_plan_shows_which_loops_start_in_the_frontier_loop():
    session = Database.of("g", edges=path_graph(8)).connect()
    reach = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    for query in (reach, Q.coll("edges").fix()):
        loops = _loops(session.explain_plan(query))
        assert loops and all("round-one-frontier" in n.annotations for n in loops)
    # Flat, but with a loop-invariant branch: round one stays the full step.
    loops = _loops(Engine().explain_plan(_query("invariant-branch")))
    assert loops and all(
        "flat-columns" in n.annotations and "round-one-frontier" not in n.annotations
        for n in loops)
    assert not any(
        "round-one-frontier" in n.annotations
        for n in _loops(Engine(flat=False).explain_plan(_query("sri"))))
    engine = Engine(backend="parallel", workers=2)
    try:
        for style, shown in (("sri", True), ("invariant-branch", False)):
            plan = engine.explain_plan(_query(style))
            assert next(iter(plan.walk())).op == "parallel"
            loops = _loops(plan)
            assert loops and all(
                ("round-one-frontier" in n.annotations) is shown for n in loops)
    finally:
        engine.close()


@pytest.mark.parametrize("write", ["insert", "delete"])
def test_the_first_read_after_a_commit_costs_what_a_warm_read_does(write):
    db = Database.of("g", edges=path_graph(16))
    session = db.connect()
    reach = session.prepare(Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src")))
    ctx = session.engine._vec().ctx
    reach.execute(src=0).fetchall()
    field = ctx._records[id(session.engine.intern(db["edges"]))].field
    built = METRICS.counter('repro_carried_indexes_total{kind="built"}').value
    # Neither write changes the node set: (3, 9) joins two path nodes, and
    # both ends of (7, 8) keep another edge.
    getattr(db, write)("edges", [(3, 9)] if write == "insert" else [(7, 8)])
    rows = reach.execute(src=0).fetchall()
    assert len(rows) == (15 if write == "insert" else 7)
    stats = session.engine.last_stats
    assert (stats.index_builds, stats.bulk_maps, stats.flat_fallbacks) == (0, 0, 0)
    assert METRICS.counter('repro_carried_indexes_total{kind="built"}').value == built
    assert ctx._records[id(session.engine.intern(db["edges"]))].field is field


def _field_builds(monkeypatch) -> list:
    """Record each ``InternTable.set_from_ids`` call made inside ``field_of``."""
    field_of, set_from_ids = BatchContext.field_of, InternTable.set_from_ids
    inside, builds = [], []

    def traced_field_of(self, source, build):
        inside.append(source)
        try:
            return field_of(self, source, build)
        finally:
            inside.pop()

    def counted_set_from_ids(self, ids):
        if inside:
            builds.append(inside[-1])
        return set_from_ids(self, ids)

    monkeypatch.setattr(BatchContext, "field_of", traced_field_of)
    monkeypatch.setattr(InternTable, "set_from_ids", counted_set_from_ids)
    return builds


@pytest.mark.ivm
@pytest.mark.parametrize("write", ["insert", "delete"])
def test_a_commit_that_keeps_the_node_set_builds_no_node_set(monkeypatch, write):
    session, reach = _reach(16)
    db = session.db
    reach.execute(src=0).fetchall()
    # (3, 9) joins two path nodes; both ends of (7, 8) keep another edge.
    getattr(db, write)("edges", [(3, 9)] if write == "insert" else [(7, 8)])
    builds = _field_builds(monkeypatch)
    assert len(reach.execute(src=0).fetchall()) == (15 if write == "insert" else 7)
    assert builds == []


def _reference_reach(db, src):
    el = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src")).elaborate(db.schema())
    env = db.environment()
    env[param_var("src")] = from_python(src)
    return reference_run(el.expr, env=env)


@pytest.mark.ivm
@pytest.mark.parametrize("inserts, deletes, same_nodes", [
    ([(15, 16)], [], False),          # node 16 arrives
    ([], [(14, 15)], False),          # node 15 leaves with its only edge
    ([(15, 14)], [(14, 15)], True),   # ...and comes back on another, in one changeset
])
def test_a_commit_that_moves_the_node_set_carries_its_counts(
        monkeypatch, inserts, deletes, same_nodes):
    session, reach = _reach(16)
    db, engine = session.db, session.engine
    ctx = engine._vec().ctx
    for src in (0, 5):
        reach.execute(src=src).fetchall()
    old_field = ctx._records[id(engine.intern(db["edges"]))].field
    db.apply(Changeset.of(edges=(inserts, deletes)))
    new = engine.intern(db["edges"])
    assert ctx._records[id(new)].nodes is not None
    assert (ctx._records[id(new)].field is not None) is same_nodes
    builds = _field_builds(monkeypatch)
    for src in range(17):
        assert reach.execute(src=src).value == _reference_reach(db, src), src
    # Built once from the carried counts when the nodes moved, never otherwise.
    assert builds == ([] if same_nodes else [new])
    field = ctx._records[id(new)].field
    assert field == reference_run(field_of(Var("r"), BASE, BASE), env={"r": new})
    assert (field is old_field) is same_nodes


@pytest.mark.ivm
def test_a_collection_of_non_pairs_takes_the_union_and_its_errors():
    # Under the same name ``r``: the relation first, then a nested set of
    # non-pairs, then the relation with a non-pair committed into it.
    expr = Apply(Loop(WALK, BASE), Pair(field_of(Var("r"), BASE, BASE), Var("r")))
    engine = Engine(backend="vectorized")
    ctx = engine._vec().ctx
    edges = engine.intern(path_graph(16).value())
    assert engine.run(expr, env={"r": edges}, optimize=False) == reference_run(
        expr, env={"r": edges})
    assert ctx._records[id(edges)].nodes is not None
    mixed = engine.advance(edges, [from_python(5)], [])
    rec = ctx._records[id(mixed)]
    assert not rec.indexes and not rec.scanned and rec.nodes is None and rec.field is None
    nested = from_python(frozenset({frozenset({1}), frozenset({2, 3})}))
    for r in (nested, mixed):
        with pytest.raises(NRAEvalError) as reference_error:
            reference_run(expr, env={"r": r})
        with pytest.raises(NRAEvalError) as error:
            engine.run(expr, env={"r": r}, optimize=False)
        assert str(error.value) == str(reference_error.value)
        assert ctx._records[id(engine.intern(r))].nodes is None
