"""Sessions: prepared statements, cursors, batching, stats, concurrency.

The load-bearing assertion here is the prepared-statement acceptance
criterion: ``prepare`` then ``execute`` with N distinct bindings performs
exactly one rewrite and one vectorized compile pass -- every post-prepare
execute must be a pure cache hit (zero plan-cache misses, zero compiled
subexpressions), while producing exactly the reference interpreter's values.
"""

import threading

import pytest

from repro.api import Database, PreparedStatement, Q, Row, canonical_template, connect
from repro.nra import ast
from repro.nra.ast import Const, Eq, Lambda, Proj1, Var
from repro.nra.eval import run as ref_run
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, from_python
from repro.relational.queries import reachable_from_query
from repro.workloads.graphs import path_graph, random_graph

EDGE_T = ProdType(BASE, BASE)


@pytest.fixture()
def session():
    return connect(Database.of("g", edges=path_graph(12)))


# ---------------------------------------------------------------------------
# Prepared statements: the cache-keying contract
# ---------------------------------------------------------------------------

def test_prepare_then_execute_compiles_once(session):
    q = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    ps = session.prepare(q)
    after_prepare = session.stats.snapshot()
    # Preparing did the one rewrite and the one (multi-subexpression)
    # compile pass for the template.
    assert after_prepare.prepares == 1
    assert after_prepare.rewrites == 1
    assert after_prepare.vec_compiles > 0

    results = {}
    for src in range(10):
        results[src] = ps.execute(src=src).value

    # N distinct bindings: zero further rewrites, zero further compiles.
    assert session.stats.rewrites == after_prepare.rewrites
    assert session.stats.vec_compiles == after_prepare.vec_compiles
    assert session.stats.executes == after_prepare.executes + 10
    assert session.stats.plan_hits >= 10

    # Value-for-value against the reference interpreter.
    el = q.elaborate(session.schema(), session.engine.sigma)
    env = dict(session.db.environment())
    for src in range(10):
        env["$src"] = from_python(src)
        assert results[src] == ref_run(el.expr, None, env=env)


def test_preparing_same_template_twice_returns_cached(session):
    q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
    ps1 = session.prepare(q)
    ps2 = session.prepare(q)
    assert ps1 is ps2
    assert session.stats.prepares == 1
    assert session.stats.prepared_hits == 1


def test_unprepared_distinct_constants_share_one_plan(session):
    """Four rebuilt queries with four literals are one shape: the first pays
    the rewrite and the compiles, the rest hit the plan cache."""
    before = session.stats.snapshot()
    compiles = []
    for k in range(4):
        cur = session.execute(Q.coll("edges").where(lambda e, k=k: e.fst == k))
        assert cur.fetchall() == [(k, k + 1)]
        compiles.append(session.stats.vec_compiles)
    assert session.stats.rewrites - before.rewrites == 1
    assert session.stats.plan_hits - before.plan_hits == 3
    assert compiles[0] > before.vec_compiles
    assert compiles[1:] == compiles[:1] * 3
    assert len(session.engine._plans) == 1
    # Per-session sums still equal the engine's counters.
    engine = session.engine
    assert session.stats.rewrites == engine.plan_misses
    assert session.stats.plan_hits == engine.plan_hits
    assert session.stats.vec_compiles == engine.vectorized_compiles()


def test_prepare_raw_expr_lifts_constants(session):
    sel = ast.Apply(
        ast.Ext(
            Lambda(
                "e",
                EDGE_T,
                ast.If(
                    Eq(Proj1(Var("e")), Const(BaseVal(2), BASE)),
                    ast.Singleton(Var("e")),
                    ast.EmptySet(EDGE_T),
                ),
            )
        ),
        Var("edges"),
    )
    ps = session.prepare(sel)
    assert ps.param_names == ["c0"]
    # Default binding reproduces the original expression's result.
    assert ps.execute().fetchall() == [(2, 3)]
    # Rebinding the lifted slot needs no recompilation.
    snap = session.stats.snapshot()
    assert ps.execute(c0=7).fetchall() == [(7, 8)]
    assert session.stats.rewrites == snap.rewrites
    assert session.stats.vec_compiles == snap.vec_compiles


def test_canonical_template_dedups_equal_constants():
    e = ast.Pair(Const(BaseVal(1), BASE), ast.Pair(Const(BaseVal(1), BASE), Const(BaseVal(2), BASE)))
    template, types, defaults = canonical_template(e)
    assert sorted(types) == ["c0", "c1"]
    assert defaults["c0"] == BaseVal(1)
    assert defaults["c1"] == BaseVal(2)
    names = {n.name for n in ast.subexpressions(template) if isinstance(n, Var)}
    assert names == {"$c0", "$c1"}


def test_prepared_cache_distinguishes_lifted_defaults(session):
    """Two raw expressions differing only in their constants share a
    template but must not share a statement (regression: the cache keyed on
    the template alone, so the second prepare got the first one's
    defaults)."""

    def selection(k: int):
        return ast.Apply(
            ast.Ext(
                Lambda(
                    "e",
                    EDGE_T,
                    ast.If(
                        Eq(Proj1(Var("e")), Const(BaseVal(k), BASE)),
                        ast.Singleton(Var("e")),
                        ast.EmptySet(EDGE_T),
                    ),
                )
            ),
            Var("edges"),
        )

    ps3 = session.prepare(selection(3))
    ps5 = session.prepare(selection(5))
    assert ps3 is not ps5
    assert ps3.execute().fetchall() == [(3, 4)]
    assert ps5.execute().fetchall() == [(5, 6)]
    # Same template, same defaults -> cached; different backend -> distinct.
    assert session.prepare(selection(3)) is ps3
    assert session.prepare(selection(3), backend="reference") is not ps3


def test_unbound_and_unknown_params_raise(session):
    q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
    ps = session.prepare(q)
    with pytest.raises(KeyError):
        ps.execute()
    with pytest.raises(KeyError):
        ps.execute(src=1, extra=2)


# ---------------------------------------------------------------------------
# executemany
# ---------------------------------------------------------------------------

def test_executemany_single_param_delegates_to_run_many(session):
    q = reachable_from_query()
    ps = session.prepare(q)
    snap = session.stats.snapshot()
    cursors = session.executemany(ps, [0, 3, 7, 0])
    assert session.stats.batches == snap.batches + 1
    assert session.stats.rewrites == snap.rewrites + 1  # the closed Lambda form
    want = [
        session.execute(q, params={"src": s}).value for s in (0, 3, 7, 0)
    ]
    assert [c.value for c in cursors] == want
    # Dict bindings are accepted too.
    again = session.executemany(q, [{"src": 0}, {"src": 3}])
    assert [c.value for c in again] == want[:2]


def test_executemany_respects_prepared_backend(session):
    """A statement prepared for the parallel backend batches on parallel, not
    the session default (regression: the single-param fast path dropped it)."""
    from repro.engine import ParStats

    q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
    ps = session.prepare(q, backend="parallel")
    curs = session.executemany(ps, [0, 1])
    assert isinstance(session.engine.last_stats, ParStats)
    assert [c.fetchall() for c in curs] == [[(0, 1)], [(1, 2)]]


def test_executemany_multi_param_falls_back(session):
    q = Q.coll("edges").where(
        lambda e: e.fst.eq(Q.param("a")).or_(e.snd.eq(Q.param("b")))
    )
    cursors = session.executemany(q, [{"a": 0, "b": 2}, {"a": 1, "b": 3}])
    assert len(cursors) == 2
    with pytest.raises(TypeError):
        session.executemany(q, [0, 1])


# ---------------------------------------------------------------------------
# Cursors
# ---------------------------------------------------------------------------

def test_cursor_streams_and_counts(session):
    cur = session.execute(Q.coll("edges"))
    assert len(cur) == 11
    first = cur.fetchone()
    assert isinstance(first, tuple)
    some = cur.fetchmany(4)
    assert len(some) == 4
    rest = list(cur)
    assert len(rest) == 6
    assert cur.fetchone() is None
    assert cur.rownumber == 11
    assert session.stats.rows_streamed == 11


def test_cursor_fetchall_and_rows(session):
    cur = session.execute(Q.coll("edges"))
    assert sorted(cur.fetchall()) == [(i, i + 1) for i in range(11)]
    assert cur.fetchall() == []
    assert session.execute(Q.coll("edges")).rows() == frozenset(
        (i, i + 1) for i in range(11)
    )


def test_scalar_cursors(session):
    cur = session.execute(Q.coll("edges").exists())
    assert cur.scalar() is True
    assert len(cur) == 1
    with pytest.raises(TypeError):
        session.execute(Q.coll("edges")).scalar()


# ---------------------------------------------------------------------------
# Backends, raw values, lifecycle
# ---------------------------------------------------------------------------

def test_backends_agree_through_sessions():
    db = Database.of("g", edges=random_graph(8, 0.3, seed=5))
    q = Q.coll("edges").fix()
    values = {
        backend: connect(db, backend=backend).execute(q).value
        for backend in ("reference", "vectorized")
    }
    assert values["reference"] == values["vectorized"]


def test_sessions_can_share_one_engine():
    db = Database.of("g", edges=path_graph(8))
    s1 = connect(db)
    s2 = connect(db, engine=s1.engine)
    q = Q.coll("edges").fix()
    a = s1.execute(q)
    snap = s2.stats.snapshot()
    b = s2.execute(q)
    assert a.value == b.value
    # The second session rides the first one's plan: a hit, not a rewrite.
    assert s2.stats.rewrites == snap.rewrites
    assert s2.stats.plan_hits == snap.plan_hits + 1


def test_closed_session_refuses_work(session):
    with session as s:
        s.execute(Q.coll("edges"))
    with pytest.raises(RuntimeError):
        session.execute(Q.coll("edges"))
    with pytest.raises(RuntimeError):
        session.prepare(Q.coll("edges"))


def test_schemaless_session_runs_typed_queries():
    s = connect()
    cur = s.execute(Q.const({(0, 1), (1, 2)}).fix())
    assert sorted(cur.fetchall()) == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# Concurrency: one shared engine, many threads
# ---------------------------------------------------------------------------

def test_concurrent_sessions_on_one_engine_are_correct():
    db = Database.of("g", edges=random_graph(10, 0.25, seed=9))
    shared = connect(db)
    q = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    ps = shared.prepare(q)
    el = q.elaborate(db.schema(), shared.engine.sigma)
    env_base = dict(db.environment())

    expected = {}
    for src in range(10):
        env = dict(env_base)
        env["$src"] = from_python(src)
        expected[src] = ref_run(el.expr, None, env=env)

    errors = []

    def worker(start: int) -> None:
        try:
            for i in range(20):
                src = (start + i) % 10
                got = ps.execute(src=src).value
                if got != expected[src]:
                    errors.append((src, got))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert shared.stats.executes >= 120
