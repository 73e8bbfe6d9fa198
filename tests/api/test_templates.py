"""Every ad-hoc entry point keys its plan on the query's shape.

One case per way a non-prepared runnable reaches the engine -- ``execute``,
``prepare``, ``materialize``, ``explain_analyze`` (``executemany`` is in
``tests/api/test_session.py``, the remote ``execute`` in
``tests/service/test_service.py``) -- each rebuilt per
literal so binders are fresh, each held to the reference interpreter on the
term ``Query.elaborate`` returns (literals inline), with the flat kernels on
and off.
"""

import pytest

from repro.api import Database, Q, Row, param_var
from repro.api.session import Session
from repro.engine import Engine
from repro.nra.eval import run as reference_run
from repro.objects.values import from_python
from repro.workloads.graphs import path_graph

pytestmark = pytest.mark.columnar

N = 10


@pytest.fixture(params=[True, False], ids=["flat", "objects"])
def session(request):
    db = Database.of("g", mutable=True, edges=path_graph(N))
    with Session(db, engine=Engine(backend="vectorized", flat=request.param)) as s:
        yield s


def reach_from(k: int):
    return Q.coll("edges").fix().where(lambda e: e.fst == k).map(lambda e: Row.pair(e.snd, k + 100))


def reference(session, query, **params):
    env = dict(session.db.environment())
    env.update({param_var(n): from_python(v) for n, v in params.items()})
    return reference_run(query.elaborate(session.schema()).expr, env=env)


def test_execute(session):
    for k in (1, 4, 7):
        assert session.execute(reach_from(k)).value == reference(session, reach_from(k))
    assert session.stats.rewrites == 1
    assert len(session.engine._plans) == 1


def test_execute_raw_expr_and_query_share_the_plan(session):
    session.execute(reach_from(2))
    expr = reach_from(5).elaborate(session.schema()).expr
    assert session.execute(expr).value == reference(session, reach_from(5))
    assert session.stats.rewrites == 1


def test_prepare_finds_the_statement_of_a_rebuilt_query(session):
    first = session.prepare(reach_from(3))
    assert session.prepare(reach_from(3)) is first
    other = session.prepare(reach_from(6))
    assert other is not first and other.template == first.template
    assert first.execute().value == reference(session, reach_from(3))
    assert other.execute().value == reference(session, reach_from(6))
    assert session.stats.rewrites == 1


def test_materialize_a_closure_selected_by_a_literal(session):
    views = [session.materialize(Q.coll("edges").fix().where(lambda e, k=k: e.fst == k))
             for k in (0, 8)]
    session.db.insert("edges", [(N - 1, N), (N, N + 1)])
    session.db.delete("edges", [(3, 4)])
    for k, view in zip((0, 8), views):
        query = Q.coll("edges").fix().where(lambda e: e.fst == k)
        assert view.value == reference(session, query)
        # The seeded loop the query runs, its seed the select on the literal.
        plan = view.maintenance_plan()
        assert plan.op == "ivm-fixpoint" and "linear-indexed" in plan.annotations
        assert plan.children[0].op == "ivm-select" and plan.children[0].detail == "%1"
    assert session.stats.delta_applies == 4
    assert session.stats.fallback_recomputes == 0


def test_explain_analyze(session):
    for k in (2, 5):
        profile = session.explain_analyze(reach_from(k))
        assert profile.result == reference(session, reach_from(k))
    assert session.stats.rewrites == 1
    assert "$c0" in str(session.explain(reach_from(9)).original)


# ---------------------------------------------------------------------------
# What canonical keys do not remove: genuinely distinct shapes are bounded
# ---------------------------------------------------------------------------

def shaped(i: int):
    """Query number ``i`` of 128 pairwise structurally different ones."""

    def nested(e):
        row = e.fst
        for bit in range(7):
            row = Row.pair(row, e.snd) if i >> bit & 1 else Row.pair(e.fst, row)
        return row

    return Q.coll("edges").where(lambda e: e.fst == i % N).map(nested)


@pytest.mark.parametrize("backend", ["vectorized", "auto"])
def test_plan_cache_is_bounded_and_keeps_what_is_in_use(backend, monkeypatch):
    bound = 32
    monkeypatch.setattr(Engine, "MAX_CACHED_PLANS", bound)
    db = Database.of("g", edges=path_graph(N))
    engine = Engine(backend=backend)
    with Session(db, engine=engine) as session:
        hot = session.prepare(Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src")))
        misses_of_hot = 0
        for i in range(3 * bound):
            assert session.execute(shaped(i)).value == reference(session, shaped(i))
            assert len(engine._plans) <= bound
            before = engine.plan_misses
            assert len(hot.execute(src=i % N).fetchall()) == N - 1 - i % N
            misses_of_hot += engine.plan_misses - before
        assert misses_of_hot == 0
        assert engine.plan_evictions >= 2 * bound
        assert engine.plan_misses == 3 * bound + 1
        sample = engine._metrics_sample()
        assert sample["repro_plan_cache_evictions_total"] == engine.plan_evictions
        # The route decisions and the compile cache went with the plans.
        if backend == "auto":
            assert 0 < len(engine.router().records) <= bound
        else:
            assert len(engine._vectorized.compiler._cache) < engine.vectorized_compiles() / 2
        # An evicted shape is simply planned again.
        assert session.execute(shaped(0)).value == reference(session, shaped(0))
        assert engine.plan_misses == 3 * bound + 2
