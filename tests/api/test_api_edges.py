"""Edge-case coverage for the query-service API (PR-4 satellite).

The corners the main api suites walk past: cursor exhaustion and repeated
iteration, ``executemany`` with zero bindings, preparing a parameterless
query, and session stats accounting across an ``Engine.clear_plans`` issued
mid-session.
"""

import pytest

from repro.api import Database, Q, connect
from repro.workloads.graphs import path_graph


@pytest.fixture()
def session():
    return connect(Database.of("g", edges=path_graph(10)))


# ---------------------------------------------------------------------------
# Cursor exhaustion / double iteration
# ---------------------------------------------------------------------------

class TestCursorExhaustion:
    def test_fetchone_returns_none_after_exhaustion(self, session):
        cur = session.execute(Q.coll("edges"))
        n = len(cur)
        rows = [cur.fetchone() for _ in range(n)]
        assert all(r is not None for r in rows)
        assert cur.fetchone() is None
        assert cur.fetchone() is None  # stays exhausted, no error
        assert cur.rownumber == n

    def test_second_iteration_yields_nothing(self, session):
        cur = session.execute(Q.coll("edges"))
        first = list(cur)
        assert len(first) == len(cur)
        assert list(cur) == []  # forward-only: already drained
        assert cur.fetchall() == []

    def test_partial_iteration_then_fetchall_gets_the_rest(self, session):
        cur = session.execute(Q.coll("edges"))
        n = len(cur)
        it = iter(cur)
        head = [next(it), next(it), next(it)]
        rest = cur.fetchall()
        assert len(head) + len(rest) == n
        assert set(head).isdisjoint(rest)

    def test_fetchmany_beyond_the_end_is_empty(self, session):
        cur = session.execute(Q.coll("edges"))
        assert len(cur.fetchmany(10_000)) == len(cur)
        assert cur.fetchmany(10_000) == []

    def test_exhaustion_counts_rows_once(self, session):
        cur = session.execute(Q.coll("edges"))
        list(cur)
        list(cur)  # second drain converts nothing
        assert session.stats.rows_streamed == len(cur)


# ---------------------------------------------------------------------------
# executemany with zero bindings
# ---------------------------------------------------------------------------

class TestExecutemanyZeroBindings:
    def test_zero_bindings_returns_no_cursors(self, session):
        q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
        assert session.executemany(q, []) == []

    def test_zero_bindings_still_counts_the_batch(self, session):
        q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
        before = session.stats.copy()
        session.executemany(q, [])
        assert session.stats.batches == before.batches + 1
        assert session.stats.executes == before.executes

    def test_zero_bindings_multi_param_template(self, session):
        q = Q.coll("edges").where(lambda e: e.fst == Q.param("a")).where(
            lambda e: e.snd == Q.param("b")
        )
        assert session.executemany(q, []) == []


# ---------------------------------------------------------------------------
# prepare on a parameterless query
# ---------------------------------------------------------------------------

class TestParameterlessPrepare:
    def test_prepare_and_execute_without_params(self, session):
        ps = session.prepare(Q.coll("edges"))
        assert ps.param_names == []
        assert ps.execute().rows() == session.execute(Q.coll("edges")).rows()

    def test_parameterless_prepare_is_cached(self, session):
        ps1 = session.prepare(Q.coll("edges"))
        ps2 = session.prepare(Q.coll("edges"))
        assert ps1 is ps2
        assert session.stats.prepared_hits == 1

    def test_parameterless_executemany_needs_dict_bindings(self, session):
        ps = session.prepare(Q.coll("edges"))
        # Zero-parameter templates take the multi-param path: each binding
        # must be a dict (and an empty one at that).
        cursors = session.executemany(ps, [{}, {}])
        expected = session.execute(Q.coll("edges")).rows()
        assert [c.rows() for c in cursors] == [expected, expected]

    def test_supplying_a_param_to_a_parameterless_query_raises(self, session):
        ps = session.prepare(Q.coll("edges"))
        with pytest.raises(KeyError):
            ps.execute(src=1)


# ---------------------------------------------------------------------------
# Session stats across clear_plans
# ---------------------------------------------------------------------------

class TestStatsAcrossClearPlans:
    def test_rerun_after_clear_plans_recompiles_and_is_counted(self, session):
        q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
        session.execute(q, params={"src": 1})
        snap = session.stats.copy()
        session.engine.clear_plans()
        session.execute(q, params={"src": 1})
        # The rewrite plan was dropped, so this session pays (and records)
        # a fresh rewrite and fresh vectorized compiles.
        assert session.stats.rewrites == snap.rewrites + 1
        assert session.stats.vec_compiles > snap.vec_compiles
        assert session.stats.executes == snap.executes + 1

    def test_warm_rerun_without_clear_is_all_hits(self, session):
        q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
        session.execute(q, params={"src": 1})
        snap = session.stats.copy()
        session.execute(q, params={"src": 2})
        assert session.stats.rewrites == snap.rewrites
        assert session.stats.vec_compiles == snap.vec_compiles
        assert session.stats.plan_hits == snap.plan_hits + 1

    def test_results_unchanged_across_clear_plans(self, session):
        q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
        before = session.execute(q, params={"src": 4}).rows()
        session.engine.clear_plans()
        assert session.execute(q, params={"src": 4}).rows() == before

    def test_prepared_statement_survives_clear_plans(self, session):
        q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
        ps = session.prepare(q)
        want = ps.execute(src=2).rows()
        session.engine.clear_plans()
        # The statement object outlives the engine caches; execution pays a
        # fresh rewrite but returns the same rows.
        assert ps.execute(src=2).rows() == want
