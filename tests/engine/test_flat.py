"""Flat-column kernels: dense-id plumbing and kernel parity.

The PR-7 representation change is only sound if two layers hold together:

* the **intern table's dense-id side** (stable ids, pair part registry,
  cached id columns, bytes-keyed set reconstruction) must round-trip every
  value it has interned -- ids are forever within an engine, and a column
  rebuilt from ids must be *the same interned set*, not merely an equal one;
* the **kernels** must be pure optimizations: on every query the flat
  (``flat=True``, the default) and object (``flat=False``) vectorized
  engines and the reference interpreter agree value-for-value, and the
  ``VecStats``/``ViewStats`` counters prove which representation actually
  served the run (a silent fallback would trivially pass the value check).

Everything here is deterministic.  The closure inputs straddle
``flat._NP_MIN``: the small graphs' frontiers take the pure-Python sort,
``gnp-24``'s first rounds the numpy one, all held to the reference.
"""

import pytest

from repro.engine import Engine
from repro.engine.interning import InternTable
from repro.engine.vectorized import flat
from repro.nra.eval import run as reference_run
from repro.objects.values import BaseVal, PairVal, SetVal, from_python
from repro.relational.queries import reachable_pairs_query
from repro.workloads.graphs import binary_tree, path_graph, random_graph

pytestmark = pytest.mark.columnar


def _tc_inputs():
    yield "path-16", path_graph(16).value()
    yield "tree-3", binary_tree(3).value()
    yield "gnp-7", random_graph(12, 0.3, seed=7).value()
    yield "gnp-24", random_graph(24, 0.15, seed=5).value()  # frontiers >= _NP_MIN


# ---------------------------------------------------------------------------
# 1. Dense-id round trips on the intern table
# ---------------------------------------------------------------------------

class TestInternDenseIds:
    def test_dense_id_round_trip(self):
        it = InternTable()
        vals = [it.intern(from_python(v)) for v in (1, "a", (1, 2), {1, 2, 3})]
        for v in vals:
            assert it.value_of(it.dense_id(v)) is v

    def test_dense_ids_are_stable_across_reinterning(self):
        it = InternTable()
        a = it.intern(from_python((1, 2)))
        before = it.dense_id(a)
        # Structurally equal values intern to the same representative, so
        # the dense id never moves.
        assert it.intern(PairVal(BaseVal(1), BaseVal(2))) is a
        assert it.dense_id(a) == before

    def test_pair_parts_registry(self):
        it = InternTable()
        p = it.intern(from_python((3, 4)))
        fid, sid = it.pair_parts()[it.dense_id(p)]
        assert it.value_of(fid) == BaseVal(3)
        assert it.value_of(sid) == BaseVal(4)
        assert it.pair_from_ids(fid, sid) is p

    def test_set_ids_column_round_trips(self):
        it = InternTable()
        s = it.intern(from_python({(1, 2), (2, 3), (3, 1)}))
        ids = it.set_ids(s)
        assert [it.value_of(i) for i in ids] == list(s.elements)
        assert it.set_from_ids(list(ids)) is s

    def test_set_from_ids_matches_mkset_and_dedupes(self):
        it = InternTable()
        elems = [it.intern(from_python(v)) for v in (5, 1, 3, 1, 5)]
        ids = [it.dense_id(v) for v in elems]
        assert it.set_from_ids(ids) is it.mkset(elems)

    def test_set_from_pair_codes(self):
        it = InternTable()
        s = it.intern(from_python({(1, 2), (7, 8)}))
        codes = []
        for e in s.elements:
            fid, sid = it.pair_parts()[it.dense_id(e)]
            codes.append((fid << flat.CODE_BITS) | sid)
        assert it.set_from_pair_codes(codes) is s

    def test_engine_clear_plans_keeps_dense_ids(self):
        # clear_plans drops query-scoped caches but must keep the intern
        # table: id-keyed state (dense ids, cached columns) survives.
        eng = Engine(backend="vectorized")
        g = path_graph(8).value()
        q = reachable_pairs_query("logloop")
        r1 = eng.run(q, g)
        it = eng.interner
        ids_before = {it.dense_id(e) for e in r1.elements}
        eng.clear_plans()
        r2 = eng.run(q, g)
        assert r2 == r1
        assert {it.dense_id(e) for e in r2.elements} == ids_before


# ---------------------------------------------------------------------------
# 2. Flat kernels are pure optimizations of the object kernels
# ---------------------------------------------------------------------------

class TestFlatKernelParity:
    @pytest.mark.parametrize("style", ["dcr", "logloop", "sri"])
    @pytest.mark.parametrize("gname,graph", list(_tc_inputs()))
    def test_tc_flat_equals_object_equals_reference(self, style, gname, graph):
        q = reachable_pairs_query(style)
        want = reference_run(q, graph)
        eng_flat = Engine(backend="vectorized")
        eng_obj = Engine(backend="vectorized", flat=False)
        try:
            assert eng_flat.run(q, graph) == want
            assert eng_obj.run(q, graph) == want
        finally:
            eng_flat.close()
            eng_obj.close()

    def test_stats_prove_the_flat_fixpoint_ran(self):
        g = path_graph(20).value()
        q = reachable_pairs_query("logloop")
        eng_flat = Engine(backend="vectorized")
        eng_obj = Engine(backend="vectorized", flat=False)
        try:
            eng_flat.run(q, g)
            assert eng_flat.last_stats.flat_fixpoints >= 1
            eng_obj.run(q, g)
            assert eng_obj.last_stats.flat_fixpoints == 0
        finally:
            eng_flat.close()
            eng_obj.close()

    def test_thread_pool_runs_the_flat_fixpoint_on_the_driver(self):
        g = path_graph(24).value()
        q = reachable_pairs_query("logloop")
        want = reference_run(q, g)
        eng = Engine(backend="parallel", workers=2)
        try:
            assert eng.run(q, g) == want
            # The fixpoint falls back whole; the driver's flat loop runs it.
            assert eng.last_stats.fallback_runs == 1
            assert eng._vec().stats.flat_fixpoints == 1
        finally:
            eng.close()


# ---------------------------------------------------------------------------
# 3. Maintained fixpoint views ride the dense-id indexed walk
# ---------------------------------------------------------------------------

from repro.api import Q, connect  # noqa: E402
from repro.workloads.streams import (  # noqa: E402
    graph_update_stream,
    stream_graph_database,
)


@pytest.mark.ivm
class TestFlatIndexedView:
    def test_fix_view_served_by_flat_index_on_inserts_and_deletes(self):
        db = stream_graph_database(12, "random", seed=3, p=0.25)
        session = connect(db)
        q = Q.coll("edges").fix()
        view = session.materialize(q, name="tc")
        stream = graph_update_stream(db, churn=0.3, insert_ratio=0.5,
                                     seed=4, domain=14)
        for cs in stream.run(5):
            assert view.value == session.execute(q).value
        assert view.stats.fallback_recomputes == 0
        # Every maintenance pass of the indexed fixpoint was served by the
        # dense-id mirror -- no silent fall to the generic frontier path.
        assert view.stats.flat_index_applies > 0

    def test_fix_view_on_object_engine_matches(self):
        # The dense-id mirror is maintenance state, not an executor kernel:
        # a flat=False session's fix() view is served by it too, and
        # maintains the same values as the flat engine's.
        db_flat = stream_graph_database(10, "random", seed=9, p=0.3)
        db_obj = stream_graph_database(10, "random", seed=9, p=0.3)
        q = Q.coll("edges").fix()
        s_flat = connect(db_flat)
        s_obj = connect(db_obj, engine=Engine(flat=False))
        v_flat = s_flat.materialize(q, name="tc")
        v_obj = s_obj.materialize(q, name="tc")
        for cs_a, cs_b in zip(
            graph_update_stream(db_flat, churn=0.25, insert_ratio=0.5,
                                seed=5, domain=12).run(4),
            graph_update_stream(db_obj, churn=0.25, insert_ratio=0.5,
                                seed=5, domain=12).run(4),
        ):
            assert v_flat.value == v_obj.value
        assert v_obj.stats.flat_index_applies > 0
        assert v_obj.stats.fallback_recomputes == 0
