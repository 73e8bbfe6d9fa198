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

Everything here is deterministic.  The closure inputs run from a path,
one row per level, to ``gnp-24``, whose first levels are the widest; all
are held to the reference.  Past the pair-code width the table refuses to
issue an id, so every pair-emitting kernel and a ``fix()`` view stop with
the limit's error instead of packing a code that aliases (section 3).
"""

import random

import pytest

from repro.engine import Engine
from repro.api import Database, Q, connect
from repro.engine import DenseIdLimitError
from repro.engine.interning import CODE_BITS, InternTable
from repro.engine.vectorized import BatchContext, flat
from repro.nra.ast import (
    Apply, Const, EmptySet, Eq, If, Lambda, Loop, Pair, Proj1, Proj2, Singleton, Union,
    Var,
)
from repro.nra.derived import compose, ext_apply, field_of, nest, unnest
from repro.nra.eval import run as reference_run
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, PairVal, SetVal, from_python
from repro.relational.queries import REL_T, reachable_pairs_query
from repro.workloads.graphs import binary_tree, path_graph, random_graph
from repro.workloads.nested_graphs import ADJ_DB_T, nested_random_graph, two_hop_query

pytestmark = pytest.mark.columnar


def _tc_inputs():
    yield "path-16", path_graph(16).value()
    yield "tree-3", binary_tree(3).value()
    yield "gnp-7", random_graph(12, 0.3, seed=7).value()
    yield "gnp-24", random_graph(24, 0.15, seed=5).value()


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
        [q] = it.pairs_of([(fid << CODE_BITS) | sid])
        assert q is p

    def test_id_column_round_trips(self):
        it = InternTable()
        s = it.intern(from_python({(1, 2), (2, 3), (3, 1)}))
        ids = BatchContext(it).flat_column(s, ())
        assert [it.value_of(i) for i in ids] == list(s.elements)
        assert it.set_from_ids(list(ids)) is s

    def test_set_from_ids_matches_mkset_and_dedupes(self):
        it = InternTable()
        elems = [it.intern(from_python(v)) for v in (5, 1, 3, 1, 5)]
        ids = [it.dense_id(v) for v in elems]
        assert it.set_from_ids(ids) is it.mkset(elems)

    @staticmethod
    def _codes(it, s):
        parts = it.pair_parts()
        return [(f << flat.CODE_BITS) | b
                for f, b in (parts[it.dense_id(e)] for e in s.elements)]

    def test_set_from_pair_codes(self):
        it = InternTable()
        s = it.intern(from_python({(1, 2), (7, 8)}))
        assert it.set_from_pair_codes(self._codes(it, s)) is s

    def test_pair_codes_key_the_set_in_any_order_and_form(self):
        it = InternTable()
        s = it.intern(from_python({(1, 2), (7, 8), (2, 1), (3, 3)}))
        codes = self._codes(it, s)
        first = it.set_from_pair_codes(codes)  # the miss: builds and records
        assert first is s
        size, dense_size = it.size, it.dense_size
        for form in (
            list(reversed(codes)) + codes[:2],   # any order, duplicates
            (c for c in codes + codes),          # a generator
            set(codes),                          # a set
        ):
            assert it.set_from_pair_codes(form) is s
        # Hits build nothing: no new value and no new dense id.
        assert (it.size, it.dense_size) == (size, dense_size)

    def test_pair_codes_build_new_pairs_on_a_miss(self):
        it = InternTable()
        a, b = it.base(1), it.base(2)
        ia, ib = it.dense_id(a), it.dense_id(b)
        codes = [(ib << flat.CODE_BITS) | ia, (ia << flat.CODE_BITS) | ib]
        assert it.set_from_pair_codes(codes) is it.intern(from_python({(1, 2), (2, 1)}))

    def test_ids_and_codes_reach_one_set_in_either_order(self):
        for ids_first in (True, False):
            it = InternTable()
            s = it.intern(from_python({(1, 2), (5, 6), (9, 0)}))
            by_ids = lambda: it.set_from_ids([it.dense_id(e) for e in s.elements])
            by_codes = lambda: it.set_from_pair_codes(self._codes(it, s))
            first, second = (by_ids, by_codes) if ids_first else (by_codes, by_ids)
            assert first() is s
            assert second() is s

    def test_no_pair_codes_are_the_empty_set(self):
        it = InternTable()
        assert it.set_from_pair_codes([]) is it.empty_set
        assert it.set_from_pair_codes(iter(())) is it.empty_set

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

    def test_a_seen_grouped_answer_builds_no_pair(self, monkeypatch):
        # nest(two-hop) ends in codes: the second run finds every set it
        # materializes by its codes and resolves no code to a pair.
        q = Lambda("db", ADJ_DB_T, nest(Apply(two_hop_query(), Var("db")), BASE, BASE))
        db = nested_random_graph(32, 0.05, seed=4)
        eng = Engine(backend="vectorized")
        first = eng.run(q, db)
        assert first == reference_run(q, db)
        built = []
        monkeypatch.setattr(PairVal, "__init__", lambda *a: built.append(a))
        monkeypatch.setattr(InternTable, "pairs_of", lambda *a: built.append(a))
        size = eng.interner.size
        assert eng.run(q, db) is first
        assert eng.last_stats.flat_maps > 0 and eng.last_stats.flat_fallbacks == 0
        assert built == [] and eng.interner.size == size

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
# 3. The table issues no dense id past the pack width
# ---------------------------------------------------------------------------

_EDGE = ProdType(BASE, BASE)
_r, _x = Var("r"), Var("x")
_SWAP = Singleton(Pair(Proj2(_x), Proj1(_x)))


def _over_edges(body):
    return Lambda("r", REL_T, body)


#: (kernel, query, input, the counter the flat kernel bumps when it serves).
_PACKING = [
    ("flat_map", _over_edges(ext_apply(Lambda("x", _EDGE, _SWAP), _r)), "edges", "flat_maps"),
    ("flat_select", _over_edges(ext_apply(Lambda("x", _EDGE, If(
        Eq(Proj1(_x), Const(BaseVal(4), BASE)), _SWAP, EmptySet(_EDGE))), _r)),
     "edges", "flat_selects"),
    ("flat_join", _over_edges(compose(_r, _r, BASE)), "edges", "flat_joins"),
    ("flat_unnest", Lambda("db", ADJ_DB_T, unnest(Var("db"), BASE, BASE)), "adj", "flat_maps"),
    ("flat_group_map", _over_edges(nest(_r, BASE, BASE)), "edges", "flat_maps"),
    ("FlatLoop", reachable_pairs_query("logloop"), "edges", "flat_fixpoints"),
]


class TestPackGuard:
    """An intern table refuses to issue the dense id at its limit
    (``InternTable.id_limit``, the pair-code width), with an error that
    names the limit: every pair-emitting kernel and a ``fix()`` view's
    counted indexes stop there instead of packing a code that aliases
    another pair.  Nothing past the limit is issued, and the same engine
    answers again once the limit allows."""

    INPUTS = {
        "edges": random_graph(10, 0.3, seed=3).value(),
        "adj": nested_random_graph(10, 0.3, seed=3),
    }

    @pytest.mark.parametrize("kernel,q,arg,served", _PACKING,
                             ids=[case[0] for case in _PACKING])
    def test_each_kernel_stops_at_the_limit(self, monkeypatch, kernel, q, arg, served):
        value = self.INPUTS[arg]
        want = reference_run(q, value)
        eng = Engine(backend="vectorized")
        assert eng.run(q, value) == want
        assert getattr(eng.last_stats, served) > 0  # the flat kernel serves it
        assert eng.last_stats.flat_fallbacks == 0
        eng = Engine(backend="vectorized")
        eng.intern(value)
        limit = eng.interner.dense_size  # the input fits; its answer does not
        monkeypatch.setattr(eng.interner, "id_limit", limit)
        with pytest.raises(DenseIdLimitError, match=f"limit of {limit} "):
            eng.run(q, value)
        assert eng.interner.dense_size == limit
        monkeypatch.undo()
        assert eng.run(q, value) == want
        assert getattr(eng.last_stats, served) > 0

    def test_a_fix_view_stops_at_the_limit(self, monkeypatch):
        db = Database.of("g", edges=path_graph(8))
        session = connect(db)
        view = session.materialize(Q.coll("edges").fix(), name="tc")
        it = session.engine.interner
        # The commit's own values fit -- the pair (7, 0) and the next version
        # of ``edges`` -- but not the pairs the closed cycle derives.
        limit = it.dense_size + 2
        monkeypatch.setattr(it, "id_limit", limit)
        with pytest.raises(DenseIdLimitError, match=f"limit of {limit} ") as error:
            db.insert("edges", [(7, 0)])
        assert it.dense_size == limit
        # The snapshot moved; the view's maintenance is what stopped.
        assert session._environment()["edges"] is session.engine.intern(db["edges"])
        assert any(entry.path.name == "view.py" for entry in error.traceback)
        assert view.stats.delta_applies == 0

    @pytest.mark.ivm
    @pytest.mark.parametrize("read_first", [True, False], ids=["read", "commit"])
    def test_a_view_whose_maintenance_raised_rebuilds_from_the_commit(
            self, monkeypatch, read_first):
        db = Database.of("g", edges=path_graph(8))
        session = connect(db)
        q = Q.coll("edges").fix()
        view = session.materialize(q, name="tc")
        later = session.materialize(Q.coll("edges"), name="edges")  # registered after
        it = session.engine.interner
        monkeypatch.setattr(it, "id_limit", it.dense_size + 2)
        with pytest.raises(DenseIdLimitError):
            db.insert("edges", [(7, 0)])
        monkeypatch.undo()
        # The commit reached the view registered after the one that raised.
        assert (7, 0) in later.rows() and later.stats.delta_applies == 1
        cold = session.execute(q).value
        assert len(cold.elements) == 64  # the 8-cycle's closure
        if read_first:  # read at once: the read rebuilds (28 rows before)
            assert len(view) == 64 and view.value is cold
        db.insert("edges", [(3, 9)])
        cold = session.execute(q).value
        assert len(view) == len(cold.elements) == 72
        assert view.value is cold
        assert view.stats.fallback_recomputes == 1

    @pytest.mark.ivm
    def test_a_read_that_rebuilds_sends_listeners_the_rebuild(self, monkeypatch):
        db = Database.of("g", edges=path_graph(8))
        session = connect(db)
        view = session.materialize(Q.coll("edges").fix(), name="tc")
        mirror = set(view.value.elements)
        flags = []

        def fold(_, delta, fallback):
            mirror.difference_update(delta.deleted)
            mirror.update(delta.inserted)
            flags.append(fallback)

        view.add_listener(fold)
        it = session.engine.interner
        monkeypatch.setattr(it, "id_limit", it.dense_size + 2)
        with pytest.raises(DenseIdLimitError):
            db.insert("edges", [(7, 0)])
        monkeypatch.undo()
        assert len(view) == 64  # the read rebuilds, and the mirror follows it
        assert mirror == set(view.value.elements) and flags == [True]
        db.insert("edges", [(3, 9)])
        assert len(view) == len(mirror) == 72
        assert mirror == set(view.value.elements) and flags == [True, False]


# ---------------------------------------------------------------------------
# 4. Maintained fixpoint views ride the dense-id indexed walk
# ---------------------------------------------------------------------------

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

    def test_a_loop_with_nested_key_paths_against_a_constant_recomputes(self):
        # Nodes are pairs and the join keys reach two levels in:
        # pi2(pi2 x) = pi1(pi1 y), the accumulator's x against y in a
        # constant chain.  The step reads a constant, so no budget proof
        # covers it (a budget of at least 20 rounds here, the chain is 4
        # joins deep): the view recomputes, and keeps the cold run's value
        # as the seed moves.
        node = ProdType(BASE, BASE)
        elem = ProdType(node, node)
        rel = SetType(elem)
        x, y = Var("x"), Var("y")
        edges = {((a, a + 1), (a + 1, a + 2)) for a in range(8)}
        chain = Const(from_python(edges), rel)
        join = ext_apply(Lambda("x", elem, ext_apply(Lambda("y", elem, If(
            Eq(Proj2(Proj2(x)), Proj1(Proj1(y))),
            Singleton(Pair(Proj1(x), Proj2(y))), EmptySet(elem))), chain)), Var("rr"))
        step = Lambda("rr", rel, Union(Var("rr"), join))
        budget = Union(field_of(Var("pe"), node, node),
                       Const(from_python({(i, i) for i in range(20)}), SetType(node)))
        q = Q.raw(Apply(Loop(step, node), Pair(budget, Var("pe"))), rel)
        db = Database("g").register("pe", from_python(edges), type=rel)
        view = connect(db).materialize(q, name="tc")
        assert view.maintenance_plan().ops() == {"ivm-recompute"}
        rng = random.Random(5)
        for _ in range(8):
            a = rng.randrange(9)
            e = ((a, a + 1), (a + 1, a + 2))
            if e in edges:
                db.delete("pe", [e])
                edges.discard(e)
            else:
                db.insert("pe", [e])
                edges.add(e)
            assert view.value == connect(db).execute(q).value
        assert view.stats.flat_index_applies == 0
        assert view.stats.fallback_recomputes == 8 and view.stats.dred_applies == 0

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
