"""The intern table's sweep: what it frees, what it keeps, and who may keep ids.

``InternTable.sweep`` frees every canonical value that nothing outside the
table holds and that nothing has used since the sweep before.  Each test
forces sweeps between the steps of a computation -- two in a row, so that
nothing survives on its second chance alone -- and holds the result to the
reference interpreter or to a cold run.  The id-holder tests cover the
structures that keep dense ids, pair codes or ``id(value)`` without the value:
each must hold a value that holds them, and a sweep that freed what one of
them names would make its next use wrong or raise.
"""

import gc
from collections import Counter

import pytest

from repro.api import Database, Q, connect
from repro.engine import Engine
from repro.engine.interning import CODE_BITS, InternTable, _key_of
from repro.engine.shapes import analyze_step
from repro.engine.vectorized.flat import FlatLoop, build_inv_index, set_column
from repro.nra.ast import (
    Apply, Const, EmptySet, Eq, Ext, If, Lambda, Pair, Proj1, Proj2, Singleton, Union, Var,
)
from repro.nra.derived import compose
from repro.nra.eval import run as reference_run
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, PairVal, SetVal, from_python, to_python
from repro.workloads.graphs import path_graph

pytestmark = pytest.mark.columnar

PT = ProdType(BASE, BASE)


def select_in(var: str, source, cond, out=None):
    """``ext(\\var. if cond then {out} else {})(source)``, ``out`` the element by default."""
    out = Var(var) if out is None else out
    return Apply(Ext(Lambda(var, PT, If(cond, Singleton(out), EmptySet(PT)))), source)


def sweep_out(engine_or_table) -> int:
    """Two sweeps: the first spends every value's second chance."""
    it = getattr(engine_or_table, "interner", engine_or_table)
    return it.sweep() + it.sweep()


def check_table(it: InternTable) -> None:
    """The table's maps agree with each other and with ``_by_dense``."""
    live = {d: v for d, v in enumerate(it._by_dense) if v is not None}
    assert len(live) == it.size == len(it._dense) == len(it._keys)
    assert it.dense_size == len(it._by_dense)
    assert {id(v) for v in it._table.values()} == {id(v) for v in live.values()}
    for d, v in live.items():
        assert it.dense_id(v) == d
        if isinstance(v, (BaseVal, PairVal, SetVal)):  # what a sweep may free
            assert it._table[_key_of(v)] is v
        if isinstance(v, SetVal):  # a set's stored key is the one its elements make
            assert it._set_keys[id(v)] == _key_of(v)
        if isinstance(v, PairVal):
            fi, si = it._pair_parts[d]
            assert it.value_of(fi) is v.fst and it.value_of(si) is v.snd
            assert it._pair_codes[(fi << CODE_BITS) | si] is v
    assert set(it._pair_parts) == {d for d, v in live.items() if isinstance(v, PairVal)}
    assert set(it._set_keys) == {id(v) for v in live.values() if isinstance(v, SetVal)}
    for s in [*it._sets_by_ids.values(), *it._sets_by_codes.values()]:
        assert it.is_interned(s)
    assert it._slots == sum(len(v.elements) for v in live.values() if isinstance(v, SetVal))


def kept_ids(engine, views=()) -> set:
    """Every dense id a live structure of ``engine`` (and ``views``) keeps."""
    ids: set = set()
    for rec in engine._vec().ctx._records.values():
        for col in rec.columns.values():
            ids.update(col)
        for tag, index in rec.indexes.items():
            if type(tag) is tuple:
                ids.update(index)
                if tag[0] == "inv":
                    ids.update(x for bucket in index.values() for pair in bucket for x in pair)
        ids.update(rec.nodes or ())
    for view in views:
        stack = [view._root]
        while stack:
            st = stack.pop()
            stack.extend(st.children)
            flat = st.flat  # a fixpoint's or a composition's state on codes
            if flat is None:
                continue
            codes = [*flat.present, *flat.counts, *flat.seeds, *st.pending,
                     *(c for index in (flat.acc, flat.base)
                       for bucket in index.values() for c in bucket)]
            ids.update(flat.acc)
            ids.update(flat.base)
            ids.update(c >> CODE_BITS for c in codes)
            ids.update(c & ((1 << CODE_BITS) - 1) for c in codes)
    return ids


def assert_no_freed_ids(engine, views=()) -> None:
    by_dense = engine.interner._by_dense
    freed = sorted(d for d in kept_ids(engine, views) if by_dense[d] is None)
    assert not freed, f"live structures name freed dense ids {freed[:8]}"


# ---------------------------------------------------------------------------
# What a sweep frees and keeps
# ---------------------------------------------------------------------------

def test_a_sweep_frees_what_nothing_holds_or_used_and_moves_no_survivor():
    it = InternTable()
    held = it.intern(from_python({(1, 2), (2, 3)}))
    ids = {v: it.dense_id(v) for v in (held, *held.elements)}
    it.intern(from_python({(7, 8)}))       # held by nothing
    issued = it.dense_size
    assert it.sweep() == 0                 # everything is new since the last sweep
    assert it.sweep() == 4                 # {(7, 8)}, (7, 8), 7 and 8
    assert it.dense_size == issued and it.value_of(issued - 1) is None
    assert {v: it.dense_id(v) for v in ids} == ids
    check_table(it)
    again = it.intern(from_python({(7, 8)}))
    assert it.dense_id(again) >= issued    # a freed id is never issued again
    assert to_python(again) == frozenset({(7, 8)})
    check_table(it)


def test_a_value_found_since_the_last_sweep_gets_a_second_chance():
    it = InternTable()
    a, b = it.base(1), it.base(2)
    code = (it.dense_id(a) << CODE_BITS) | it.dense_id(b)
    s = it.set_from_pair_codes([code])
    sid = it.dense_id(s)
    del s
    it.sweep()
    assert it.set_from_pair_codes([code]) is it.value_of(sid)  # a hit: used
    it.sweep()
    assert it.value_of(sid) is not None
    it.sweep()
    assert it.value_of(sid) is None


def test_set_from_pair_codes_after_its_entry_was_pruned():
    it = InternTable()
    atoms = [it.base(k) for k in range(6)]         # the parts stay held
    codes = [(it.dense_id(atoms[k]) << CODE_BITS) | it.dense_id(atoms[k + 1])
             for k in range(5)]
    first = it.set_from_pair_codes(codes)
    first_id, n_cached = it.dense_id(first), len(it._sets_by_codes)
    ids_key = it.set_from_ids([it.dense_id(atoms[0])])   # another entry, held
    del first
    sweep_out(it)
    assert it.value_of(first_id) is None
    assert len(it._sets_by_codes) == n_cached - 1        # pruned, not cleared
    assert list(it._sets_by_ids.values()) == [ids_key]
    check_table(it)
    again = it.set_from_pair_codes(reversed(codes))
    assert it.dense_id(again) > first_id
    assert to_python(again) == frozenset((k, k + 1) for k in range(5))
    assert it.set_from_pair_codes(codes) is again
    check_table(it)


def test_intern_rows_counts_and_marks_what_intern_would():
    # Packing a pair of interned atoms finds what three probes found: the
    # same hits and misses, and the same values marked used for the
    # sweep's second chance.  Any other row takes intern itself.
    rows = [(1, 2), (2, 3), (4, 1), (600, 601), ("a", 1), ((1, 2), 3), 5]
    tables = InternTable(), InternTable()
    for it in tables:
        it.intern(from_python({(2, 3), (3, 4)}))
        it.sweep()
    one, batch = tables
    singly = [one.intern(from_python(r)) for r in rows]
    values, codes = batch.intern_rows([from_python(r) for r in rows])
    assert (one.hits, one.misses) == (batch.hits, batch.misses)

    def used(it):
        return {to_python(it.value_of(it._dense[i])) for i in it._used}

    assert used(one) == used(batch)
    assert [to_python(v) for v in values] == [to_python(v) for v in singly] == rows
    assert all(batch.is_interned(v) for v in values)
    assert [c is None for c in codes] == [not isinstance(v, PairVal) for v in values]
    assert all(p is v for p, v in zip(
        batch.pairs_of([c for c in codes if c is not None]),
        [v for v in values if isinstance(v, PairVal)], strict=True))
    check_table(batch)


def test_a_splice_weaves_its_sets_stored_key():
    # The spliced set's key is cut and woven from the old set's: equal to
    # the one its elements make, sharing the old key's ints where the rows
    # stayed.  Splicing the rows back finds the old set.
    it = InternTable()
    s = it.intern(from_python({(k, k + 1) for k in range(0, 40, 2)}))
    rows = [it.intern(from_python(r)) for r in [(1, 2), (100, 0), (-5, 3)]]
    gone = [s.elements[0], s.elements[7]]
    new, dels, ins = it.splice(s, rows, gone)
    assert len(dels) == 2 and len(ins) == 3
    assert it.canonical_set(new.elements) is new
    key, old = it._set_keys[id(new)], it._set_keys[id(s)]
    assert key == _key_of(new) and old == _key_of(s)
    row_of = {id(e): row for row, e in enumerate(s.elements)}
    assert all(key[row + 1] is old[row_of[id(e)] + 1]
               for row, e in enumerate(new.elements) if id(e) in row_of)
    assert it.splice(it.splice(s, rows, [])[0], [], rows)[0] is s
    assert it.splice(new, gone, rows)[0] is s
    check_table(it)
    del new
    sweep_out(it)                          # the spliced sets go, by their stored keys
    assert set(it._set_keys) == {id(s), id(it.empty_set)}
    check_table(it)


def test_the_trigger_is_the_load_grown_by_half():
    it = InternTable()
    it.SWEEP_MIN = 8
    it._sweep_at = 8
    keep = [it.base(k) for k in range(4)]
    assert it.sweep_due                      # 4 constants + 4 atoms
    it.sweep()
    load = it.size + it._slots
    assert it._sweep_at == load + max(8, load // 2)
    keep.append(it.mkset(keep))              # a set weighs 1 + its elements
    assert it.size + it._slots == load + 5


# ---------------------------------------------------------------------------
# Recurring answers and values a caller holds
# ---------------------------------------------------------------------------

def test_a_recurring_answer_survives_a_sweep():
    session = Database.of("g", edges=path_graph(96)).connect()
    it = session.engine.interner
    reach = session.prepare(Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src")))
    sweep_out(it)
    first = [reach.execute(src=src).fetchall() for src in range(96)]
    it.sweep()
    misses = it.misses
    again = [reach.execute(src=src).fetchall() for src in range(96)]
    assert it.misses == misses and again == first
    size = it.size
    sweep_out(it)                            # two sweeps, no read: they go
    assert it.size < size - 96
    assert [reach.execute(src=src).fetchall() for src in range(96)] == first
    check_table(it)


def test_a_value_a_caller_holds_stays_canonical():
    db = Database.of("g", edges=path_graph(12))
    session = db.connect()
    q = Q.coll("edges").fix().where(lambda e: e.snd == 7)
    cursor = session.execute(q)
    held = cursor.value
    sweep_out(session.engine)
    assert session.engine.interner.is_interned(held)
    assert session.execute(q).value is held
    assert session.engine.intern(from_python(cursor.rows())) is held


# ---------------------------------------------------------------------------
# The id holders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", [("f",), ("s",)], ids=["fst", "snd"])
def test_a_compiled_compare_constant_is_held_by_its_plan(path):
    engine = Engine()
    it = engine.interner
    # The canonical 99 is this object, not the plan's literal: only the
    # compiled plan (and this name, until it is dropped) holds it.
    canonical = it.intern(BaseVal(99))
    key = (Proj1 if path == ("f",) else Proj2)(Var("e"))
    q = select_in("e", Var("edges"), Eq(key, Const(BaseVal(99), BASE)))
    edges = to_python(path_graph(6).value())
    env = {"edges": from_python(edges)}
    assert engine.run(q, env=env) == reference_run(q, env=env)
    del canonical
    sweep_out(engine)
    # 99 enters the data after the sweep: the compare must still see it.
    edge = (99, 2) if path == ("f",) else (2, 99)
    env = {"edges": from_python(edges | {edge})}
    assert engine.run(q, env=env) == reference_run(q, env=env)
    assert to_python(engine.run(q, env=env)) == frozenset({edge})


def test_set_records_keep_columns_indexes_and_node_counts_of_held_sets():
    db = Database.of("g", edges=path_graph(16))
    session = db.connect()
    engine = session.engine
    reach = session.prepare(Q.coll("edges").fix().where(lambda e: e.snd == Q.param("dst")))
    tc = Q.coll("edges").fix()
    for step in range(6):
        rows = reach.execute(dst=9).rows()
        cold = connect(db).execute(Q.coll("edges").fix().where(lambda e: e.snd == 9)).rows()
        assert rows == cold
        assert session.execute(tc).rows() == to_python(reference_run(
            tc.elaborate(db.schema()).expr, env=db.environment()))
        sweep_out(engine)
        assert_no_freed_ids(engine)
        it = engine.interner
        for rec in engine._vec().ctx._records.values():
            ids = [it.dense_id(e) for e in rec.set.elements]
            for p, col in rec.columns.items():
                assert list(col) == (list(set_column(it, ids, p)) if p else ids)
            for tag, index in rec.indexes.items():
                if type(tag) is tuple and tag[0] == "inv":
                    built = build_inv_index(it, ids, tag)
                    assert {k: sorted(b) for k, b in index.items()} == {
                        k: sorted(b) for k, b in built.items()}
            if rec.nodes is not None:
                built = Counter(set_column(it, ids, ("f",)))
                built.update(set_column(it, ids, ("s",)))
                assert dict(rec.nodes) == dict(built)
        # A fresh node comes and goes: the carried records move by it.
        if step % 2:
            db.delete("edges", [(15, 100 + step - 1)])
        else:
            db.insert("edges", [(15, 100 + step)])
    check_table(engine.interner)


def test_an_object_index_holds_its_computed_keys():
    engine = Engine(flat=False)
    x, y = Var("x"), Var("y")
    # The right key (snd, fst) is a pair built per element of ``r``: (4, 3)
    # is no element of ``r``, so between runs only the index holds it.
    inner = select_in("y", Var("r"), Eq(Pair(Proj1(x), Proj2(x)), Pair(Proj2(y), Proj1(y))),
                      Pair(Proj1(x), Proj2(y)))
    join = Apply(Ext(Lambda("x", PT, inner)), Var("l"))
    r = {(1, 2), (2, 1), (3, 4)}
    for left in ({(1, 2)}, {(4, 3)}, {(4, 3), (2, 1)}):
        env = {"l": from_python(left), "r": from_python(r)}
        assert engine.run(join, env=env) == reference_run(join, env=env)
        assert engine.last_stats.hash_joins == 1
        sweep_out(engine)
    assert engine._vec().stats.index_builds == 1   # one index, kept across sweeps


def test_a_fix_views_dense_id_state_names_only_held_values():
    db = Database.of("g", edges=path_graph(10))
    session = db.connect()
    engine = session.engine
    view = session.materialize(Q.coll("edges").fix(), name="tc")
    assert view._root.flat is not None
    seen: list = []
    view.add_listener(lambda v, delta, fallback: seen.append(delta))
    for step, (kind, edge) in enumerate([
            ("insert", (9, 50)), ("insert", (50, 51)), ("delete", (9, 50)),
            ("insert", (3, 52)), ("delete", (50, 51)), ("delete", (3, 52))]):
        getattr(db, kind)("edges", [edge])
        sweep_out(engine)
        assert_no_freed_ids(engine, [view])
        cold = connect(db).execute(Q.coll("edges").fix()).value
        assert view.value == cold and len(view) == len(cold.elements)
        if step % 2:
            sweep_out(engine)                 # a read between commits, or none
    assert view.value == reference_run(
        Q.coll("edges").fix().elaborate(db.schema()).expr, env=db.environment())
    assert view.stats.fallback_recomputes == 0 and len(seen) == 6
    check_table(engine.interner)


@pytest.mark.parametrize("make", [
    lambda e: e.fix().where(lambda x: x.fst == 3),
    lambda e: e.fix().compose(e),
    lambda e: e.compose(e).fix(),
    lambda e: e.fix() | e.where(lambda x: x.fst == 3).fix(),
], ids=["select-over-fix", "fix-compose", "compose-fix", "union-of-fixes"])
def test_nothing_below_a_views_root_keeps_an_output_across_sweeps(make):
    # Below the root no node keeps a rendered output or a pending delta: a
    # base's elements are held by the snapshot's collection, a counted
    # node's by its counts, a coded node's codes by its children.  With a
    # sweep in every advance and two before every read, on atoms nothing
    # else names, each read equals a cold run.
    db = Database.of("g", edges=path_graph(10))
    session = db.connect()
    engine = session.engine
    it = engine.interner
    it.SWEEP_MIN = 16
    query = make(Q.coll("edges"))
    view = session.materialize(query, name="v")
    assert not view.recompute_only
    swept = []
    for kind, rows in [("insert", [(9, 60), (60, 61), (3, 60)]), ("delete", [(9, 60)]),
                       ("insert", [(61, 2), (62, 63)]), ("delete", [(3, 60), (4, 5)]),
                       ("insert", [(4, 5), (63, 3)]),
                       ("delete", [(60, 61), (61, 2), (62, 63), (63, 3)])]:
        it._sweep_at = 0                      # the advance ends in a sweep
        getattr(db, kind)("edges", rows)
        swept.append(sweep_out(engine))
        assert_no_freed_ids(engine, [view])
        want = reference_run(query.elaborate(db.schema()).expr, env=db.environment())
        assert view.value == want and len(view) == len(want.elements), (kind, rows)
    assert sum(swept) > 0 and view.stats.fallback_recomputes == 0
    check_table(it)


def test_an_unread_fix_view_reads_right_after_any_number_of_sweeps():
    # Between reads the commits' changes are pending codes and pairs: every
    # code's parts are held by the children's outputs, so sweeps between
    # commits free none of them, and the first read folds them all.
    db = Database.of("g", edges=path_graph(10))
    session = db.connect()
    engine = session.engine
    it = engine.interner
    it.SWEEP_MIN = 16
    it._sweep_at = 0                          # the next commit sweeps
    view = session.materialize(Q.coll("edges").fix(), name="tc")
    for kind, edges in [("insert", [(9, 60), (60, 61)]), ("delete", [(4, 5)]),
                        ("insert", [(4, 5), (61, 0)]), ("delete", [(9, 60), (2, 3)]),
                        ("insert", [(70, 71)])]:
        getattr(db, kind)("edges", edges)
        sweep_out(engine)
        assert_no_freed_ids(engine, [view])
    assert view.stats.materializations == 0
    want = reference_run(
        Q.coll("edges").fix().elaborate(db.schema()).expr, env=db.environment())
    assert view.value == want and len(view) == len(want.elements)
    assert view.stats.materializations == 1 and view.stats.fallback_recomputes == 0
    check_table(it)


def _unread_deltas_hold_their_codes_parts(query) -> None:
    """A view on pair codes records its commits as codes, and the delta a
    listener is sent decodes on its first access.  Edges come and go on
    atoms that nothing else names, the view is never read between commits,
    the listener folds python rows (it holds no value), and two sweeps run
    after every commit and again before the listener first reads what it
    was sent: until then only the delta holds its codes' parts."""
    db = Database.of("g", edges=path_graph(8))
    session = db.connect()
    engine = session.engine
    it = engine.interner
    it.SWEEP_MIN = 16
    view = session.materialize(query, name="coded")
    mirror = set(view.rows())
    sent: list = []
    view.add_listener(lambda _view, delta, _fallback: sent.append(delta))

    def fold() -> None:
        for delta in sent:
            mirror.difference_update(to_python(v) for v in delta.deleted)
            mirror.update(to_python(v) for v in delta.inserted)
        sent.clear()

    # The insert's delta is read at once; the delete's, holding the only
    # reference to 100 and 101 once the delete is in, only after the sweeps.
    db.insert("edges", [(7, 100), (100, 101)])
    sweep_out(engine)
    fold()
    for kind, edges in [("delete", [(7, 100), (100, 101)]), ("insert", [(102, 0), (3, 103)]),
                        ("insert", [(103, 104), (104, 105)]),
                        ("delete", [(3, 103), (102, 0)])]:
        getattr(db, kind)("edges", edges)
        sweep_out(engine)
        assert_no_freed_ids(engine, [view])
    assert len(sent) == 4 and all(delta.n_inserted or delta.n_deleted for delta in sent)
    sweep_out(engine)
    fold()
    sweep_out(engine)
    assert view.stats.materializations == 0
    want = reference_run(query.elaborate(db.schema()).expr, env=db.environment())
    assert view.value == want and mirror == to_python(want)
    assert view.stats.materializations == 1 and view.stats.fallback_recomputes == 0
    check_table(it)


def test_an_unread_fix_views_deltas_hold_their_codes_parts_until_decoded():
    _unread_deltas_hold_their_codes_parts(Q.coll("edges").fix())


def test_an_unread_compose_views_deltas_hold_their_codes_parts_until_decoded():
    # The composition counts on codes too: (6, 100) and (7, 101) leave with
    # the delete, named by nothing but the delta that says so.
    edges = Q.coll("edges")
    _unread_deltas_hold_their_codes_parts(edges.compose(edges))


def test_the_rows_a_commit_deletes_stay_live_until_its_views_read_them(monkeypatch):
    # The snapshot interns a commit's rows once and hands them to every view
    # after the advance, which may end in a sweep: forced here on every
    # commit, with a tiny SWEEP_MIN.  The deleted rows -- on atoms nothing
    # else names -- are still canonical when each view reads them, and every
    # read equals a cold run.
    db = Database.of("g", edges=path_graph(10))
    session = db.connect()
    engine = session.engine
    it = engine.interner
    it.SWEEP_MIN = 16
    edges = Q.coll("edges")
    queries = {"tc": edges.fix(), "two_hop": edges.compose(edges)}
    views = {name: session.materialize(q, name=name) for name, q in queries.items()}
    sweeps, read = [], []
    sweep = it.sweep
    monkeypatch.setattr(it, "sweep", lambda: sweeps.append(sweep()) or sweeps[-1])
    for view in views.values():
        def reading(changeset, apply=view.apply, view=view):
            for name in changeset:
                ins, dels, ins_codes, del_codes = view._snapshot.rows[name]
                rows = [*ins, *dels]
                read.append(all(it.is_interned(v) and it.value_of(it.dense_id(v)) is v
                                for v in rows)
                            and all(p is v for p, v in zip(
                                it.pairs_of([*ins_codes, *del_codes]), rows, strict=True)))
            return apply(changeset)

        monkeypatch.setattr(view, "apply", reading)
    for kind, rows in [("insert", [(9, 60), (60, 61)]), ("delete", [(9, 60), (60, 61)]),
                       ("insert", [(62, 63), (3, 62)]), ("delete", [(3, 62), (2, 3)]),
                       ("delete", [(62, 63)])]:
        it._sweep_at = 0                      # the advance ends in a sweep
        before = len(sweeps)
        getattr(db, kind)("edges", rows)
        assert len(sweeps) == before + 1
        for name, view in views.items():
            want = reference_run(queries[name].elaborate(db.schema()).expr,
                                 env=db.environment())
            assert view.value == want and len(view) == len(want.elements), name
        assert_no_freed_ids(engine, views.values())
    assert len(read) == 10 and all(read)
    assert sum(sweeps) > 0                    # the sweeps freed what nothing held
    for view in views.values():
        assert view.stats.fallback_recomputes == 0
    check_table(it)


def test_a_fix_view_whose_pass_raised_holds_its_pending_codes_until_the_rebuild(monkeypatch):
    # The unread insert leaves codes on 200 and 201 pending on the output;
    # the delete that takes them out of the bases raises in the pass.  The
    # read after two sweeps rebuilds, diffing against the pending output.
    db = Database.of("g", edges=path_graph(8))
    session = db.connect()
    engine = session.engine
    view = session.materialize(Q.coll("edges").fix(), name="tc")
    mirror, flags = set(view.rows()), []

    def fold(_view, delta, fallback):
        mirror.difference_update(to_python(v) for v in delta.deleted)
        mirror.update(to_python(v) for v in delta.inserted)
        flags.append(fallback)

    view.add_listener(fold)
    db.insert("edges", [(7, 200), (200, 201)])

    def raises(*args):
        raise RuntimeError("pass failed")

    monkeypatch.setattr(view, "_linear_pass", raises)
    with pytest.raises(RuntimeError, match="pass failed"):
        db.delete("edges", [(7, 200), (200, 201)])
    monkeypatch.undo()
    gc.collect()  # the raised error's frames held the commit's rows in a cycle
    sweep_out(engine)
    assert len(view) == 28 and flags == [False, True]
    assert mirror == set(view.rows()) == to_python(
        connect(db).execute(Q.coll("edges").fix()).value)
    check_table(engine.interner)


def test_a_flat_loop_holds_the_sets_it_was_set_up_from():
    engine = Engine()
    it, ctx = engine.interner, engine._vec().ctx
    r, edges = Var("r"), Var("edges")
    shape = analyze_step(Lambda("r", SetType(PT), Union(r, compose(r, edges, BASE))))
    assert shape is not None and shape.flat is not None
    graph = from_python({(1000 + k, 1001 + k) for k in range(8)})
    env = {"edges": it.intern(graph)}
    inv = [(None, None) if spec == "copy" else tuple(
        None if src is None else engine._vec().compile(src).fn(env)
        for src in (spec.left_src, spec.right_src)) for spec in shape.flat]
    # The start holds the only pair mentioning 5000: after setup only the
    # loop holds it, and every code the loop derives starts at its id.
    start = it.intern(from_python({(5000, 1000)}))
    loop = FlatLoop(ctx, shape.flat)
    loop.setup(start, start, inv)
    del start
    sweep_out(it)
    assert it.value_of(loop._acc_f[0]) is not None
    loop.run(1 << 20)
    out = loop.materialize()
    assert to_python(out) == frozenset((5000, 1000 + k) for k in range(9))
    check_table(it)


# ---------------------------------------------------------------------------
# The soak: never-repeating commits, a read after each
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_never_repeating_commits_keep_the_table_flat():
    """5,000 commits on ``path(48)`` -- insert a fresh edge, then delete it --
    with a ``reach(src)`` read after each, traced by ``tracemalloc``.  The
    table's size and the traced bytes at commit 5,000 are within 1.2x of
    their values at commit 1,000, and so are their peaks over the 500
    commits before each (a sweep interval spans a few hundred commits).
    Every read equals a cold run on a fresh engine, checked afterwards by
    the rows' hash so that holding the answers adds nothing to the traced
    bytes.  Before sweeping, the table grew 1.7x from commit 1,000 to 2,000.
    """
    import tracemalloc
    from array import array

    commits, n = 5000, 48
    db = Database.of("g", edges=path_graph(n))
    session = db.connect()
    it = session.engine.interner
    reach = session.prepare(Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src")))

    def edge(c):
        return (c // 2 % (n - 1), 1000 + c // 2)  # a fresh node per insert

    def src(c):
        return 7 * c % n

    digests, sizes, traced = (array("q", bytes(8 * commits)) for _ in range(3))
    tracemalloc.start()
    try:
        for c in range(commits):
            (db.insert if c % 2 == 0 else db.delete)("edges", [edge(c)])
            digests[c] = hash(reach.execute(src=src(c)).rows())
            sizes[c], traced[c] = it.size, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for series in (sizes, traced):
        assert series[4999] <= 1.2 * series[999]
        assert max(series[4500:5000]) <= 1.2 * max(series[500:1000])
    base = to_python(path_graph(n).value())
    cold_reads: dict = {}
    for c in range(commits):
        state = frozenset(base | {edge(c)}) if c % 2 == 0 else frozenset(base)
        key = (state, src(c))
        if key not in cold_reads:
            with connect(Database.of("cold", edges=state)) as cold:
                cold_reads[key] = hash(cold.execute(
                    Q.coll("edges").fix().where(lambda e: e.fst == src(c))).rows())
        assert digests[c] == cold_reads[key], f"read after commit {c + 1}"
