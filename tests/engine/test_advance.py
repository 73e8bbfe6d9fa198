"""One primitive advances a collection; what is cached for it follows.

``Engine.advance`` must land on the very object a cold ``intern`` of the
new value returns (hash-consing is the oracle), and every piece of flat state
``BatchContext.carry`` moves into the new version's record -- the element-id
column, path columns, the flat loop's invariant-source index -- must equal
its from-scratch build.  The records themselves stay bounded and each holds
the set it is keyed by.
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, Q
from repro.engine import Engine
from repro.engine.vectorized import BatchContext
from repro.engine.interning import patch_column
from repro.engine.vectorized.flat import build_inv_index
from repro.nra.errors import NRAEvalError
from repro.objects.values import from_python, sort_key

pytestmark = pytest.mark.columnar

INV_TAG = ("inv", ("f",), None, ("s",))
PATHS = (("f",), ("s",))


def pairs(rows):
    return from_python(frozenset(rows))


def sorted_buckets(index):
    return {k: sorted(rows) for k, rows in index.items()}


def ids_of(table, s):
    """The element dense-id column of ``s``, built from scratch."""
    return array("q", map(table.dense_id, s.elements))


def warm(engine, s):
    """Cache the id column, both path columns and an invariant index of ``s``."""
    ctx = engine._vec().ctx
    ctx.flat_column(s, ())
    for path in PATHS:
        ctx.flat_column(s, path)
    ctx.inv_index(s, INV_TAG)
    return ctx


def held(ctx):
    """Every record's set, columns, indexes and node state, as plain copies."""
    return {sid: (rec.set, dict(rec.columns), dict(rec.indexes), set(rec.scanned),
                  rec.nodes, rec.field)
            for sid, rec in ctx._records.items()}


def assert_carried_equals_built(engine, s):
    ctx = engine._vec().ctx
    cold = Engine(backend="vectorized")
    twin = cold.intern(s)
    value_of = engine.interner.value_of
    rec = ctx._records[id(s)]
    assert rec.set is s
    assert [value_of(d) for d in rec.columns[()]] == list(s.elements)
    for path in ((),) + PATHS:
        carried = rec.columns[path]
        built = cold._vec().ctx.flat_column(twin, path)
        assert [value_of(d) for d in carried] == [cold.interner.value_of(d) for d in built]
    carried = rec.indexes[INV_TAG]
    assert sorted_buckets(carried) == sorted_buckets(
        build_inv_index(engine.interner, ids_of(engine.interner, s), INV_TAG))


@pytest.mark.parametrize("seed", range(6))
def test_advance_is_the_cold_intern_and_carries_flat_state(seed):
    rng = random.Random(seed)
    engine = Engine(backend="vectorized")
    rows = {(rng.randrange(12), rng.randrange(12)) for _ in range(30)}
    s = engine.intern(pairs(rows))
    ctx = warm(engine, s)
    for _ in range(25):
        ins = {(rng.randrange(14), rng.randrange(14)) for _ in range(rng.randrange(4))}
        dels = set(rng.sample(sorted(rows), min(len(rows), rng.randrange(4))))
        dels |= {(99, rng.randrange(3))}  # absent: dropped, like a net changeset would
        ins -= dels
        builds = ctx.stats.index_builds
        new = engine.advance(s, [from_python(r) for r in ins], [from_python(r) for r in dels])
        rows = (rows - dels) | ins
        assert new is engine.intern(pairs(rows))
        assert_carried_equals_built(engine, new)
        assert ctx.inv_index(new, INV_TAG) is ctx._records[id(new)].indexes[INV_TAG]
        assert ctx.stats.index_builds == builds, "the carried index was rebuilt"
        s = new


def test_an_empty_delta_returns_the_same_set_and_moves_nothing():
    engine = Engine(backend="vectorized")
    s = engine.intern(pairs({(1, 2), (2, 3)}))
    ctx = warm(engine, s)
    before = held(ctx)
    assert engine.advance(s, [from_python((1, 2))], [from_python((7, 7))]) is s
    assert held(ctx) == before


def test_state_a_delta_cannot_extend_is_left_to_the_cold_build():
    """A non-pair joins a set of pairs: no path column or index can follow."""
    engine = Engine(backend="vectorized")
    s = engine.intern(pairs({(1, 2), (2, 3)}))
    ctx = warm(engine, s)
    new = engine.advance(s, [from_python(5)], [])
    assert new is engine.intern(from_python(frozenset({(1, 2), (2, 3), 5})))
    rec = ctx._records[id(new)]
    assert [engine.interner.value_of(d) for d in rec.columns[()]] == list(new.elements)
    assert set(rec.columns) == {()} and not rec.indexes
    with pytest.raises(NRAEvalError):
        ctx.inv_index(new, INV_TAG)
    # ...and the old version keeps everything it had.
    assert_carried_equals_built(engine, s)


def test_clearing_caches_drops_carried_state_without_changing_answers():
    engine = Engine(backend="vectorized")
    s = engine.intern(pairs({(i, i + 1) for i in range(8)}))
    ctx = warm(engine, s)
    new = engine.advance(s, [from_python((8, 9))], [])
    assert INV_TAG in ctx._records[id(new)].indexes
    engine.clear_plans()
    assert not ctx._records
    assert sorted_buckets(ctx.inv_index(new, INV_TAG)) == sorted_buckets(
        build_inv_index(engine.interner, ids_of(engine.interner, new), INV_TAG))
    newer = engine.advance(new, [], [from_python((0, 1))])
    assert newer is engine.intern(pairs({(i, i + 1) for i in range(1, 9)}))


ROWS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12)


@pytest.mark.ivm
@settings(max_examples=200, deadline=None)
@given(rows=ROWS, inserts=ROWS, deletes=ROWS)
def test_splice_is_delete_then_insert_for_any_delta(rows, inserts, deletes):
    """Overlapping, repeated, absent and already-present rows included.

    ``splice`` is what renders a maintained view's output and (under
    ``advance``) moves a collection: the set it returns is the one a cold
    intern gives, and its row patch replays on the element-id column.
    """
    table = Engine(backend="vectorized").interner
    s = table.intern(pairs(rows))
    col = ids_of(table, s)
    new, dels, ins = table.splice(
        s, [table.intern(from_python(r)) for r in inserts],
        [table.intern(from_python(r)) for r in deletes])
    assert new is table.intern(pairs((set(rows) - set(deletes)) | set(inserts)))
    assert table.sort_key_of(new) == sort_key(new)
    assert patch_column(col, dels, ins) == ids_of(table, new)
    if new is not s:
        assert table.splice(new, [], [])[0] is new


REACH = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))


def test_never_repeating_commits_keep_at_most_the_bound_of_records():
    db = Database.of("g", edges={(i, i + 1) for i in range(8)})
    session = db.connect()
    reach = session.prepare(REACH)
    ctx = session.engine._vec().ctx
    for n in range(500):
        db.insert("edges", [(100 + n, 101 + n)])
        assert reach.execute(src=100 + n).rows() == {(100 + n, 101 + n)}
    # Every commit made a version with a record: the bound was reached, not passed.
    assert len(ctx._records) == BatchContext.MAX_CACHED_SETS
    assert all(id(rec.set) == sid for sid, rec in ctx._records.items())
    assert ctx._records[id(session.engine.intern(db["edges"]))].columns


def test_clear_plans_leaves_no_column_of_any_set():
    db = Database.of("g", edges={(i, i + 1) for i in range(8)})
    session = db.connect()
    reach = session.prepare(REACH)
    reach.execute(src=0).fetchall()
    db.insert("edges", [(8, 9)])
    assert len(reach.execute(src=0).fetchall()) == 9
    ctx = session.engine._vec().ctx
    assert any(() in rec.columns for rec in ctx._records.values())
    session.engine.clear_plans()
    assert not ctx._records
    assert len(reach.execute(src=0).fetchall()) == 9
