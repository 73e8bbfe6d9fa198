"""One primitive advances a collection; what is cached for it follows.

``InternTable.advance`` must land on the very object a cold ``intern`` of the
new value returns (hash-consing is the oracle), and every piece of flat state
``BatchContext.carry`` moves with it -- the element-id column, path columns,
the flat loop's invariant-source index -- must equal its from-scratch build.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
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


def warm(engine, s):
    """Cache the id column, both path columns and an invariant index of ``s``."""
    ctx = engine._vec().ctx
    engine.interner.set_ids(s)
    for path in PATHS:
        ctx.flat_column(s, path)
    ctx.inv_index(s, INV_TAG)
    return ctx


def assert_carried_equals_built(engine, s):
    ctx = engine._vec().ctx
    cold = Engine(backend="vectorized")
    twin = cold.intern(s)
    value_of = engine.interner.value_of
    assert [value_of(d) for d in engine.interner._set_cols[id(s)]] == list(s.elements)
    for path in PATHS:
        carried = ctx._columns[(id(s), path)]
        built = cold._vec().ctx.flat_column(twin, path)
        assert [value_of(d) for d in carried] == [cold.interner.value_of(d) for d in built]
    carried = ctx._indexes[(id(s), INV_TAG)]
    assert sorted_buckets(carried) == sorted_buckets(build_inv_index(engine.interner, s, INV_TAG))


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
        assert ctx.inv_index(new, INV_TAG) is ctx._indexes[(id(new), INV_TAG)]
        assert ctx.stats.index_builds == builds, "the carried index was rebuilt"
        s = new


def test_an_empty_delta_returns_the_same_set_and_moves_nothing():
    engine = Engine(backend="vectorized")
    s = engine.intern(pairs({(1, 2), (2, 3)}))
    ctx = warm(engine, s)
    before = (dict(ctx._columns), dict(ctx._indexes))
    assert engine.advance(s, [from_python((1, 2))], [from_python((7, 7))]) is s
    assert (ctx._columns, ctx._indexes) == before


def test_state_a_delta_cannot_extend_is_left_to_the_cold_build():
    """A non-pair joins a set of pairs: no path column or index can follow."""
    engine = Engine(backend="vectorized")
    s = engine.intern(pairs({(1, 2), (2, 3)}))
    ctx = warm(engine, s)
    new = engine.advance(s, [from_python(5)], [])
    assert new is engine.intern(from_python(frozenset({(1, 2), (2, 3), 5})))
    assert [engine.interner.value_of(d) for d in engine.interner.set_ids(new)] == list(new.elements)
    assert not [k for k in list(ctx._columns) + list(ctx._indexes) if k[0] == id(new)]
    with pytest.raises(NRAEvalError):
        ctx.inv_index(new, INV_TAG)
    # ...and the old version keeps everything it had.
    assert_carried_equals_built(engine, s)


def test_clearing_caches_drops_carried_state_without_changing_answers():
    engine = Engine(backend="vectorized")
    s = engine.intern(pairs({(i, i + 1) for i in range(8)}))
    ctx = warm(engine, s)
    new = engine.advance(s, [from_python((8, 9))], [])
    assert (id(new), INV_TAG) in ctx._indexes
    engine.clear_plans()
    assert not ctx._columns and not ctx._indexes
    assert sorted_buckets(ctx.inv_index(new, INV_TAG)) == sorted_buckets(
        build_inv_index(engine.interner, new, INV_TAG))
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
    col = table.set_ids(s)
    new, dels, ins = table.splice(
        s, [table.intern(from_python(r)) for r in inserts],
        [table.intern(from_python(r)) for r in deletes])
    assert new is table.intern(pairs((set(rows) - set(deletes)) | set(inserts)))
    assert table.sort_key_of(new) == sort_key(new)
    assert patch_column(col, dels, ins) == table.set_ids(new)
    if new is not s:
        assert table.splice(new, [], [])[0] is new
