"""Seeded state-invariant properties of view maintenance (PR-6 satellite).

The differential oracle (``test_backend_differential.py``) checks maintained
*values* against cold recomputes; this suite checks the maintenance *state*
itself, under the same seed-pinned streams:

* **support counts stay consistent** -- no counted node ever holds a
  non-positive count, every counted node's output set is exactly the support
  of its counts (for a linear fixpoint's dense-id state: seed union support,
  the support recounted over accumulator x base), and a join's two child-side hash indexes mirror the indexed
  sets element-for-element;
* **deletions restore the least fixpoint** -- after every batch of a
  deletion-only stream, a recursive view's value equals the least fixpoint
  over the surviving base (cold semi-naive recompute), reached through the
  delete/rederive path and never through the whole-view fallback;
* **a changeset followed by its inverse is a no-op** -- not just on the
  served value but on the entire internal state fingerprint: counts, join
  indexes, and fixpoint sets all return to identity;
* **outputs are rendered on read** -- a hypothesis property over random
  interleavings of commits and reads: whenever a view is read, however many
  commits (or none) went unread before it, the value is the object a cold
  run interns, the root's folded output agrees with the counts, indexes
  and dense-id mirror it is rendered from, and no node below the root
  keeps an output or a pending delta.

All values are interned (hash-consed) per engine, so state fingerprints can
compare elements by ``id`` -- the same identity discipline the maintenance
code itself uses.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from repro.api import Changeset, Database, MaterializedView, Q, connect
from repro.engine import Engine
from repro.engine.interning import CODE_BITS, CODE_MASK
from repro.objects.types import BASE, ProdType, SetType
from repro.workloads.streams import (
    deletion_update_stream,
    mixed_update_stream,
    stream_graph_database,
)

pytestmark = [pytest.mark.ivm, pytest.mark.dred]


def _panel():
    """One query per stateful delta rule (counts, indexes, fixpoint sets)."""
    return {
        "map": Q.coll("edges").map(lambda e: e.snd),
        "two-hop-join": Q.coll("edges").compose(Q.coll("edges")),
        "union-overlap": (Q.coll("edges").where(lambda e: e.fst == 1)
                          | Q.coll("edges").where(lambda e: e.snd == 2)),
        "tc-fixpoint": Q.coll("edges").fix(),
        "select-over-tc": Q.coll("edges").fix().where(lambda e: e.fst == 1),
    }


def _walk_states(op, st):
    yield op, st
    for child, child_st in zip(op.children, st.children):
        yield from _walk_states(child, child_st)


def _ids(elements):
    return set(map(id, elements))


def _codes(view, elements):
    """Packed ``(fst << 32) | snd`` dense-id codes of interned pairs."""
    parts, dense = view.engine.interner.pair_parts(), view.engine.interner.dense_id
    return {(parts[dense(v)][0] << CODE_BITS) | parts[dense(v)][1] for v in elements}


def _elements(view, op, st):
    """A value node's current output, read off what holds it: the root's
    folded set, a constant's own, a base's collection, a counted node's
    support, a coded node's codes decoded.  Below the root nothing keeps a
    rendered output."""
    if st is view._root or op.kind == "static":
        return st.out.elements
    if op.kind == "base":
        return view._env[op.source].elements
    if st.flat is not None:
        return view.engine.interner.pairs_of(list(_output_codes(view, op, st)))
    return tuple(st.counts)


def _output_codes(view, op, st):
    """A node's current output on pair codes: a coded node's own, any other's packed."""
    if op.kind == "fixpoint":
        return set(st.flat.present)
    if op.kind == "compose":
        return set(st.flat.counts)
    return _codes(view, _elements(view, op, st))


def _assert_linear_state_consistent(view, op, st, label):
    """The counted state a linear fixpoint is rendered from, recounted.

    The linear fixpoints here grow ``rr o edges`` -- a code ``a`` of the
    fixpoint and ``b`` of the edges derive ``(fst a, snd b)`` when
    ``snd a == fst b`` -- or, keyed on the accumulator's ``fst``, ``edges o
    rr``, so the counts are recounted here from scratch.
    """
    lin = st.flat
    seeds, base = (_output_codes(view, c, cst) for c, cst in zip(op.children, st.children))
    if st is view._root:
        assert _codes(view, st.out.elements) == lin.present, (
            f"{label}: rendered fixpoint diverged from the present codes"
        )
    assert seeds == lin.seeds, f"{label}: seed codes diverged from the child's output"
    assert {c for b in lin.base.values() for c in b} == base, (
        f"{label}: the base index diverged from the base child"
    )
    assert {c for b in lin.acc.values() for c in b} == lin.present, (
        f"{label}: the accumulator index diverged from the fixpoint"
    )
    assert all(lin.acc.values()) and all(lin.base.values()), (
        f"{label}: empty index buckets were not pruned"
    )
    backward = lin.backward  # edges o rr: the accumulator's key is its fst
    want: dict = {}
    for a in lin.present:
        for b in base:
            x, y = (b, a) if backward else (a, b)  # x o y, joined on snd x == fst y
            if x & CODE_MASK == y >> CODE_BITS:
                z = (x >> CODE_BITS << CODE_BITS) | (y & CODE_MASK)
                want[z] = want.get(z, 0) + 1
    assert lin.counts == want, f"{label}: support counts are not accumulator x base"
    assert lin.present == lin.seeds | set(lin.counts), (
        f"{label}: present codes diverged from seed + support"
    )


def _assert_compose_state_consistent(view, op, st, label):
    """The counted state a composition ``L o R`` is rendered from, recounted:
    ``acc`` holds exactly ``L``'s codes by ``snd``, ``base`` exactly ``R``'s
    by ``fst``, and ``counts`` every derivation over ``L x R``."""
    lin = st.flat
    left, right = (_output_codes(view, c, cst) for c, cst in zip(op.children, st.children))
    for index, side, key, name in ((lin.acc, left, CODE_MASK, "left"),
                                   (lin.base, right, None, "right")):
        assert {c for b in index.values() for c in b} == side, (
            f"{label}: the {name} index diverged from the {name} child"
        )
        assert all(index.values()), f"{label}: empty {name} index buckets were not pruned"
        assert all((c & CODE_MASK if key else c >> CODE_BITS) == k
                   for k, b in index.items() for c in b), (
            f"{label}: a {name} code is indexed under another key"
        )
    want: dict = {}
    for x in left:
        for y in right:
            if x & CODE_MASK == y >> CODE_BITS:
                z = (x >> CODE_BITS << CODE_BITS) | (y & CODE_MASK)
                want[z] = want.get(z, 0) + 1
    assert lin.counts == want, f"{label}: support counts are not left x right"
    if st is view._root:
        assert _codes(view, st.out.elements) == set(lin.counts), (
            f"{label}: rendered composition diverged from its support counts"
        )
    assert not lin.present and not lin.seeds, f"{label}: a composition keeps fixpoint sets"


def _assert_state_consistent(view, label):
    assert not view.recompute_only, f"{label}: panel view degraded unexpectedly"
    interner = view.engine.interner
    for op, st in _walk_states(view.plan_ops, view._root):
        if st is view._root or op.kind == "static":
            assert interner.is_interned(st.out) and not st.pending, (
                f"{label}: {op.kind} output was not folded to an interned set"
            )
        else:
            assert st.rendered is None and not st.pending, (
                f"{label}: a {op.kind} node below the root keeps an output"
            )
        if op.kind == "fixpoint":
            _assert_linear_state_consistent(view, op, st, label)
        if op.kind == "compose":
            _assert_compose_state_consistent(view, op, st, label)
        if st.counts is not None:
            bad = [c for c in st.counts.values() if c <= 0]
            assert not bad, f"{label}: {op.kind} node holds non-positive counts"
            if st is view._root:
                assert _ids(st.counts) == _ids(st.out.elements), (
                    f"{label}: {op.kind} output diverged from its support counts"
                )
        if op.kind == "join":
            (lop, left), (rop, right) = zip(op.children, st.children)
            in_lindex = {id(x) for bucket in st.lindex.values() for x in bucket}
            in_rindex = {id(y) for bucket in st.rindex.values() for y in bucket}
            assert in_lindex == _ids(_elements(view, lop, left)), (
                f"{label}: left join index diverged from the left child"
            )
            assert in_rindex == _ids(_elements(view, rop, right)), (
                f"{label}: right join index diverged from the right child"
            )
            assert all(st.lindex.values()) and all(st.rindex.values()), (
                f"{label}: empty index buckets were not pruned"
            )


def _index_fp(index):
    if index is None:
        return None
    return frozenset(
        (id(k), frozenset(map(id, bucket))) for k, bucket in index.items()
    )


def _fingerprint(view):
    """The complete maintenance state, as an id-based comparable value."""
    parts = []
    for op, st in _walk_states(view.plan_ops, view._root):
        lin = st.flat
        parts.append((
            op.kind,
            None if st.out is None else frozenset(map(id, st.out.elements)),
            None if st.counts is None
            else frozenset((id(v), c) for v, c in st.counts.items()),
            _index_fp(st.lindex),
            _index_fp(st.rindex),
            None if lin is None else (
                frozenset(lin.counts.items()), frozenset(lin.present), frozenset(lin.seeds),
                *(frozenset((k, frozenset(b)) for k, b in ix.items())
                  for ix in (lin.acc, lin.base)),
            ),
        ))
    return tuple(parts)


# ---------------------------------------------------------------------------
# 1. Count/index consistency under mixed churn
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(16))
def test_support_counts_and_indexes_stay_consistent_under_churn(seed):
    rng = random.Random(80_000 + seed)
    db = stream_graph_database(14, "random", seed=seed, p=0.18)
    session = connect(db)
    views = {name: session.materialize(q, name=name)
             for name, q in _panel().items()}
    stream = mixed_update_stream(
        db, churn=0.15, insert_ratio=rng.choice((0.3, 0.5, 0.7)),
        seed=seed + 1, domain=14,
    )
    for step, _ in enumerate(stream.run(5)):
        for name, view in views.items():
            _assert_state_consistent(view, f"seed {seed} step {step} view {name}")


# ---------------------------------------------------------------------------
# 2. Deletion streams restore the least fixpoint, through DRed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(16))
def test_deletion_stream_restores_the_least_fixpoint(seed):
    db = stream_graph_database(18, "random", seed=seed, p=0.15)
    session = connect(db)
    q = Q.coll("edges").fix()
    view = session.materialize(q, name="tc")
    for step, _ in enumerate(deletion_update_stream(db, churn=0.08, seed=seed + 5).run(5)):
        got, want = view.value, session.execute(q).value
        assert got == want, (
            f"seed {seed} step {step}: maintained closure is not the least "
            f"fixpoint ({len(got.elements)} vs {len(want.elements)} rows)"
        )
        _assert_state_consistent(view, f"seed {seed} step {step}")
    assert view.stats.fallback_recomputes == 0
    assert view.stats.dred_applies > 0
    assert view.stats.dred_rederives <= view.stats.dred_overdeletes


# ---------------------------------------------------------------------------
# 3. A changeset followed by its inverse is a no-op on the whole state
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_changeset_then_inverse_is_a_noop_on_state(seed):
    db = stream_graph_database(12, "random", seed=seed, p=0.2)
    session = connect(db)
    views = {name: session.materialize(q, name=name)
             for name, q in _panel().items()}
    before_values = {name: v.value for name, v in views.items()}
    before_state = {name: _fingerprint(v) for name, v in views.items()}
    stream = mixed_update_stream(db, churn=0.2, seed=seed + 9, domain=12)
    applied = db.apply(stream.next_changeset())
    d = applied.get("edges")
    assert d is not None and (d.inserts or d.deletes)
    db.apply(Changeset.of(edges=(list(d.deletes), list(d.inserts))))
    for name, view in views.items():
        assert view.value == before_values[name], (
            f"seed {seed}: view {name!r} value changed after inverse"
        )
        assert _fingerprint(view) == before_state[name], (
            f"seed {seed}: view {name!r} internal state changed after inverse"
        )
        _assert_state_consistent(view, f"seed {seed} view {name}")


# ---------------------------------------------------------------------------
# 4. Outputs rendered on read: commits and reads interleaved at random
# ---------------------------------------------------------------------------

FLAT_T = SetType(ProdType(BASE, BASE))
_ATOM = hst.integers(min_value=0, max_value=6)
_ROWS = hst.lists(hst.tuples(_ATOM, _ATOM), min_size=1, max_size=4)


_STEP = hst.one_of(
    hst.tuples(hst.just("insert"), _ROWS),
    hst.tuples(hst.just("delete"), _ROWS),
    hst.tuples(hst.just("mixed"), _ROWS, _ROWS),
    hst.tuples(hst.just("net-zero"), _ROWS),
    hst.tuples(hst.just("read"), hst.sampled_from(sorted(_panel()))),
    hst.tuples(hst.just("sweep")),
)


def _fold(mirror: set, sent: list) -> None:
    """Fold the deltas a listener was sent, as python rows, into ``mirror``."""
    from repro.objects.values import to_python

    for delta in sent:
        mirror.difference_update(to_python(v) for v in delta.deleted)
        mirror.update(to_python(v) for v in delta.inserted)
    sent.clear()


def _assert_read_is_cold(session, cold, views, name, label, mirrors=None, sent=None):
    view, query = views[name], _panel()[name]
    want = cold.execute(query).value
    if mirrors is not None:  # the deltas first, so no read decodes for them
        _fold(mirrors[name], sent[name])
        assert mirrors[name] == cold.execute(query).rows(), (
            f"{label}: view {name!r}'s folded deltas diverged from a cold run")
    got = view.value
    assert got == want, f"{label}: view {name!r} diverged from a cold run"
    assert got is session.engine.intern(want), f"{label}: view {name!r} is not the interned value"
    assert len(view) == len(want.elements), f"{label}: len(view) drifted from the value"
    _assert_state_consistent(view, f"{label} view {name}")


@settings(max_examples=120, deadline=None)
# Unread commits on atoms no other edge names, and their deltas read only
# after a sweep: only the deltas hold the codes' parts then.
@example(flat=True, initial=[(0, 1)], steps=[
    ("insert", [(1, 5), (5, 6)]), ("delete", [(1, 5), (5, 6)]), ("sweep",),
    ("read", "tc-fixpoint"), ("read", "select-over-tc")])
@given(flat=hst.booleans(), initial=hst.lists(hst.tuples(_ATOM, _ATOM), max_size=8),
       steps=hst.lists(_STEP, max_size=14))
def test_reads_at_random_points_equal_a_cold_run(flat, initial, steps):
    db = Database("g").register("edges", frozenset(initial), type=FLAT_T)
    engine = Engine(flat=flat)
    try:
        with connect(db, engine=engine) as session, connect(db) as cold:
            views = {name: session.materialize(q, name=name)
                     for name, q in _panel().items()}
            # Listeners read their deltas only at a read step, so a sweep
            # step between a commit and that read finds them undecoded.
            mirrors = {name: set(view.rows()) for name, view in views.items()}
            sent: dict = {name: [] for name in views}
            for view in views.values():
                view.add_listener(lambda v, delta, _fb: sent[v.name].append(delta))
            for i, step in enumerate(steps):
                kind = step[0]
                if kind == "sweep":
                    # Two in a row: nothing survives on its second chance.
                    engine.interner.sweep()
                    engine.interner.sweep()
                elif kind in ("insert", "delete"):
                    getattr(db, kind)("edges", step[1])
                elif kind == "mixed":
                    db.apply(Changeset.of(edges=(step[1], step[2])))
                elif kind == "net-zero":
                    # An insert undone by the delete of exactly what it added
                    # cancels in every pending delta: the identical object
                    # comes back and -- on the dense-id walk, which never
                    # reads its node's output -- nothing is rendered for it.
                    before = {name: (view.value, view.stats.materializations)
                              for name, view in views.items()}
                    added = db.insert("edges", step[1]).get("edges")
                    if added is not None:
                        db.delete("edges", added.inserts)
                    for name, view in views.items():
                        value, renders = before[name]
                        assert view.value is value, f"step {i}: view {name!r} moved"
                        assert view.stats.materializations == renders, (
                            f"step {i}: view {name!r} rendered a net-zero pair"
                        )
                else:
                    _assert_read_is_cold(session, cold, views, step[1], f"step {i}",
                                         mirrors, sent)
            for name in views:
                _assert_read_is_cold(session, cold, views, name, "end", mirrors, sent)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# 5. fix() views on cyclic graphs, against the reference interpreter
# ---------------------------------------------------------------------------

_NODE = hst.integers(min_value=0, max_value=5)
_EDGES = hst.lists(hst.tuples(_NODE, _NODE), max_size=5)
_BATCH = hst.one_of(
    hst.tuples(hst.sampled_from(["insert", "delete", "delete-reinsert"]), _EDGES),
    hst.tuples(hst.just("mixed"), _EDGES, _EDGES),
    hst.tuples(hst.sampled_from(["delete-derivable", "delete-all", "restore"])),
)


def _closure(edges: set) -> set:
    out = set(edges)
    while True:
        more = {(a, d) for a, b in out for c, d in edges if b == c} - out
        if not more:
            return out
        out |= more


def _commits(step, edges: set, initial: set) -> list:
    """The changesets one generated step commits, given the live edges."""
    kind = step[0]
    if kind == "insert":
        return [Changeset.of(edges=(step[1], []))]
    if kind == "delete":
        return [Changeset.of(edges=([], step[1]))]
    if kind == "delete-reinsert":
        gone = sorted(edges)[: len(step[1]) + 1]
        return [Changeset.of(edges=([], gone)), Changeset.of(edges=(gone, []))]
    if kind == "mixed":
        return [Changeset.of(edges=(step[1], step[2]))]
    if kind == "delete-derivable":
        # Edges the others also derive: the closure keeps them.
        gone = [e for e in sorted(edges) if e in _closure(edges - {e})]
        return [Changeset.of(edges=([], gone))] if gone else []
    if kind == "delete-all":
        return [Changeset.of(edges=([], sorted(edges)))]
    return [Changeset.of(edges=(sorted(initial), []))]  # restore


@settings(max_examples=60, deadline=None)
@given(initial=hst.lists(hst.tuples(_NODE, _NODE), min_size=1, max_size=10),
       key=_NODE, steps=hst.lists(hst.tuples(_BATCH, hst.booleans()), min_size=1, max_size=8))
def test_fix_views_on_cyclic_graphs_equal_the_reference_interpreter(initial, key, steps):
    # Random graphs with cycles and self-loops; batches that insert, delete,
    # delete and re-insert, delete edges the rest derive, and delete every
    # edge, each commit followed or not by a forced sweep.  After each commit
    # the views (a fix(), and its seeded loops from and to a key) equal the
    # reference interpreter's cold run, and the deltas a listener folds --
    # read first after the sweep -- equal the view.
    from repro.nra.eval import run as reference_run
    from repro.objects.values import to_python

    db = Database("g").register("edges", frozenset(initial), type=FLAT_T)
    queries = {"tc": Q.coll("edges").fix(),
               "from-key": Q.coll("edges").fix().where(lambda e: e.fst == key),
               "to-key": Q.coll("edges").fix().where(lambda e: e.snd == key)}
    with connect(db) as session:
        views = {name: session.materialize(q, name=name) for name, q in queries.items()}
        mirrors = {name: set(view.rows()) for name, view in views.items()}
        sent: dict = {name: [] for name in views}
        for view in views.values():
            view.add_listener(lambda v, delta, _fb: sent[v.name].append(delta))
        interner = session.engine.interner
        for i, (step, sweep) in enumerate(steps):
            edges = set(to_python(db["edges"]))
            for cs in _commits(step, edges, set(initial)):
                db.apply(cs)
                if sweep:
                    interner.sweep()
                    interner.sweep()
                env = db.environment()
                for name, query in queries.items():
                    _fold(mirrors[name], sent[name])
                    want = to_python(reference_run(query.elaborate(db.schema()).expr, env=env))
                    assert views[name].rows() == want, f"step {i} {step[0]}: {name} != cold"
                    assert mirrors[name] == want, f"step {i} {step[0]}: {name}'s folded deltas"
                    _assert_state_consistent(views[name], f"step {i} view {name}")
        for view in views.values():
            assert view.stats.fallback_recomputes == 0


# ---------------------------------------------------------------------------
# 6. Compose views on pair codes, against the reference interpreter
# ---------------------------------------------------------------------------

_COMPOSE_COMMIT = hst.one_of(
    hst.tuples(hst.sampled_from(["insert", "delete", "delete-reinsert"]),
               hst.sampled_from(["edges", "other"]), _EDGES),
    hst.tuples(hst.just("mixed"), _EDGES, _EDGES, _EDGES, _EDGES),
)


def _compose_queries(key: int, const: list) -> dict:
    """Every place a composition can stand in a view: over two mutable
    collections (either stream direction), over a constant, with itself,
    under a select, as a fixpoint's relation and over a fixpoint."""
    from repro.nra.ast import Var
    from repro.nra.derived import compose

    edges, other = Q.coll("edges"), Q.coll("other")
    return {
        "edges-o-other": edges.compose(other),
        "other-streamed": compose(Var("edges"), Var("other"), BASE, stream_right=True),
        "edges-o-const": edges.compose(Q.const(frozenset(const), type=FLAT_T)),
        "self": edges.compose(edges),
        "where": edges.compose(other).where(lambda e: e.fst == key),
        "compose-fix": edges.compose(edges).fix(),
        "fix-compose": edges.fix().compose(edges),
    }


def _compose_commits(step, db) -> list:
    """The changesets one generated step commits, given the live rows."""
    from repro.objects.values import to_python

    kind = step[0]
    if kind == "mixed":  # both collections in one commit
        return [Changeset.of(edges=(step[1], step[2]), other=(step[3], step[4]))]
    name, rows = step[1], step[2]
    if kind == "insert":
        return [Changeset.of(**{name: (rows, [])})]
    if kind == "delete":
        return [Changeset.of(**{name: ([], rows)})]
    gone = sorted(to_python(db[name]))[: len(rows) + 1]
    return [Changeset.of(**{name: ([], gone)}), Changeset.of(**{name: (gone, [])})]


@settings(max_examples=100, deadline=None)
@example(edges=[(0, 1)], other=[(1, 2)], const=[(1, 3)], key=0,
         steps=[(("mixed", [(2, 3)], [], [(3, 4)], [(1, 2)]), True),
                (("delete-reinsert", "edges", [(0, 1)]), True)])
@given(edges=hst.lists(hst.tuples(_NODE, _NODE), max_size=8),
       other=hst.lists(hst.tuples(_NODE, _NODE), max_size=8),
       const=hst.lists(hst.tuples(_NODE, _NODE), max_size=4), key=_NODE,
       steps=hst.lists(hst.tuples(_COMPOSE_COMMIT, hst.booleans()), min_size=1, max_size=8))
def test_compose_views_equal_the_reference_interpreter(edges, other, const, key, steps):
    # Every commit -- inserts, deletes, a delete and its re-insert, both
    # collections at once -- is followed or not by two forced sweeps, before
    # the listeners' deltas are first read.  After each commit every view
    # equals the reference interpreter, its deltas fold exactly (an inserted
    # row was absent, a deleted one present) and its counted state recounts.
    from repro.nra.eval import run as reference_run
    from repro.objects.values import to_python

    db = (Database("g").register("edges", frozenset(edges), type=FLAT_T)
          .register("other", frozenset(other), type=FLAT_T))
    queries = _compose_queries(key, const)
    exprs = {name: q.elaborate(db.schema()).expr if hasattr(q, "elaborate") else q
             for name, q in queries.items()}
    with connect(db) as session:
        views = {name: session.materialize(q, name=name) for name, q in queries.items()}
        for name, view in views.items():
            assert not view.recompute_only and "compose" in view.plan_ops.kinds(), name
        mirrors = {name: set(view.rows()) for name, view in views.items()}
        sent: dict = {name: [] for name in views}
        for view in views.values():
            view.add_listener(lambda v, delta, _fb: sent[v.name].append(delta))
        interner = session.engine.interner
        for i, (step, sweep) in enumerate(steps):
            for cs in _compose_commits(step, db):
                db.apply(cs)
                if sweep:
                    interner.sweep()
                    interner.sweep()
                env = db.environment()
                for name, expr in exprs.items():
                    label = f"step {i} {step[0]} view {name}"
                    for delta in sent[name]:
                        gone = {to_python(v) for v in delta.deleted}
                        new = {to_python(v) for v in delta.inserted}
                        assert gone <= mirrors[name] and not new & mirrors[name], (
                            f"{label}: a delta moved a row that did not move")
                        mirrors[name] = (mirrors[name] - gone) | new
                    sent[name].clear()
                    want = to_python(reference_run(expr, env=env))
                    assert mirrors[name] == want, f"{label}: folded deltas != the reference"
                    assert views[name].rows() == want, f"{label}: the view != the reference"
                    assert len(views[name]) == len(want), f"{label}: len(view) drifted"
                    _assert_state_consistent(views[name], label)
        for view in views.values():
            assert view.stats.fallback_recomputes == 0


def _fixpoint_of(view):
    return next(n for n in view.maintenance_plan().walk() if n.op == "ivm-fixpoint")


def test_a_fix_view_maintains_the_linear_base_indexed_fixpoint():
    # closure(edges) is maintained as loop(\rr. rr U rr o edges): the seed
    # and the relation the step joins are two children over the edges.
    db = stream_graph_database(8, "cycle", seed=0)
    view = connect(db).materialize(Q.coll("edges").fix())
    fix = _fixpoint_of(view)
    assert "linear-indexed" in fix.annotations
    assert [(c.op, c.detail) for c in fix.children[:2]] == [
        ("ivm-base", "edges"), ("ivm-base", "edges")]
    assert view.maintenance_plan().ops() <= {
        "ivm-fixpoint", "ivm-base", "ivm-dred-overdelete", "ivm-dred-rederive"}


def test_a_hand_written_squaring_loop_view_recomputes():
    # \rr. rr U rr o rr under a loop (not Example 7.1's closure): no budget
    # proof names it, so the view recomputes, through cycles and deletes.
    from repro.nra import ast
    from repro.nra.derived import compose, field_of

    step = ast.Lambda("rr", FLAT_T, ast.Union(ast.Var("rr"), compose(
        ast.Var("rr"), ast.Var("rr"), BASE)))
    expr = ast.Apply(ast.Loop(step, BASE), ast.Pair(
        field_of(ast.Var("edges"), BASE, BASE), ast.Var("edges")))
    db = stream_graph_database(10, "cycle", seed=0)
    with connect(db) as session, connect(db) as cold:
        view = session.materialize(expr)
        assert view.maintenance_plan().ops() == {"ivm-recompute"}
        for cs in (Changeset.of(edges=([], [(3, 4)])),
                   Changeset.of(edges=([(3, 4), (5, 5)], [(7, 8)])),
                   Changeset.of(edges=([(7, 8)], [(5, 5), (0, 1)]))):
            db.apply(cs)
            assert view.value == cold.execute(expr).value
        assert view.stats.dred_applies == 0
        assert view.stats.flat_index_applies == 0
        assert view.stats.fallback_recomputes == 3


# ---------------------------------------------------------------------------
# 7. Hand-written loops: constant steps, shrinking budgets
# ---------------------------------------------------------------------------

_MARKS_T = SetType(BASE)
_LOOP_STEPS = ("rr-o-C", "C-o-rr", "rr-o-rr", "rr-o-edges", "squaring-and-C")
_BUDGETS = ("field-of-edges", "marks", "constant")
#: A constant relation: a chain (what a shrunken budget stops short on) plus
#: a few random pairs.
_CONST = hst.tuples(_NODE, hst.integers(min_value=0, max_value=5),
                    hst.lists(hst.tuples(_NODE, _NODE), max_size=3)).map(
    lambda t: [(t[0] + i, t[0] + i + 1) for i in range(t[1])] + t[2])
_LOOP_COMMIT = hst.one_of(
    hst.tuples(hst.sampled_from(["edges", "marks"]), _EDGES, _EDGES),
    hst.tuples(hst.just("shrink")),
)


def _hand_written_loop(log: bool, step_kind: str, budget_kind: str, const) -> "ast.Expr":
    """``loop``/``log_loop(\\rr. rr U F(rr))(budget, edges)`` for a step that
    reads a constant ``C``, its accumulator alone, or the edges, over a
    budget that follows the edges, a second collection, or nothing."""
    from repro.nra import ast
    from repro.nra.derived import compose, field_of
    from repro.objects.values import from_python

    rr, edges = ast.Var("rr"), ast.Var("edges")
    c = ast.Const(from_python(frozenset(const)), FLAT_T)
    grown = {
        "rr-o-C": lambda: compose(rr, c, BASE),
        "C-o-rr": lambda: compose(c, rr, BASE, stream_right=True),
        "rr-o-rr": lambda: compose(rr, rr, BASE),
        "rr-o-edges": lambda: compose(rr, edges, BASE),
        "squaring-and-C": lambda: ast.Union(compose(rr, rr, BASE), c),
    }[step_kind]()
    budget = {
        "field-of-edges": lambda: field_of(edges, BASE, BASE),
        "marks": lambda: ast.Var("marks"),
        "constant": lambda: ast.Const(from_python(frozenset({0, 1})), _MARKS_T),
    }[budget_kind]()
    step = ast.Lambda("rr", FLAT_T, ast.Union(rr, grown))
    return ast.Apply((ast.LogLoop if log else ast.Loop)(step, BASE), ast.Pair(budget, edges))


@settings(max_examples=80, deadline=None)
@example(log=False, step_kind="rr-o-C", budget_kind="field-of-edges",
         const=[(1, 2), (2, 3), (3, 4), (4, 5)], initial=[(0, 1), (5, 5), (3, 0)],
         marks=[], commits=[("shrink",)])
@example(log=False, step_kind="rr-o-rr", budget_kind="field-of-edges", const=[(0, 1)],
         initial=[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)], marks=[],
         commits=[("edges", [(5, 0)], [(2, 3)]), ("shrink",), ("edges", [(1, 4)], [])])
@given(log=hst.booleans(), step_kind=hst.sampled_from(_LOOP_STEPS),
       budget_kind=hst.sampled_from(_BUDGETS), const=_CONST,
       initial=hst.lists(hst.tuples(_NODE, _NODE), min_size=1, max_size=8),
       marks=hst.lists(_NODE, max_size=6),
       commits=hst.lists(_LOOP_COMMIT, min_size=1, max_size=6))
def test_hand_written_loop_views_equal_the_reference_interpreter(
        log, step_kind, budget_kind, const, initial, marks, commits):
    # A view keeps delta maintenance only where the loop's budget provably
    # reaches the least fixpoint; every other loop -- a step reading a
    # constant, a budget over marks that shrink -- must recompute.  After
    # the build and every commit the view equals the reference interpreter.
    from repro.nra.eval import run as reference_run
    from repro.objects.values import to_python

    expr = _hand_written_loop(log, step_kind, budget_kind, const)
    db = (Database("g").register("edges", frozenset(initial), type=FLAT_T)
          .register("marks", frozenset(marks), type=_MARKS_T))
    with connect(db) as session:
        view = session.materialize(expr)
        # Delta mode: seeded_closure's own loop, or Example 7.1's closure
        # (the squaring's ``log_loop``), which is maintained as one.
        delta_mode = budget_kind == "field-of-edges" and (
            (step_kind == "rr-o-edges" and not log) or (step_kind == "rr-o-rr" and log))
        assert view.recompute_only is not delta_mode
        for i, commit in enumerate([None, *commits]):
            if commit == ("shrink",):
                # Every edge but one and every mark but one go: the budgets
                # that read them shrink to their smallest.
                db.apply(Changeset.of(edges=([], sorted(to_python(db["edges"]))[1:]),
                                      marks=([], sorted(to_python(db["marks"]))[1:])))
            elif commit is not None:
                name, ins, dels = commit
                if name == "marks":
                    ins, dels = [a for a, _ in ins], [a for a, _ in dels]
                db.apply(Changeset.of(**{name: (ins, dels)}))
            want = to_python(reference_run(expr, env=db.environment()))
            assert view.rows() == want, f"commit {i} {commit}: the view != the reference"
            assert len(view) == len(want)
