"""Stateful property: the shared snapshot under arbitrary interleavings.

Random sequences of insert / delete / multi-collection apply / register /
drop / prepare / execute / materialize / close, over one to three sessions
sharing one engine, with and without views.  After *every* step

1. each live snapshot holds, per collection, the very object a cold
   ``Engine.intern(db[name])`` returns -- advancing and re-interning are two
   ways to one hash-consed value;
2. every cached column and index -- carried across a commit or built on a
   miss -- equals its from-scratch build over the set it is keyed on, a
   relation's node counts included;
3. every result, and every open view, equals the reference interpreter
   ``repro.nra.eval.run`` on the live database.

Runs with the flat kernels on and off (``flat=False`` must simply ignore
carried flat state).
"""

from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Changeset, Database, Q
from repro.api.query import param_var
from repro.api.session import Session
from repro.engine import Engine
from repro.engine.vectorized.flat import build_inv_index, set_column
from repro.nra.ast import Var
from repro.nra.derived import field_of
from repro.nra.eval import run as reference_run
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import from_python

pytestmark = [pytest.mark.columnar, pytest.mark.ivm]

FLAT_T = SetType(ProdType(BASE, BASE))
NESTED_T = SetType(ProdType(BASE, SetType(BASE)))

EDGES, OTHER = Q.coll("edges"), Q.coll("other")
#: (query, takes ``src``); collection ``extra`` comes and goes, so nothing
#: standing reads it.
QUERIES = [
    (EDGES.fix().where(lambda e: e.fst == Q.param("src")), True),
    (EDGES.where(lambda e: e.snd == Q.param("src")), True),
    (EDGES.compose(OTHER), False),
    (OTHER.fix(), False),
    (EDGES.map(lambda e: e.snd) | OTHER.map(lambda e: e.fst), False),
]

ATOM = st.integers(min_value=0, max_value=5)
ROWS = st.lists(st.tuples(ATOM, ATOM), max_size=4)
NESTED_ROWS = st.lists(st.tuples(ATOM, st.frozensets(ATOM, max_size=2)), max_size=3)
WHO = st.integers(min_value=0, max_value=2)
WHICH = st.integers(min_value=0, max_value=len(QUERIES) - 1)
NAME = st.sampled_from(["edges", "other"])

STEP = st.one_of(
    st.tuples(st.just("insert"), NAME, ROWS),
    st.tuples(st.just("delete"), NAME, ROWS),
    st.tuples(st.just("apply"), ROWS, ROWS, ROWS, ROWS),
    st.tuples(st.just("register"), st.one_of(ROWS, NESTED_ROWS)),
    st.tuples(st.just("write-extra"), ROWS),
    st.tuples(st.just("drop")),
    st.tuples(st.just("prepare"), WHO, WHICH),
    st.tuples(st.just("execute"), WHO, WHICH, ATOM),
    st.tuples(st.just("materialize"), WHO, WHICH),
    st.tuples(st.just("close"), WHO),
)


def reference(db, query, src=None):
    el = query.elaborate(db.schema())
    env = db.environment()
    if src is not None:
        env[param_var("src")] = from_python(src)
    return reference_run(el.expr, env=env)


class World:
    """One database, one shared engine, up to three sessions on it."""

    def __init__(self, flat: bool, edges, other) -> None:
        self.db = Database("w").register("edges", frozenset(edges), type=FLAT_T)
        self.db.register("other", frozenset(other), type=FLAT_T)
        self.engine = Engine(backend="vectorized", flat=flat)
        self.sessions: dict[int, Session] = {}
        self.prepared: dict[tuple, object] = {}
        self.views: list = []  # (view, query)

    def session(self, who: int) -> Session:
        if who not in self.sessions:
            self.sessions[who] = Session(self.db, engine=self.engine)
        return self.sessions[who]

    def step(self, op) -> None:
        db, kind = self.db, op[0]
        if kind in ("insert", "delete"):
            getattr(db, kind)(op[1], op[2])
        elif kind == "apply":
            db.apply(Changeset.of(edges=(op[1], op[2]), other=(op[3], op[4])))
        elif kind == "register":
            if "extra" in db:
                db.drop("extra")  # re-registered below, maybe under another type
            nested = any(isinstance(b, frozenset) for _, b in op[1])
            db.register("extra", frozenset(op[1]), type=NESTED_T if nested else FLAT_T)
        elif kind == "write-extra":
            if "extra" in db and db.schema()["extra"] == FLAT_T:
                db.insert("extra", op[1])
        elif kind == "drop":
            if "extra" in db:
                db.drop("extra")
        elif kind == "prepare":
            self.prepared[op[1], op[2]] = self.session(op[1]).prepare(QUERIES[op[2]][0])
        elif kind == "execute":
            query, takes_src = QUERIES[op[2]]
            src = op[3] if takes_src else None
            runnable = self.prepared.get((op[1], op[2]), query)
            got = self.session(op[1]).execute(runnable, {"src": src} if takes_src else None).value
            assert got == reference(db, query, src), f"{op}: diverged from the reference"
            if "extra" in db:
                assert self.session(op[1]).execute(Q.coll("extra")).value == db["extra"]
        elif kind == "materialize":
            query, takes_src = QUERIES[op[2]]
            if not takes_src:
                self.views.append((self.session(op[1]).materialize(query), query))
        elif kind == "close":
            closed = self.sessions.pop(op[1], None)
            if closed is not None:
                closed.close()
                self.prepared = {k: v for k, v in self.prepared.items() if k[0] != op[1]}
                self.views = [(v, q) for v, q in self.views if not v.closed]

    def check(self) -> None:
        db, engine = self.db, self.engine
        for snapshot in list(db._snapshots.values()):
            assert snapshot.engine is engine
            assert set(snapshot.env) == set(db) == set(snapshot.versions)
            for name in db:
                assert snapshot.env[name] is engine.intern(db[name]), name
        assert bool(db._snapshots) == bool(self.sessions and any(
            s._snapshot is not None for s in self.sessions.values()) or self.views)
        for view, query in self.views:
            assert view.value == reference(db, query), f"view {view.name} is stale"
        self.check_flat_state()

    def check_flat_state(self) -> None:
        it = self.engine.interner
        ctx = self.engine._vec().ctx
        for sid, rec in ctx._records.items():
            s = rec.set
            assert id(s) == sid and it.is_interned(s)
            ids = array("q", map(it.dense_id, s.elements))
            for path, col in rec.columns.items():
                assert col == (set_column(it, ids, path) if path else ids), path
            if rec.field is not None:  # a relation's nodes, kept per collection value
                as_written = reference_run(field_of(Var("r"), BASE, BASE), env={"r": s})
                assert rec.field == as_written
            if rec.nodes is not None:  # its node counts, carried across a commit
                built = Counter(set_column(it, ids, ("f",)))
                built.update(set_column(it, ids, ("s",)))
                assert dict(rec.nodes) == dict(built)
            for tag, index in rec.indexes.items():
                if type(tag) is not tuple:
                    continue  # an object-kernel index
                if tag[0] == "inv":
                    built = build_inv_index(it, ids, tag)
                    assert {k: sorted(b) for k, b in index.items()} == {
                        k: sorted(b) for k, b in built.items()}, tag
                else:
                    built = {}
                    for row, k in enumerate(set_column(it, ids, tag[1])):
                        built.setdefault(k, []).append(row)
                    assert index == built, tag


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "objects"])
@settings(max_examples=150, deadline=None)
@given(edges=ROWS, other=ROWS, steps=st.lists(STEP, max_size=20))
def test_snapshot_follows_every_interleaving(flat, edges, other, steps):
    world = World(flat, edges, other)
    try:
        world.check()
        for op in steps:
            world.step(op)
            world.check()
    finally:
        world.engine.close()


def test_steady_churn_patches_and_never_rebuilds():
    """insert -> read -> delete -> read: every advance a delta, every index carried."""
    from repro.obs import METRICS

    def counter(family, kind):
        return METRICS.counter(f'{family}{{kind="{kind}"}}').value

    world = World(True, [(i, i + 1) for i in range(6)], [])
    session = world.session(0)
    statement = session.prepare(QUERIES[0][0])
    view = session.materialize(EDGES.fix())
    for warm in range(2):
        world.db.insert("edges", [(6, 7 + warm)])
        statement.execute({"src": 0}).value
        world.db.delete("edges", [(6, 7 + warm)])
        statement.execute({"src": 0}).value
    before = {(f, k): counter(f, k) for f, k in (
        ("repro_snapshot_advances_total", "delta"), ("repro_snapshot_advances_total", "rebuild"),
        ("repro_carried_indexes_total", "patched"), ("repro_carried_indexes_total", "built"))}
    builds = world.engine._vec().stats.index_builds
    for cycle in range(5):
        world.db.insert("edges", [(6, 10 + cycle)])
        assert len(statement.execute({"src": 5}).value.elements) == 2
        world.db.delete("edges", [(6, 10 + cycle)])
        assert len(statement.execute({"src": 5}).value.elements) == 1
        world.check()
    moved = {key: counter(*key) - was for key, was in before.items()}
    assert moved["repro_snapshot_advances_total", "delta"] == 10
    assert moved["repro_snapshot_advances_total", "rebuild"] == 0
    assert moved["repro_carried_indexes_total", "patched"] >= 5
    assert moved["repro_carried_indexes_total", "built"] == 0
    # Only positional key -> rows indexes (rows shift under an insert) are
    # built again, from the key column that was carried: one per new version.
    assert world.engine._vec().stats.index_builds - builds <= 5
    assert view.value == reference(world.db, EDGES.fix())
