"""The per-(engine, database) snapshot: who shares it, what moves it, when it dies."""

import gc
import weakref

import pytest

from repro.api import Changeset, Database, Q
from repro.api.session import Session
from repro.engine import Engine
from repro.objects.types import BaseType, ProdType, SetType
from repro.workloads.graphs import path_graph

REACH = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))


@pytest.fixture()
def db():
    return Database.of("g", edges=path_graph(32), adj={(0, 1), (1, 0)})


def carried(engine, value):
    """Every cached column and index of ``value``, as comparable bytes."""
    ctx = engine._vec().ctx
    return repr(sorted(
        (repr(key[1]), repr(entry))
        for cache in (ctx._columns, ctx._indexes)
        for key, entry in cache.items() if key[0] == id(value)
    )).encode() + bytes(engine.interner._set_cols.get(id(value), b""))


def probes(engine):
    """Intern-table lookups so far: a whole-collection intern costs O(rows) of them."""
    return engine.interner.hits + engine.interner.misses


def test_sessions_and_views_of_one_engine_share_one_snapshot(db):
    engine = Engine(backend="vectorized")
    a, b = Session(db, engine=engine), Session(db, engine=engine)
    other = Session(db)
    assert a.execute(REACH, {"src": 5}).rows() == b.execute(REACH, {"src": 5}).rows()
    other.execute(REACH, {"src": 5})
    assert a._snapshot is b._snapshot is db.snapshot(engine)
    assert other._snapshot is not a._snapshot

    before = probes(engine)
    db.insert("edges", [(31, 32)])
    assert a._environment() is b._environment()
    # 31, 32, the pair, the advanced set: the 31 rows already there are not
    # looked at again, by either session.
    assert probes(engine) - before <= 4
    assert a._environment()["edges"] is engine.intern(db["edges"])

    view = a.materialize(Q.coll("edges").fix())
    assert view._snapshot is a._snapshot
    db.insert("edges", [(32, 33)])
    assert view._env["edges"] is b._environment()["edges"] is engine.intern(db["edges"])
    assert b.execute(REACH, {"src": 30}).rows() == {(30, 31), (30, 32), (30, 33)}
    assert (0, 33) in view.rows()


def test_a_change_to_one_collection_moves_no_other(db):
    session = db.connect()
    session.execute(REACH, {"src": 0})
    snapshot = session._snapshot
    adj, edges = snapshot.env["adj"], snapshot.env["edges"]
    interner = session.engine.interner

    misses = interner.misses
    db.register("again", path_graph(32))    # a value the table already holds
    db.drop("again")
    db.insert("edges", [(0, 1)])            # present already: an empty commit
    assert interner.misses == misses
    assert snapshot.env["adj"] is adj and snapshot.env["edges"] is edges
    assert "again" not in snapshot.env and "again" not in snapshot.versions

    version = dict(snapshot.versions)
    before = probes(session.engine)
    db.insert("edges", [(7, 9)])
    db.delete("edges", [(7, 9)])            # back to a set the table holds
    assert probes(session.engine) - before <= 8, "a commit looked at rows it did not write"
    assert snapshot.env["adj"] is adj and snapshot.env["edges"] is edges
    assert snapshot.versions["adj"] == version["adj"]
    assert snapshot.versions["edges"] > version["edges"]
    assert session.execute(REACH, {"src": 29}).rows() == {(29, 30), (29, 31)}


def test_a_reregistered_name_is_a_new_collection(db):
    session = db.connect()
    session.execute(REACH, {"src": 0})
    engine, snapshot = session.engine, session._snapshot
    old = snapshot.env["edges"]
    state = carried(engine, old)
    db.drop("edges")
    assert "edges" not in snapshot.env
    nested = SetType(ProdType(BaseType(), SetType(BaseType())))
    db.register("edges", {(0, frozenset({1, 2}))}, type=nested)
    new = snapshot.env["edges"]
    assert new is engine.intern(db["edges"]) and new is not old
    assert not carried(engine, new).strip(b"[]"), "old state patched onto the new collection"
    assert carried(engine, old) == state
    db.insert("edges", [(3, frozenset({4}))])
    assert snapshot.env["edges"] is engine.intern(db["edges"])


def test_clearing_caches_changes_no_answer(db):
    session = db.connect()
    statement = session.prepare(REACH)
    for clear in (session.engine.clear_plans, session.engine._vec().ctx.clear_indexes):
        db.insert("edges", [(2, 6)])
        want = statement.execute({"src": 1}).rows()
        clear()
        assert statement.execute({"src": 1}).rows() == want
        db.delete("edges", [(2, 6)])
        assert statement.execute({"src": 1}).rows() == {(1, j) for j in range(2, 32)}


@pytest.mark.parametrize("commit, error", [
    (lambda db: db.insert("edges", [(1, (2, 3))]), TypeError),
    (lambda db: db.insert("edges", [(40, 41), ((1, 2), 3)]), TypeError),
    (lambda db: db.apply(Changeset.of(edges=([(40, 41)], []), nowhere=([(1, 2)], []))), KeyError),
])
def test_a_failed_commit_leaves_the_snapshot_alone(db, commit, error):
    session = db.connect()
    session.execute(REACH, {"src": 3})
    view = session.materialize(Q.coll("edges").fix())
    engine, snapshot = session.engine, session._snapshot
    env, versions, edges = snapshot.env, snapshot.versions, snapshot.env["edges"]
    state, size, version = carried(engine, edges), engine.interner.size, db.version
    with pytest.raises(error):
        commit(db)
    assert snapshot.env is env and snapshot.versions is versions
    assert carried(engine, edges) == state
    assert engine.interner.size == size and db.version == version
    assert view.value is engine.intern(db.connect().execute(Q.coll("edges").fix()).value)


def test_a_frozen_database_has_a_snapshot_that_never_moves():
    db = Database("frozen", mutable=False).register("edges", path_graph(4))
    session = db.connect()
    session.execute(REACH, {"src": 0})
    env = session._snapshot.env
    with pytest.raises(RuntimeError):
        db.insert("edges", [(3, 4)])
    assert session._snapshot.env is env


def test_a_snapshot_is_not_a_view_and_dies_with_its_last_holder(db):
    engine = Engine(backend="vectorized")
    a, b = Session(db, engine=engine), Session(db, engine=engine)
    a.execute(REACH, {"src": 0})
    view = b.materialize(Q.coll("edges").fix())
    assert db.views() == [view]
    ref = weakref.ref(a._snapshot)
    a.close()
    gc.collect()
    assert ref() is not None and len(db._snapshots) == 1, "the view still reads it"
    b.close()  # closes the view with it
    gc.collect()
    assert ref() is None and not db._snapshots and not db.views()
    size = engine.interner.size
    db.insert("edges", [(40, 41)])  # nobody reads: no standing work
    assert engine.interner.size == size


def test_dropping_the_engine_unregisters_its_snapshot(db):
    session = db.connect()
    session.execute(REACH, {"src": 0})
    ref = weakref.ref(session.engine)
    del session
    gc.collect()
    assert ref() is None and not db._snapshots
    db.insert("edges", [(40, 41)])
