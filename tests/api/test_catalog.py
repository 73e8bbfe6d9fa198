"""Databases and catalogs: registration, typecheck-backed schemas, versioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Catalog, Changeset, Database, Q
from repro.objects.types import BASE, BOOL, ProdType, SetType
from repro.objects.values import SetVal, from_python, sort_key, to_python
from repro.relational.database import OrderedDatabase
from repro.relational.relation import Relation
from repro.workloads.graphs import path_graph
from repro.workloads.nested_graphs import ADJ_DB_T, nested_random_graph

EDGES_T = SetType(ProdType(BASE, BASE))


def test_register_relation_infers_relation_type():
    db = Database("g").register("edges", path_graph(4))
    assert db.schema() == {"edges": EDGES_T}
    assert db["edges"] == path_graph(4).value()


def test_register_python_data_infers_type():
    db = Database().register("s", {1, 2, 3}).register("flags", {(1, True), (2, False)})
    assert db.schema()["s"] == SetType(BASE)
    assert db.schema()["flags"] == SetType(ProdType(BASE, BOOL))


def test_register_validates_value_against_declared_type():
    from repro.nra.errors import NRATypeError

    with pytest.raises(NRATypeError):
        Database().register("s", {1, 2}, type=SetType(BOOL))


def test_explicit_type_needed_for_empty_inner_sets():
    adj = nested_random_graph(8, 0.2, seed=3)
    # Inference cannot see through the sinks' empty successor sets ...
    with pytest.raises(TypeError):
        Database().register("adj", adj)
    # ... a declared type both registers and is validated.
    db = Database().register("adj", adj, type=ADJ_DB_T)
    assert db.schema()["adj"] == ADJ_DB_T


def test_duplicate_and_param_namespace_rejected():
    db = Database().register("edges", path_graph(3))
    with pytest.raises(ValueError):
        db.register("edges", path_graph(4))
    with pytest.raises(ValueError):
        db.register("$oops", {1})


def test_drop_bumps_version_and_sessions_refresh():
    db = Database("g").register("edges", path_graph(4))
    session = db.connect()
    assert len(session.execute(Q.coll("edges"))) == 3
    db.drop("edges")
    db.register("edges", path_graph(7))
    # The session re-interns the new collection because the version changed.
    assert len(session.execute(Q.coll("edges"))) == 6


def test_from_relations_and_from_ordered():
    r1 = Relation.from_pairs("e1", [(0, 1)])
    r2 = Relation.unary("names", ["a", "b"])
    db = Database.from_relations(r1, r2)
    assert set(db) == {"e1", "names"}
    odb = OrderedDatabase.of(r1, r2)
    db2 = Database.from_ordered(odb)
    assert db2.schema() == db.schema()
    assert db2["e1"] == db["e1"]


def test_catalog_lifecycle():
    cat = Catalog()
    cat.register(Database.of("g", edges=path_graph(4)))
    assert "g" in cat and cat.names() == ["g"]
    with pytest.raises(ValueError):
        cat.register(Database("g"))
    session = cat.connect("g")
    assert session.db.name == "g"
    cat.drop("g")
    assert "g" not in cat


def test_database_of_kwargs():
    db = Database.of("w", edges=path_graph(3), bits={(0, True), (1, False)})
    assert set(db) == {"edges", "bits"}
    assert isinstance(db["bits"], SetVal)


ATOM = st.one_of(st.integers(min_value=0, max_value=5), st.sampled_from(["a", "b"]))
MIXED_ROWS = st.lists(st.tuples(ATOM, ATOM), max_size=5)


@pytest.mark.ivm
@pytest.mark.dred
@settings(max_examples=150, deadline=None)
@given(initial=MIXED_ROWS, commits=st.lists(st.tuples(MIXED_ROWS, MIXED_ROWS), max_size=8))
def test_commits_place_rows_by_bisection_like_a_set_model(initial, commits):
    """Net changeset and canonical contents against a plain python set."""
    db = Database("g").register(
        "edges", frozenset(initial), type=SetType(ProdType(BASE, BASE)))
    model = set(initial)
    for ins, dels in commits:
        # Deletes apply first; a row deleted and re-inserted nets to nothing.
        want_dels = {r for r in dels if r in model} - set(ins)
        want_ins = {r for r in ins if r not in model}
        got = db.apply(Changeset.of(edges=(ins, dels))).get("edges")
        assert {to_python(v) for v in (got.inserts if got else ())} == want_ins
        assert {to_python(v) for v in (got.deletes if got else ())} == want_dels
        assert got is None or (len(got.inserts) == len(want_ins)
                               and len(got.deletes) == len(want_dels))
        model = (model - want_dels) | want_ins
        assert db["edges"].elements == from_python(frozenset(model)).elements
        # The element keys a commit bisects were edited with the same cuts.
        live, keys = db._keys.get("edges", (db["edges"], None))
        assert live is db["edges"] and keys in (None, [sort_key(v) for v in live.elements])


def test_ill_typed_insert_is_refused_wherever_it_sorts():
    db = Database("g").register("edges", {(1, 2), (3, 4)})
    for row in (5, (1, (2, 3)), ((0, 0), 9), frozenset({1})):
        with pytest.raises(TypeError, match="element type"):
            db.insert("edges", [row])
    with pytest.raises(KeyError):
        db.insert("nodes", [(1, 2)])
    assert db["edges"] == from_python({(1, 2), (3, 4)})
    db.insert("edges", [(2, 3), (0, 9)])  # a refused commit left no stale keys
    assert db["edges"] == from_python({(0, 9), (1, 2), (2, 3), (3, 4)})
