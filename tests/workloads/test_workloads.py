"""Tests for the graph and nested-data workload generators."""

import hashlib
import random
from itertools import product

import pytest

from repro.objects.values import SetVal, check_type
from repro.relational.algebra import transitive_closure_squaring
from repro.workloads.graphs import (
    binary_tree,
    cycle_graph,
    edge_count,
    grid_graph,
    layered_dag,
    node_count,
    path_graph,
    random_graph,
)
from repro.workloads.nested import (
    DEPARTMENTS_T,
    department_database,
    random_bits,
    random_object,
    random_type,
    tagged_booleans,
)


class TestGraphs:
    def test_path_graph_shape(self):
        g = path_graph(10)
        assert edge_count(g) == 9
        assert node_count(g) == 10

    def test_cycle_graph_closure_is_complete(self):
        g = cycle_graph(5)
        closure, _ = transitive_closure_squaring(frozenset(g.tuples))
        assert len(closure) == 25

    def test_binary_tree_edges(self):
        g = binary_tree(3)
        assert edge_count(g) == 2 ** 4 - 2

    def test_grid_graph(self):
        g = grid_graph(3, 4)
        assert node_count(g) == 12
        assert edge_count(g) == 3 * 3 + 2 * 4

    def test_random_graph_is_reproducible(self):
        a = random_graph(10, 0.3, seed=1)
        b = random_graph(10, 0.3, seed=1)
        assert a.tuples == b.tuples

    def test_layered_dag_respects_layers(self):
        g = layered_dag(4, 3, seed=0)
        for src, dst in g.tuples:
            assert dst // 3 == src // 3 + 1


#: ``(n, p, seed, digest)`` for every ``random_graph`` call in the repo (the
#: nested generators included), recorded at 874745a.
GNP_DIGESTS = [
    (32, 0.05, 4, 'f6fa3edab1ecd6c8'),
    (32, 0.08, 4, '8520b5e87e243bf0'),
    (10, 0.15, 1, 'de3b37dada73e066'),
    (9, 0.3, 5, '5ee52c1e9a3aa5ee'),
    (24, 0.2, 1, 'd1f3aadcf826c185'),
    (24, 0.2, 2, '6bbf0776736d5882'),
    (24, 0.3, 5, 'd7e1c1279cf2a7fb'),
    (24, 0.3, 6, '8194629edf36c5ba'),
    (30, 0.1, 3, 'ff85db31085946c6'),
    (15, 0.15, 2, '844dee95872ee4dc'),
    (48, 0.06, 3, '1736d2ba37aac5a6'),
    (24, 0.08, 4, 'fd7fdfbe6477bea1'),
    (8, 0.25, 8, 'b4b120703999916e'),
    (16, 0.125, 16, 'b5ef3fbce11d1975'),
    (24, 2.0 / 24, 24, '6ec0a7204b50ad65'),
    (6, 0.35, 2, 'cf9f476b03a93915'),
    (12, 0.3, 7, 'd753e4c620dcd20d'),
    (24, 0.15, 5, 'a7c24f8b924abaeb'),
    (10, 0.3, 3, 'ad50973f0a682e40'),
    (24, 0.08, 2, 'bdf39b4265d8a039'),
    (12, 0.4, 3, '6d9e50b71d1ef1c5'),
    (6, 0.0, 4, '4f53cda18c2baa0c'),
    (10, 0.3, 1, '5ed1d0d24e33565a'),
    (10, 0.25, 3, '8ab4b847c415dcb0'),
    (12, 0.2, 4, 'f15e45a30dee2df5'),
    (8, 0.3, 5, '4e34beb1c6272b79'),
    (10, 0.25, 9, 'f41fc5e22bb51289'),
    (9, 0.25, 2, '8fead21500d00882'),
    (8, 0.2, 3, 'b7f5f5af0a161ffb'),
    (7, 0.3, 11, '5ac08615dcc401c0'),
    (7, 0.6, 12, '75d3cf2f913a9a02'),
    (10, 0.25, 1, '6399f34aa6760e61'),
    (10, 0.25, 2, '0202deb1ffcb7043'),
    (14, 0.2, 4, 'dbcf8de5034b37ce'),
    (14, 0.2, 5, '04a8cedc4c6b6939'),
    (14, 0.2, 6, '44526b23aa766bd5'),
    (11, 0.3, 21, 'bb3d0f512af7721d'),
    (11, 0.3, 22, 'e8a3edb42725a396'),
    (7, 0.3, 5, '0c91cbdb5a742283'),
    (9, 0.25, 3, 'e1162d46193a3647'),
    (14, 0.25, 7, '9b687495f98d39e0'),
    (24, 0.1, 7, 'b044137484339e96'),
    (40, 0.06, 7, '73404782aa4b5cd7'),
    (200, 0.015, 7, 'eff352995b304edb'),
    (200, 0.01, 11, '37359d1693a161a2'),
    (5, 1.0, 0, 'c20650b6eeb0f391'),
]


def edge_digest(relation) -> str:
    return hashlib.sha256(repr(sorted(relation)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("n,p,seed,digest", GNP_DIGESTS)
def test_random_graph_keeps_its_recorded_edges(n, p, seed, digest):
    assert edge_digest(random_graph(n, p, seed=seed)) == digest


def test_random_graph_matches_networkx_gnp():
    nx = pytest.importorskip("networkx")
    for n, p, seed in product((0, 1, 2, 7, 16, 33), (0.0, 0.05, 0.3, 0.7, 1.0), range(5)):
        want = nx.gnp_random_graph(n, p, seed=seed, directed=True).edges()
        assert sorted(random_graph(n, p, seed=seed)) == sorted(want), (n, p, seed)


class TestNested:
    def test_random_object_inhabits_its_type(self):
        rng = random.Random(5)
        for _ in range(25):
            t = random_type(rng, max_height=2)
            v = random_object(t, rng)
            assert check_type(v, t)

    def test_department_database_type(self):
        db = department_database(4, 3, seed=1)
        assert isinstance(db, SetVal)
        assert check_type(db, DEPARTMENTS_T)
        assert len(db) == 4

    def test_department_database_reproducible(self):
        assert department_database(3, 2, seed=7) == department_database(3, 2, seed=7)

    def test_tagged_booleans_length(self):
        assert len(tagged_booleans([True, False, True])) == 3

    def test_random_bits_reproducible(self):
        assert random_bits(16, seed=3) == random_bits(16, seed=3)
        assert len(random_bits(16, seed=3)) == 16


class TestNestedGraphs:
    def test_adjacency_database_type_and_size(self):
        from repro.workloads.graphs import path_graph
        from repro.workloads.nested_graphs import ADJ_DB_T, adjacency_database

        db = adjacency_database(path_graph(6))
        assert check_type(db, ADJ_DB_T)
        assert len(db) == 6  # one record per node, sinks included

    def test_unnest_recovers_the_edge_set(self):
        from repro.nra.eval import run
        from repro.objects.values import to_python
        from repro.workloads.graphs import random_graph
        from repro.workloads.nested_graphs import adjacency_database, edges_query

        g = random_graph(9, 0.3, seed=5)
        db = adjacency_database(g)
        recovered = to_python(run(edges_query(), db))
        assert recovered == frozenset(g.tuples)

    def test_two_hop_matches_python_composition(self):
        from repro.nra.eval import run
        from repro.objects.values import to_python
        from repro.relational.algebra import natural_join_binary
        from repro.workloads.graphs import random_graph
        from repro.workloads.nested_graphs import adjacency_database, two_hop_query

        g = random_graph(10, 0.25, seed=3)
        db = adjacency_database(g)
        got = to_python(run(two_hop_query(), db))
        assert got == natural_join_binary(frozenset(g.tuples), frozenset(g.tuples))

    def test_nested_reachability_matches_flat_closure(self):
        from repro.nra.eval import run
        from repro.objects.values import to_python
        from repro.workloads.graphs import path_graph
        from repro.workloads.nested_graphs import adjacency_database, nested_reachability_query

        g = path_graph(7)
        db = adjacency_database(g)
        closure, _ = transitive_closure_squaring(frozenset(g.tuples))
        assert to_python(run(nested_reachability_query("logloop"), db)) == closure

    def test_nested_random_graph_reproducible(self):
        from repro.workloads.nested_graphs import nested_random_graph

        assert nested_random_graph(12, 0.2, seed=4) == nested_random_graph(12, 0.2, seed=4)
