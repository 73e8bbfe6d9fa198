"""Graph workload generators for the transitive closure experiments.

The paper's flagship query is transitive closure; these generators produce the
edge relations the benchmarks sweep over, as
:class:`repro.relational.relation.Relation` instances:

* :func:`path_graph` -- the worst case for element-by-element evaluation
  (diameter ``n``), the best showcase of the squaring/dcr advantage;
* :func:`cycle_graph`, :func:`binary_tree`, :func:`grid_graph` -- structured
  graphs with different diameters;
* :func:`random_graph` -- Erdos-Renyi digraphs, seeded for reproducibility;
* :func:`layered_dag` -- the "pipeline" DAGs typical of provenance/dataflow
  workloads the paper's introduction gestures at.

All node identifiers are consecutive integers starting at 0, so the circuits
(which index the adjacency matrix by node number) can consume the same
workloads directly.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Iterable

from ..relational.relation import Relation


def _relation_from_edges(name: str, edges: Iterable[tuple[int, int]]) -> Relation:
    return Relation.from_pairs(name, edges)


def path_graph(n: int, name: str = "r") -> Relation:
    """The directed path ``0 -> 1 -> ... -> n-1``: diameter ``n - 1``."""
    return _relation_from_edges(name, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int, name: str = "r") -> Relation:
    """The directed cycle on ``n`` nodes."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _relation_from_edges(name, edges)


def binary_tree(depth: int, name: str = "r") -> Relation:
    """A complete binary out-tree of the given depth (edges parent -> child)."""
    edges = []
    nodes = 2 ** (depth + 1) - 1
    for i in range(nodes):
        for child in (2 * i + 1, 2 * i + 2):
            if child < nodes:
                edges.append((i, child))
    return _relation_from_edges(name, edges)


def grid_graph(rows: int, cols: int, name: str = "r") -> Relation:
    """A directed grid: edges go right and down; diameter ``rows + cols - 2``."""
    def node(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    return _relation_from_edges(name, edges)


def random_graph(n: int, p: float, seed: int = 0, name: str = "r") -> Relation:
    """An Erdos-Renyi ``G(n, p)`` digraph with a fixed seed.

    One draw from ``random.Random(seed)`` per ordered pair of distinct
    nodes, in ``permutations`` order, keeps the pair when it is below ``p``.
    A draw lies in ``[0, 1)``, so ``p <= 0`` keeps no edge and ``p >= 1``
    keeps them all.
    """
    rng = random.Random(seed)
    return _relation_from_edges(
        name, (e for e in permutations(range(n), 2) if rng.random() < p)
    )


def layered_dag(layers: int, width: int, seed: int = 0, name: str = "r") -> Relation:
    """A layered DAG: ``layers`` layers of ``width`` nodes, random forward edges.

    Every node has at least one edge into the next layer, so the diameter is
    ``layers - 1`` -- a natural "pipeline depth" workload.
    """
    rng = random.Random(seed)
    edges = []
    for layer in range(layers - 1):
        for i in range(width):
            src = layer * width + i
            targets = rng.sample(range(width), k=max(1, rng.randint(1, max(1, width // 2))))
            for t in targets:
                edges.append((src, (layer + 1) * width + t))
    return _relation_from_edges(name, edges)


def edge_count(relation: Relation) -> int:
    """Number of edges (tuples) in a binary relation workload."""
    return len(relation)


def node_count(relation: Relation) -> int:
    """Number of distinct nodes mentioned by a binary relation workload."""
    return len(relation.active_domain())
