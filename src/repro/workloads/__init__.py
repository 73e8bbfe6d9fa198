"""Workload generators: the inputs every experiment in this repo sweeps over.

Two families, matching the paper's two kinds of queries:

* :mod:`repro.workloads.graphs` -- binary relations (edge sets) for the
  *flat* experiments, chiefly transitive closure: paths (worst case for
  element-by-element evaluation, best showcase for ``dcr``), cycles, complete
  binary trees, grids, seeded Erdos-Renyi digraphs, and layered "pipeline"
  DAGs.  All of them are :class:`repro.relational.relation.Relation`
  instances with consecutive integer nodes, so the circuit compiler can index
  adjacency matrices by node number and consume the same inputs.

* :mod:`repro.workloads.nested_graphs` -- graphs stored the nested way, as
  adjacency databases of type ``{D x {D}}``, plus the unnest / two-hop /
  nested-reachability query builders the engine benchmarks sweep over.

* :mod:`repro.workloads.databases` -- the same data packaged as
  :class:`repro.api.catalog.Database` instances (named ``edges`` / ``adj`` /
  ``bits`` collections and a ready :func:`workload_catalog`), so sessions of
  the query-service API open directly onto every workload family.

* :mod:`repro.workloads.streams` -- update-stream generators over *mutable*
  databases (seeded random insert/delete batches at a configurable churn
  rate, flat edge-level and nested record-level), the workload the
  incremental view-maintenance subsystem is measured on.

* :mod:`repro.workloads.services` -- service-shaped workloads: relations
  mapped through ``NRA(Sigma)`` oracle externals with configurable simulated
  latency, the regime the parallel backend's worker pool overlaps (and the
  engine suite's parallel acceptance row measures).

* :mod:`repro.workloads.nested` -- complex-object data for the Theorem 6.1
  experiments: seeded-random types and values of bounded set height (the
  raw material of the property tests and of the engine's sampled algebraic
  checks), the human-readable departments database (nested sets of employees
  and skills, exercised by the ``bdcr`` aggregations and the engine's
  ext-fusion benchmarks), and boolean-tagged inputs for the parity queries.

Everything takes an explicit seed or :class:`random.Random`, so every test,
example and benchmark run is reproducible.  The generators use the standard
library alone.
"""

from .graphs import (
    binary_tree,
    cycle_graph,
    edge_count,
    grid_graph,
    layered_dag,
    node_count,
    path_graph,
    random_graph,
)
from .nested import (
    DEPARTMENT_T,
    DEPARTMENTS_T,
    department_database,
    random_bits,
    random_object,
    random_type,
    tagged_booleans,
)
from .nested_graphs import (
    ADJ_DB_T,
    ADJ_T,
    adjacency_database,
    edges_query,
    nested_random_graph,
    nested_reachability_query,
    two_hop_query,
)
from .databases import (
    GRAPH_KINDS,
    edges_database,
    graph_database,
    nested_graph_database,
    parity_database,
    workload_catalog,
)
from .services import (
    REQUESTS_T,
    enrichment_query,
    enrichment_sigma,
    enrichment_workload,
    request_ids,
)
from .streams import (
    GraphUpdateStream,
    NestedUpdateStream,
    UpdateStream,
    graph_update_stream,
    nested_update_stream,
    stream_graph_database,
    stream_nested_database,
)

__all__ = [
    "path_graph", "cycle_graph", "binary_tree", "grid_graph", "random_graph",
    "layered_dag", "edge_count", "node_count",
    "random_type", "random_object", "department_database", "DEPARTMENT_T",
    "DEPARTMENTS_T", "tagged_booleans", "random_bits",
    "ADJ_T", "ADJ_DB_T", "adjacency_database", "nested_random_graph",
    "edges_query", "two_hop_query", "nested_reachability_query",
    "GRAPH_KINDS", "graph_database", "edges_database",
    "nested_graph_database", "parity_database", "workload_catalog",
    "REQUESTS_T", "enrichment_sigma", "enrichment_query", "request_ids",
    "enrichment_workload",
    "UpdateStream", "GraphUpdateStream", "NestedUpdateStream",
    "graph_update_stream", "nested_update_stream",
    "stream_graph_database", "stream_nested_database",
]
