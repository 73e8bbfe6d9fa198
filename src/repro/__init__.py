"""repro -- a reproduction of "A Query Language for NC" (Suciu & Breazu-Tannen, 1994).

The package implements, end to end, the systems the paper describes:

* :mod:`repro.objects` -- complex object types, values, the lifted order and
  the Section 5 string encodings;
* :mod:`repro.recursion` -- divide-and-conquer and element-by-element
  recursion on sets (``dcr``, ``sru``, ``sri``, ``esr``), their bounded
  versions, the iterators of Section 7.1, and the constructive translations of
  Propositions 2.1, 2.2 and 7.3;
* :mod:`repro.nra` -- the nested relational algebra: AST, type checker,
  reference interpreter, work/depth parallel cost semantics, derived
  operators, external-function signatures and a concrete syntax;
* :mod:`repro.relational` -- flat relations, ordered databases, the imperative
  baseline algebra, and the paper's query library (parity and transitive
  closure in dcr / log-loop / sri styles);
* :mod:`repro.circuits` -- unbounded fan-in circuits, AC^k families, the
  Lemma 7.4-7.6 string circuits, the flat-query compiler of Proposition 7.7
  and DLOGSPACE-DCL uniformity checking;
* :mod:`repro.machines` -- the CRCW PRAM simulator and the space-accounted
  Turing machine;
* :mod:`repro.complexity` -- syntactic classification (AC^k from nesting
  depth), growth-curve fitting, and the separation/blow-up demonstrations;
* :mod:`repro.workloads` -- graph and nested-data generators used by the
  examples, tests and benchmarks;
* :mod:`repro.engine` -- the optimizing evaluation engine: algebraic rewrite
  rules (ext fusion, short-circuits, the Proposition 2.1 ``sri`` -> ``dcr``
  preference), hash-consed values and the vectorized set-at-a-time executor
  (plus a sharded parallel backend on a thread pool), cross-checked against
  the reference interpreter and the cost model;
* :mod:`repro.api` -- the query-service layer over the engine: named
  :class:`~repro.api.catalog.Database` collections with type-checked
  schemas, the fluent :class:`~repro.api.query.Q` builder, sessions with
  prepared statements, batched ``executemany`` and streaming cursors.

Quick start (the query-service API)::

    from repro.api import Database, Q
    from repro.workloads.graphs import path_graph

    session = Database.of("g", edges=path_graph(16)).connect()
    reach = session.prepare(
        Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    )
    print(reach.execute(src=0).fetchmany(5))

or, one level down, the paper's own surface -- hand-built NRA expressions::

    from repro.relational import transitive_closure_dcr, run_tc, Relation
    edges = Relation.from_pairs("r", [(0, 1), (1, 2), (2, 3)])
    print(sorted(run_tc(transitive_closure_dcr(), edges)))
"""

__version__ = "1.0.0"

from . import (
    api,
    circuits,
    complexity,
    engine,
    machines,
    nra,
    objects,
    recursion,
    relational,
    workloads,
)

__all__ = [
    "objects",
    "recursion",
    "nra",
    "relational",
    "circuits",
    "machines",
    "complexity",
    "workloads",
    "engine",
    "api",
    "__version__",
]
