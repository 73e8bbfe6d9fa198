"""The cross-backend differential harness (PR-4 satellite).

With three backends (``reference``, ``vectorized``, ``parallel``) the repo
needs one suite whose only job is to keep them semantically
interchangeable.  This harness is generator-driven and **seed-pinned** (plain
``random.Random`` seeds, no hypothesis shrinking): every case is a
well-typed NRA term plus a small database, and the assertion is always the
same -- all three backends produce the *same outcome*, where an outcome is
either the result value or the raised error's class and message (raising
externals and ill-typed evaluations must fail everywhere, on the same
element, not succeed on the backend that happened to reorder the work).

Case families:

* closed expressions from the PR-1 property generator (sets, pairs,
  conditionals, ``ext`` shapes, well-behaved ``dcr``/``esr`` recursions);
* random *monotone* loop expressions from the PR-2 generator -- the shapes
  the vectorized backend runs semi-naively and the parallel backend hands
  whole to its vectorized driver (including bilinear squaring steps);
* the paper's graph queries (three transitive-closure styles, unnest,
  two-hop) over seeded random inputs -- applied-argument evaluation;
* query-service style templates: selections and cross-relation equi-joins
  over free collection variables bound through the environment -- the
  env-shard strategy (a join shards its outer relation);
* the oracle-enrichment workload (latency 0);
* error cases: raising externals (empty and non-empty inputs), projections
  of non-pairs, non-boolean conditions, unbound variables, applying a
  non-function;
* the **maintenance oracle** (PR-5, extended by PR-6): seed-pinned random
  update sequences against mutable databases with a panel of registered
  views covering every delta rule (selection, map, bilinear join, counted
  union, unnest, recursive fixpoint) plus a deliberate fallback shape --
  after *every* changeset, each maintained view must equal a cold recompute
  of its query value-for-value, and maintenance-time errors must match
  recompute's error class.  PR-6 adds deletion-heavy and mixed-churn
  streams, and the stats counters *prove* the recursive views were served
  by the delete/rederive (DRed) path -- ``dred_applies > 0`` with
  ``fallback_recomputes == 0`` -- not by a silent whole-view recompute that
  would trivially satisfy the value check.

Roughly 350 cases in all; the whole suite carries the ``differential``
marker (CI runs it on the main job, ``make test-fast`` skips it).
"""

import random

import pytest

from test_engine_properties import _random_expr
from test_vectorized_properties import _loop_expr, _random_monotone_step, _random_relation

from repro.engine import Engine
from repro.nra import ast
from repro.nra.ast import (
    Apply,
    Const,
    Eq,
    Ext,
    If,
    Lambda,
    Proj1,
    Singleton,
    Var,
)
from repro.nra.derived import compose, select
from repro.nra.errors import NRAError, NRAEvalError
from repro.nra.eval import run as reference_run
from repro.nra.externals import EMPTY_SIGMA, ExternalFunction, Signature
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, from_python
from repro.relational.queries import REL_T, reachable_pairs_query
from repro.workloads.graphs import binary_tree, path_graph, random_graph
from repro.workloads.nested_graphs import edges_query, nested_random_graph, two_hop_query
from repro.workloads.services import enrichment_workload

pytestmark = pytest.mark.differential

EDGE_T = ProdType(BASE, BASE)

#: The engine-backed contenders; the reference interpreter is the oracle.
ENGINE_BACKENDS = ("vectorized", "parallel")


def _outcome(fn):
    """Run a backend: ``("value", v)`` or ``("error", class name, message)``.

    Messages must agree too: a parallel worker runs one contiguous run of
    the canonical order and the pool re-raises the first run's failure, so
    the error names the first failing element, as the reference's does.
    """
    try:
        return ("value", fn())
    except (NRAError, TypeError, KeyError) as exc:
        return ("error", type(exc).__name__, str(exc))


def assert_backends_agree(expr, arg=None, env=None, sigma=EMPTY_SIGMA, label="",
                          workers=2):
    want = _outcome(lambda: reference_run(expr, arg, env=env, sigma=sigma))
    for backend in ENGINE_BACKENDS:
        if backend == "parallel":
            eng = Engine(sigma=sigma, backend="parallel", workers=workers)
        else:
            eng = Engine(sigma=sigma, backend=backend)
        try:
            got = _outcome(lambda: eng.run(expr, arg, env=env))
            assert got == want, (
                f"{label or 'case'}: backend {backend!r} produced {got!r}, "
                f"reference produced {want!r}"
            )
        finally:
            eng.close()


# ---------------------------------------------------------------------------
# 1. Closed expressions (120 seeds)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(120))
def test_closed_expressions_agree(seed):
    assert_backends_agree(_random_expr(seed), label=f"closed expr seed {seed}")


# ---------------------------------------------------------------------------
# 2. Random monotone loops (24 seeds): the fixpoint strategies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(24))
def test_monotone_loops_agree(seed):
    rng = random.Random(10_000 + seed)
    expr = _loop_expr(rng, _random_monotone_step(rng))
    assert_backends_agree(expr, label=f"monotone loop seed {seed}")


# ---------------------------------------------------------------------------
# 3. Graph queries applied to random inputs (~30 cases)
# ---------------------------------------------------------------------------

def _graph_inputs():
    yield "path-9", path_graph(9).value()
    yield "tree-2", binary_tree(2).value()
    for seed in (1, 2, 3):
        yield f"gnp-{seed}", random_graph(10, 0.25, seed=seed).value()


@pytest.mark.parametrize("style", ["dcr", "logloop", "sri"])
@pytest.mark.parametrize("gname,graph", list(_graph_inputs()))
def test_transitive_closure_styles_agree(style, gname, graph):
    assert_backends_agree(
        reachable_pairs_query(style), graph, label=f"tc-{style} on {gname}"
    )


@pytest.mark.parametrize("qname,query", [
    ("edges", edges_query()),
    ("two-hop", two_hop_query()),
])
@pytest.mark.parametrize("seed", [4, 5, 6])
def test_nested_graph_queries_agree(qname, query, seed):
    db = nested_random_graph(14, 0.2, seed=seed)
    assert_backends_agree(query, db, label=f"{qname} on nested seed {seed}")


# ---------------------------------------------------------------------------
# 4. Env-bound templates: selections and cross-relation joins (~18 cases)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(9))
def test_env_selection_templates_agree(seed):
    rng = random.Random(20_000 + seed)
    k = rng.randrange(10)
    pred = Lambda("e", EDGE_T, Eq(Proj1(Var("e")), Const(BaseVal(k), BASE)))
    expr = select(pred, Var("edges"))
    env = {"edges": _random_relation(rng, max_nodes=10)}
    assert_backends_agree(expr, env=env, label=f"env selection seed {seed}")


@pytest.mark.parametrize("seed", range(9))
def test_env_join_templates_agree(seed):
    rng = random.Random(30_000 + seed)
    expr = compose(Var("a"), Var("b"), BASE)
    env = {
        "a": _random_relation(rng, max_nodes=10),
        "b": _random_relation(rng, max_nodes=10),
    }
    assert_backends_agree(expr, env=env, label=f"env join seed {seed}")


# ---------------------------------------------------------------------------
# 5. The oracle workload (latency 0)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 7, 23])
def test_enrichment_oracle_agrees(n):
    sigma, query, value = enrichment_workload(n, latency=0.0)
    assert_backends_agree(query, value, sigma=sigma, label=f"enrichment n={n}")


# ---------------------------------------------------------------------------
# 6. Error agreement (~12 cases)
# ---------------------------------------------------------------------------

def _raising_sigma():
    def boom(v):
        raise NRAEvalError("boom")

    return Signature([ExternalFunction("boom", BASE, BASE, boom, "raises")])


def _boom_map():
    body = Singleton(ast.ExternalCall("boom", Var("x")))
    return Lambda("s", SetType(BASE), Apply(Ext(Lambda("x", BASE, body)), Var("s")))


class TestErrorAgreement:
    def test_raising_external_on_nonempty_input(self):
        assert_backends_agree(
            _boom_map(), from_python({1, 2, 3, 4, 5}), sigma=_raising_sigma(),
            label="raising external, nonempty",
        )

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("n", [7, 20, 64])
    def test_every_backend_names_the_first_failing_element(self, n, workers):
        # Multiples of 3 raise: every backend must report ``boom 3``, the
        # first failure in canonical order, not a later run's.
        def boom(v):
            if v.value % 3 == 0:
                raise NRAEvalError(f"boom {v}")
            return v

        sigma = Signature([ExternalFunction("boom", BASE, BASE, boom, "raises on 3k")])
        assert_backends_agree(
            _boom_map(), from_python(set(range(1, n + 1))), sigma=sigma,
            label=f"raising on multiples of 3, n={n}", workers=workers,
        )

    def test_raising_external_on_empty_input(self):
        assert_backends_agree(
            _boom_map(), from_python(set()), sigma=_raising_sigma(),
            label="raising external, empty",
        )

    def test_raising_external_in_join_right_source_with_empty_left(self):
        # The hash-join short-circuit: an empty left side must not evaluate
        # the right source, on any backend.
        right = Apply(Ext(Lambda("x", BASE, Singleton(
            ast.Pair(ast.ExternalCall("boom", Var("x")), Var("x"))
        ))), Var("b"))
        expr = compose(Var("a"), right, BASE)
        env = {"a": from_python(set()), "b": from_python({1, 2})}
        assert_backends_agree(expr, env=env, sigma=_raising_sigma(),
                              label="raising right source, empty left")

    def test_projection_of_a_non_pair(self):
        assert_backends_agree(
            Proj1(Const(from_python({1, 2}), SetType(BASE))),
            label="proj1 of a set",
        )

    def test_non_boolean_condition(self):
        expr = If(Const(from_python(3), BASE),
                  Const(from_python(1), BASE), Const(from_python(2), BASE))
        assert_backends_agree(expr, label="non-boolean condition")

    def test_unbound_variable(self):
        assert_backends_agree(Var("nowhere"), label="unbound variable")

    def test_applying_a_non_function(self):
        expr = Apply(Const(from_python(1), BASE), Const(from_python(2), BASE))
        assert_backends_agree(expr, label="applying a non-function")

    def test_ill_typed_union(self):
        expr = ast.Union(Const(from_python(1), BASE),
                         Const(from_python({2}), SetType(BASE)))
        assert_backends_agree(expr, label="union of non-sets")

    def test_iterating_a_non_set_cardinality(self):
        step = Lambda("v", REL_T, Var("v"))
        expr = Apply(ast.Loop(step, BASE),
                     ast.Pair(Const(from_python(1), BASE),
                              Const(_random_relation(random.Random(1)), REL_T)))
        assert_backends_agree(expr, label="loop over non-set cardinality")

    def test_unknown_external(self):
        expr = ast.ExternalCall("missing", Const(from_python(1), BASE))
        assert_backends_agree(expr, label="unknown external")


# ---------------------------------------------------------------------------
# 7. The maintenance oracle (PR-5): maintained views == cold recompute
#    after every changeset of random update sequences (~100 seeds)
# ---------------------------------------------------------------------------

from repro.api import Q, connect  # noqa: E402
from repro.workloads.streams import (  # noqa: E402
    deletion_update_stream,
    graph_update_stream,
    mixed_update_stream,
    nested_update_stream,
    stream_graph_database,
    stream_nested_database,
)


def _view_panel():
    """One query per delta rule, rebuilt fresh per case (templates cache)."""
    return {
        "selection": Q.coll("edges").where(lambda e: e.fst == 2),
        "map": Q.coll("edges").map(lambda e: e.snd),
        "two-hop-join": Q.coll("edges").compose(Q.coll("edges")),
        "union-overlap": (Q.coll("edges").where(lambda e: e.fst == 1)
                          | Q.coll("edges").where(lambda e: e.snd == 2)),
        "tc-fixpoint": Q.coll("edges").fix(),
        "difference-fallback": Q.coll("edges")
        - Q.coll("edges").where(lambda e: e.fst == 0),
    }


def _assert_views_match_recompute(session, views, label):
    for vname, (view, query) in views.items():
        got = view.value
        want = session.execute(query).value
        assert got == want, (
            f"{label}: view {vname!r} diverged from cold recompute "
            f"({len(got.elements)} vs {len(want.elements)} rows)"
        )


@pytest.mark.ivm
@pytest.mark.parametrize("seed", range(80))
def test_maintained_views_equal_recompute_on_flat_streams(seed):
    rng = random.Random(40_000 + seed)
    n = rng.randrange(8, 16)
    db = stream_graph_database(n, "random", seed=seed, p=rng.uniform(0.1, 0.3))
    session = connect(db)
    views = {name: (session.materialize(q, name=name), q)
             for name, q in _view_panel().items()}
    insert_ratio = rng.choice((1.0, 1.0, 0.7, 0.4, 0.0))
    stream = graph_update_stream(
        db, churn=rng.uniform(0.05, 0.4), insert_ratio=insert_ratio,
        seed=seed + 1, domain=n + 2,
    )
    saw_deletes = False
    for step, cs in enumerate(stream.run(4)):
        d = cs.get("edges")
        saw_deletes = saw_deletes or bool(d and d.deletes)
        _assert_views_match_recompute(
            session, views, f"flat seed {seed} step {step}"
        )
    # The fixpoint view must never fall back: insertions continue
    # semi-naively, deletions take the delete/rederive path.
    tc = views["tc-fixpoint"][0].stats
    assert tc.fallback_recomputes == 0
    if saw_deletes:
        assert tc.dred_applies > 0


# ---------------------------------------------------------------------------
# 7b. The deletion-heavy maintenance oracle (PR-6): DRed path, proven by stats
# ---------------------------------------------------------------------------

@pytest.mark.ivm
@pytest.mark.dred
@pytest.mark.parametrize("seed", range(12))
def test_maintained_views_equal_recompute_on_deletion_streams(seed):
    rng = random.Random(60_000 + seed)
    n = rng.randrange(10, 18)
    db = stream_graph_database(n, "random", seed=seed, p=rng.uniform(0.12, 0.3))
    session = connect(db)
    views = {name: (session.materialize(q, name=name), q)
             for name, q in _view_panel().items()}
    stream = deletion_update_stream(db, churn=rng.uniform(0.03, 0.15),
                                    seed=seed + 11)
    deleted = 0
    for step, cs in enumerate(stream.run(5)):
        d = cs.get("edges")
        deleted += len(d.deletes) if d else 0
        _assert_views_match_recompute(
            session, views, f"deletion seed {seed} step {step}"
        )
    assert deleted > 0
    tc = views["tc-fixpoint"][0].stats
    assert tc.fallback_recomputes == 0, "deletion took the recompute fallback"
    assert tc.dred_applies > 0, "no delete/rederive pass ran"
    assert tc.dred_rederives <= tc.dred_overdeletes


@pytest.mark.ivm
@pytest.mark.dred
@pytest.mark.parametrize("seed", range(8))
def test_maintained_views_equal_recompute_on_mixed_churn_streams(seed):
    rng = random.Random(65_000 + seed)
    n = rng.randrange(10, 16)
    db = stream_graph_database(n, "random", seed=seed, p=rng.uniform(0.15, 0.3))
    session = connect(db)
    views = {name: (session.materialize(q, name=name), q)
             for name, q in _view_panel().items()}
    stream = mixed_update_stream(db, churn=rng.uniform(0.1, 0.3),
                                 insert_ratio=0.5, seed=seed + 13, domain=n + 2)
    saw_deletes = False
    for step, cs in enumerate(stream.run(5)):
        d = cs.get("edges")
        saw_deletes = saw_deletes or bool(d and d.deletes)
        _assert_views_match_recompute(
            session, views, f"mixed seed {seed} step {step}"
        )
    tc = views["tc-fixpoint"][0].stats
    assert tc.fallback_recomputes == 0
    if saw_deletes:
        assert tc.dred_applies > 0


@pytest.mark.ivm
@pytest.mark.parametrize("seed", range(20))
def test_maintained_views_equal_recompute_on_nested_streams(seed):
    rng = random.Random(50_000 + seed)
    db = stream_nested_database(rng.randrange(8, 14), rng.uniform(0.15, 0.35),
                                seed=seed)
    session = connect(db)
    panel = {
        "unnest": Q.coll("adj").unnest(),
        "nested-two-hop": Q.coll("adj").unnest().compose(Q.coll("adj").unnest()),
        "nested-tc": Q.coll("adj").unnest().fix(),
    }
    views = {name: (session.materialize(q, name=name), q)
             for name, q in panel.items()}
    stream = nested_update_stream(
        db, churn=rng.uniform(0.1, 0.35),
        insert_ratio=rng.choice((1.0, 0.6, 0.3)), seed=seed + 7,
    )
    for step, _ in enumerate(stream.run(4)):
        _assert_views_match_recompute(
            session, views, f"nested seed {seed} step {step}"
        )


@pytest.mark.ivm
@pytest.mark.dred
@pytest.mark.parametrize("seed", range(8))
def test_nested_tc_takes_the_dred_path_under_record_shrinks(seed):
    # Shrink-biased record rewrites: deleting a successor from an adjacency
    # record reaches the fixpoint as an edge delete through the unnest node,
    # so the recursive view must be served by DRed, never by fallback.
    rng = random.Random(55_000 + seed)
    db = stream_nested_database(rng.randrange(9, 14), rng.uniform(0.25, 0.4),
                                seed=seed)
    session = connect(db)
    q = Q.coll("adj").unnest().fix()
    view = session.materialize(q, name="nested-tc")
    stream = nested_update_stream(db, churn=0.3, insert_ratio=0.0, seed=seed + 17)
    for step, _ in enumerate(stream.run(4)):
        got, want = view.value, session.execute(q).value
        assert got == want, f"nested-dred seed {seed} step {step} diverged"
    assert view.stats.fallback_recomputes == 0
    assert view.stats.dred_applies > 0


# ---------------------------------------------------------------------------
# 8. Flat vs object kernels (PR-7): the dense-id representation is a pure
#    optimization -- same outcome as the object kernels and the reference
#    on every generated case, including error cases.
# ---------------------------------------------------------------------------

def _flat_outcomes_agree(expr, arg=None, env=None, label=""):
    want = _outcome(lambda: reference_run(expr, arg, env=env))
    for variant, kwargs in (("flat", {}), ("object", {"flat": False})):
        eng = Engine(backend="vectorized", **kwargs)
        try:
            got = _outcome(lambda: eng.run(expr, arg, env=env))
            assert got == want, (
                f"{label or 'case'}: {variant} kernels produced {got!r}, "
                f"reference produced {want!r}"
            )
        finally:
            eng.close()


@pytest.mark.columnar
@pytest.mark.parametrize("seed", range(40))
def test_flat_and_object_kernels_agree_on_closed_expressions(seed):
    _flat_outcomes_agree(_random_expr(seed), label=f"flat closed expr seed {seed}")


@pytest.mark.columnar
@pytest.mark.parametrize("seed", range(16))
def test_flat_and_object_kernels_agree_on_monotone_loops(seed):
    rng = random.Random(70_000 + seed)
    expr = _loop_expr(rng, _random_monotone_step(rng))
    _flat_outcomes_agree(expr, label=f"flat monotone loop seed {seed}")


@pytest.mark.columnar
@pytest.mark.parametrize("style", ["dcr", "logloop", "sri"])
@pytest.mark.parametrize("seed", [21, 22])
def test_flat_and_object_kernels_agree_on_tc(style, seed):
    graph = random_graph(11, 0.3, seed=seed).value()
    _flat_outcomes_agree(reachable_pairs_query(style), graph,
                         label=f"flat tc-{style} seed {seed}")
