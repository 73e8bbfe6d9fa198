"""The vectorized backend: value-for-value parity and strategy selection.

The set-at-a-time backend must be a *pure optimization*: on every query and
input its result equals the reference interpreter's, whatever strategy the
compiler picked (hash join, semi-naive frontier, by-size dcr, or the faithful
element-wise fallbacks).  These tests cross-check the whole query library on
the graph and nested workloads, assert that the intended strategies actually
fire (via ``Engine.explain_plan``), and pin down that a reused engine or
evaluator reports per-call stats and keeps its results per input.
"""

import pytest

from repro.engine import Engine, VectorizedEvaluator
from repro.engine.shapes import insert_as_step, is_inflationary_step, union_operands
from repro.nra.ast import (
    Apply,
    Bdcr,
    BlogLoop,
    Bloop,
    Bsri,
    Const,
    Dcr,
    EmptySet,
    Eq,
    Ext,
    ExternalCall,
    If,
    Lambda,
    Loop,
    Pair,
    Proj1,
    Proj2,
    Singleton,
    Sri,
    Union,
    Var,
    lam2,
)
from repro.nra.derived import compose
from repro.nra.eval import run
from repro.nra.externals import AGGREGATE_SIGMA
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, SetVal, from_python, to_python
from repro.recursion.iterators import iterate, iterate_stable, seminaive_iterate
from repro.relational.queries import (
    REL_T,
    cardinality_parity_dcr,
    parity_dcr,
    parity_esr,
    parity_esr_translated,
    reachable_pairs_query,
    tagged_boolean_set,
)
from repro.workloads.graphs import binary_tree, cycle_graph, path_graph, random_graph
from repro.workloads.nested import department_database, random_bits
from repro.workloads.nested_graphs import (
    edges_query,
    nested_random_graph,
    nested_reachability_query,
    two_hop_query,
)

GRAPHS = {
    "path": path_graph(10),
    "cycle": cycle_graph(8),
    "tree": binary_tree(3),
    "random": random_graph(9, 0.3, seed=5),
}

NESTED_GRAPHS = {
    "sparse": nested_random_graph(24, 0.08, seed=2),
    "dense": nested_random_graph(12, 0.4, seed=3),
    "empty": nested_random_graph(6, 0.0, seed=4),
}


def vec_engine() -> Engine:
    return Engine(backend="vectorized")


# ---------------------------------------------------------------------------
# Value-for-value parity with the reference interpreter
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("style", ["dcr", "logloop", "sri"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_tc_agrees_with_reference(style, graph):
    g = GRAPHS[graph]
    q = reachable_pairs_query(style)
    assert vec_engine().run(q, g) == run(q, g.value())


@pytest.mark.parametrize("style", ["dcr", "logloop", "sri"])
def test_tc_agrees_without_rewriting(style):
    q = reachable_pairs_query(style)
    g = GRAPHS["path"]
    assert vec_engine().run(q, g, optimize=False) == run(q, g.value())


@pytest.mark.parametrize(
    "query",
    [parity_dcr, parity_esr, parity_esr_translated, cardinality_parity_dcr],
)
def test_parity_agrees_with_reference(query):
    q = query()
    for n in (0, 1, 5, 13):
        bits = random_bits(n, seed=n)
        if query is cardinality_parity_dcr:
            inp = SetVal(BaseVal(i) for i in range(n))
        else:
            inp = tagged_boolean_set(bits)
        assert vec_engine().run(q, inp) == run(q, inp)


@pytest.mark.parametrize("builder", [edges_query, two_hop_query, nested_reachability_query])
@pytest.mark.parametrize("graph", sorted(NESTED_GRAPHS))
def test_nested_graph_queries_agree(builder, graph):
    db = NESTED_GRAPHS[graph]
    q = builder()
    assert vec_engine().run(q, db) == run(q, db)


def test_departments_pipeline_agrees():
    from repro.nra.derived import flatten, smap
    from repro.workloads.nested import DEPARTMENT_T

    d = Lambda("d", DEPARTMENT_T, Proj2(Proj2(Var("d"))))
    q = Lambda("db", SetType(DEPARTMENT_T), flatten(smap(d, Var("db")), BASE))
    db = department_database(8, employees_per_department=4, seed=1)
    assert vec_engine().run(q, db) == run(q, db)


def _bounded_forms() -> dict:
    """One closed query per bounded form the compiler lowers, plus bare ``ext``."""
    set_t = SetType(BASE)
    bound = Const(from_python({1, 2, 3}), set_t)
    inp = Const(from_python({1, 2, 5, 9}), set_t)
    combine = Lambda("p", ProdType(set_t, set_t), Union(Proj1(Var("p")), Proj2(Var("p"))))
    item = Lambda("x", BASE, Singleton(Var("x")))
    insert = lam2("x", BASE, "acc", set_t, Union(Singleton(Var("x")), Var("acc")))
    # Squaring steps over a 6-node path, clipped to the pairs leaving 0 or 1.
    square = Lambda("r", REL_T, Union(Var("r"), compose(Var("r"), Var("r"), BASE)))
    pairs = Const(from_python({(a, b) for a in (0, 1) for b in range(6)}), REL_T)
    budget = Pair(Const(from_python({0, 1, 2}), set_t), Const(path_graph(6).value(), REL_T))
    singleton = Ext(Lambda("x", BASE, Singleton(Var("x"))))
    nested = Const(from_python({frozenset({1, 2}), frozenset({3}), frozenset()}), SetType(set_t))
    # name -> (query, the plan op the vectorized compiler lowers it to)
    return {
        "bdcr": (Apply(Bdcr(EmptySet(BASE), item, combine, bound), inp), "dcr-tree"),
        "bsri": (Apply(Bsri(EmptySet(BASE), insert, bound), inp), "sri-elementwise"),
        "bloop": (Apply(Bloop(square, pairs, BASE), budget), "loop-full"),
        "blog_loop": (Apply(BlogLoop(square, pairs, BASE), budget), "loop-full"),
        # ext(f) as a value: the step of a loop, and the f of another ext.
        "dynamic_step_loop": (Apply(Loop(singleton, BASE), Pair(inp, inp)), "ext-dynamic"),
        "bare_ext": (Apply(Ext(singleton), nested), "ext-dynamic"),
    }


@pytest.mark.parametrize("backend", ["vectorized", "parallel"])
@pytest.mark.parametrize("form", list(_bounded_forms()))
def test_bounded_recursion_agrees(form, backend):
    expr, op = _bounded_forms()[form]
    eng = Engine(backend=backend, workers=2)
    try:
        assert eng.run(expr) == run(expr)
        assert op in eng.explain_plan(expr, backend="vectorized").ops()
    finally:
        eng.close()
    if form in ("bdcr", "bsri"):
        assert to_python(run(expr)) == frozenset({1, 2})


def test_externals_agree():
    q = Lambda("s", SetType(BASE), ExternalCall("sum", Var("s")))
    inp = from_python({1, 2, 3, 10})
    eng = Engine(sigma=AGGREGATE_SIGMA, backend="vectorized")
    assert eng.run(q, inp) == run(q, inp, sigma=AGGREGATE_SIGMA)
    assert to_python(eng.run(q, inp)) == 16


def test_element_inspecting_insert_falls_back_and_agrees():
    """An sri whose insert *looks at* the element cannot become a loop."""
    insert = lam2(
        "x", BASE, "acc", SetType(BASE),
        Union(Singleton(Var("x")), Var("acc")),
    )
    q = Lambda("s", SetType(BASE), Apply(Sri(EmptySet(BASE), insert), Var("s")))
    inp = from_python({3, 1, 4, 1, 5})
    eng = vec_engine()
    assert eng.run(q, inp) == run(q, inp)
    assert "sri-elementwise" in eng.explain_plan(q).ops()


def test_non_inflationary_loop_runs_full_and_agrees():
    """A step that shrinks its accumulator must not run semi-naively."""
    # step keeps only elements equal to 1: not inflationary.
    keep_one = Lambda(
        "v", SetType(BASE),
        Apply(
            Ext(Lambda(
                "x", BASE,
                If(Eq(Var("x"), Const(from_python(1), BASE)),
                   Singleton(Var("x")),
                   EmptySet(BASE)),
            )),
            Var("v"),
        ),
    )
    q = Lambda(
        "s", SetType(BASE),
        Apply(Loop(keep_one, BASE), Pair(Var("s"), Var("s"))),
    )
    inp = from_python({1, 2, 3})
    eng = vec_engine()
    assert eng.run(q, inp) == run(q, inp)
    ops = eng.explain_plan(q).ops()
    assert "loop-full" in ops and "loop-seminaive" not in ops


# ---------------------------------------------------------------------------
# Strategy selection
# ---------------------------------------------------------------------------

def test_compose_compiles_to_a_hash_join():
    q = Lambda("r", REL_T, compose(Var("r"), Var("r"), BASE))
    plan = vec_engine().explain_plan(q)
    assert "hash-join" in plan.ops()
    g = GRAPHS["path"]
    assert vec_engine().run(q, g) == run(q, g.value())


def test_tc_dcr_shares_combines_by_cardinality():
    eng = vec_engine()
    q = reachable_pairs_query("dcr")
    assert "dcr-by-size" in eng.explain_plan(q).ops()
    eng.run(q, GRAPHS["path"])
    assert eng.last_stats.dcr_by_size >= 1
    assert eng.last_stats.hash_joins >= 1


def test_tc_logloop_runs_seminaive():
    eng = vec_engine()
    q = reachable_pairs_query("logloop")
    assert "loop-seminaive" in eng.explain_plan(q).ops()
    eng.run(q, GRAPHS["path"])
    assert eng.last_stats.seminaive_loops == 1
    assert eng.last_stats.seminaive_rounds >= 1


def test_tc_sri_becomes_a_seminaive_loop():
    eng = vec_engine()
    q = reachable_pairs_query("sri")
    ops = eng.explain_plan(q).ops()
    assert "sri-as-loop" in ops and "loop-seminaive" in ops
    eng.run(q, GRAPHS["path"])
    # The base relation is loop-invariant: its join index is built once and
    # then reused every frontier round.
    assert eng.last_stats.index_hits >= 1


def test_plan_rendering_mentions_strategies():
    eng = vec_engine()
    text = str(eng.explain_plan(reachable_pairs_query("logloop")))
    assert "loop-seminaive" in text
    assert "hash-join" in text


# ---------------------------------------------------------------------------
# The inflationary-step analysis hooks
# ---------------------------------------------------------------------------

def test_union_operands_flattens():
    e = Union(Union(Var("a"), Var("b")), Var("c"))
    assert [v.name for v in union_operands(e)] == ["a", "b", "c"]


def test_is_inflationary_step():
    grow = Lambda("v", REL_T, Union(Var("v"), compose(Var("v"), Var("v"), BASE)))
    shrink = Lambda("v", REL_T, compose(Var("v"), Var("v"), BASE))
    assert is_inflationary_step(grow)
    assert not is_inflationary_step(shrink)
    assert not is_inflationary_step(Var("v"))


def test_insert_as_step_requires_element_blindness():
    blind = lam2("x", BASE, "acc", REL_T,
                 Union(Var("acc"), compose(Var("acc"), Var("acc"), BASE)))
    looking = lam2("x", BASE, "acc", SetType(BASE),
                   Union(Singleton(Var("x")), Var("acc")))
    step = insert_as_step(blind)
    assert step is not None and step.var_type == REL_T
    assert insert_as_step(looking) is None


# ---------------------------------------------------------------------------
# Delta-aware iteration entry points
# ---------------------------------------------------------------------------

def test_iterate_stable_matches_iterate():
    f = lambda v: from_python(frozenset(to_python(v) | {min(len(v) + 1, 5)}))
    start = from_python({1})
    for rounds in range(8):
        assert iterate_stable(f, start, rounds) == iterate(f, start, rounds)


def test_iterate_stable_stops_at_fixpoints_only():
    calls = []

    def f(v):
        calls.append(v)
        return from_python(frozenset(to_python(v) | {len(calls)}))

    iterate_stable(f, from_python(frozenset()), 3)
    assert len(calls) == 3  # never converges early here


def test_seminaive_iterate_matches_full_iteration():
    base = frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})

    def compose_py(a, b):
        return frozenset((x, w) for (x, y) in a for (z, w) in b if y == z)

    def full(acc):
        pairs = frozenset(to_python(acc))
        return from_python(pairs | compose_py(pairs, base))

    def delta(d, acc):
        return from_python(compose_py(frozenset(to_python(d)), base))

    start = from_python(base)
    for rounds in (0, 1, 2, 3, 10):
        want = iterate(lambda v: full(v), start, rounds)
        got = seminaive_iterate(full, delta, start, rounds)
        assert got == want, rounds


# ---------------------------------------------------------------------------
# Reuse: plans, intern table and caches shared across runs
# ---------------------------------------------------------------------------

def test_last_stats_is_per_call_on_a_reused_engine():
    eng = vec_engine()
    q = reachable_pairs_query("logloop")
    eng.run(q, GRAPHS["path"])
    eng.run(q, GRAPHS["cycle"])
    assert eng.last_stats.seminaive_loops == 1


@pytest.mark.parametrize("backend", ["reference", "vectorized", "parallel", "auto"])
def test_reused_engine_matches_reference_on_every_backend(backend):
    q = reachable_pairs_query("dcr")
    eng = Engine(backend=backend)
    try:
        for k in sorted(GRAPHS):
            assert eng.run(q, GRAPHS[k]) == run(q, GRAPHS[k].value()), k
    finally:
        eng.close()


def test_warm_engine_compiles_nothing():
    eng = vec_engine()
    q = reachable_pairs_query("logloop")
    eng.run(q, GRAPHS["path"])
    assert eng.last_stats.compiled_exprs > 0
    eng.run(q, GRAPHS["tree"])
    assert eng.last_stats.compiled_exprs == 0
    assert eng.last_stats.seminaive_loops == 1


def test_a_repeated_input_adds_no_compile_and_no_value():
    eng = vec_engine()
    q = reachable_pairs_query("dcr")
    g = GRAPHS["path"]
    eng.run(q, g)
    # The second run reuses the first one's plan and interned values:
    # interning the input again is pure hits.
    hits, size = eng.interner.hits, eng.interner.size
    eng.run(q, g)
    assert eng.last_stats.compiled_exprs == 0
    assert eng.interner.size == size
    assert eng.interner.hits > hits


def test_results_are_per_input_on_a_reused_engine():
    eng = vec_engine()
    q = reachable_pairs_query("dcr")
    a, b = path_graph(4), path_graph(7)
    ra, rb = eng.run(q, a), eng.run(q, b)
    assert ra == run(q, a.value())
    assert rb == run(q, b.value())
    assert ra != rb


def test_evaluator_reuse_without_engine():
    ev = VectorizedEvaluator()
    q = reachable_pairs_query("dcr")
    outs = [ev.run(q, GRAPHS[k].value()) for k in ("path", "tree")]
    assert outs == [run(q, GRAPHS["path"].value()), run(q, GRAPHS["tree"].value())]


# ---------------------------------------------------------------------------
# Adversarial corners: binding discipline and pattern-recognition boundaries
# ---------------------------------------------------------------------------

class TestBindingAndPatternCorners:
    def test_shadowed_ext_variables(self):
        """Nested exts reusing one variable name must not clobber bindings."""
        s_t = SetType(BASE)
        q = Lambda("s", s_t, Apply(
            Ext(Lambda("x", BASE,
                       Apply(Ext(Lambda("x", BASE, Singleton(Var("x")))), Var("s")))),
            Var("s")))
        inp = from_python({1, 2, 3})
        assert vec_engine().run(q, inp, optimize=False) == run(q, inp)

    def test_let_bound_value_escapes_into_a_recursion(self):
        s_t = SetType(BASE)
        combine = Lambda("p", ProdType(s_t, s_t),
                         Union(Union(Proj1(Var("p")), Proj2(Var("p"))), Var("c")))
        phi = Dcr(EmptySet(BASE), Lambda("x", BASE, Singleton(Var("x"))), combine)
        q = Lambda("s", s_t, Apply(
            Lambda("c", s_t, Apply(phi, Var("s"))),
            Singleton(Const(from_python(9), BASE))))
        inp = from_python({1, 2, 3})
        assert vec_engine().run(q, inp, optimize=False) == run(q, inp)

    def test_correlated_inner_ext_is_not_a_join(self):
        """unnest: the inner source depends on the outer element."""
        rec_t = ProdType(BASE, SetType(BASE))
        q = Lambda("s", SetType(rec_t), Apply(
            Ext(Lambda("p", rec_t,
                       Apply(Ext(Lambda("y", BASE,
                                        Singleton(Pair(Proj1(Var("p")), Var("y"))))),
                             Proj2(Var("p"))))),
            Var("s")))
        inp = from_python({(1, frozenset({2, 3})), (4, frozenset())})
        eng = vec_engine()
        assert eng.run(q, inp, optimize=False) == run(q, inp)
        assert "hash-join" not in eng.explain_plan(q, optimize=False).ops()

    def test_join_recognised_with_swapped_key_order(self):
        r_t = ProdType(BASE, BASE)
        q = Lambda("r", SetType(r_t), Apply(
            Ext(Lambda("p", r_t, Apply(
                Ext(Lambda("q", r_t,
                           If(Eq(Proj1(Var("q")), Proj2(Var("p"))),  # rkey = lkey
                              Singleton(Pair(Proj1(Var("p")), Proj2(Var("q")))),
                              EmptySet(r_t)))),
                Var("r")))),
            Var("r")))
        inp = from_python({(1, 2), (2, 3), (3, 1)})
        eng = vec_engine()
        assert eng.run(q, inp, optimize=False) == run(q, inp)
        assert "hash-join" in eng.explain_plan(q, optimize=False).ops()

    def test_mixed_invariant_linear_and_bilinear_step(self):
        r_t = ProdType(BASE, BASE)
        step = Lambda("v", SetType(r_t), Union(
            Union(Var("v"), compose(Var("v"), Var("v"), BASE)),
            compose(Var("v"), Var("base"), BASE)))
        q = Lambda("base", SetType(r_t),
                   Apply(Loop(step, BASE), Pair(Var("base"), Var("base"))))
        inp = from_python({(1, 2), (2, 3), (3, 1)})
        eng = vec_engine()
        assert eng.run(q, inp, optimize=False) == run(q, inp)
        assert eng.last_stats.seminaive_loops == 1


def test_hash_join_skips_right_source_on_empty_left():
    """Reference semantics: the right source sits inside the outer lambda,
    so an empty left set must not evaluate it (regression: the compiled
    hash join hoisted and evaluated it eagerly)."""
    from repro.engine import Engine
    from repro.nra import ast
    from repro.nra.ast import Apply, EmptySet, Eq, Ext, If, Lambda, Pair, Singleton, Var
    from repro.nra.eval import run as ref_run
    from repro.nra.externals import ExternalFunction, Signature
    from repro.objects.types import BASE, ProdType, SetType

    calls = []

    def boom(v):
        calls.append(v)
        raise RuntimeError("right source must not be evaluated")

    sigma = Signature([ExternalFunction(
        "boom", SetType(ProdType(BASE, BASE)), SetType(ProdType(BASE, BASE)), boom
    )])
    edge_t = ProdType(BASE, BASE)
    out_t = ProdType(edge_t, edge_t)
    inner = Lambda("y", edge_t, If(
        Eq(ast.Proj1(Var("x")), ast.Proj1(Var("y"))),
        Singleton(Pair(Var("x"), Var("y"))),
        EmptySet(out_t),
    ))
    body = Apply(Ext(inner), ast.ExternalCall("boom", Var("db")))
    expr = Apply(Ext(Lambda("x", edge_t, body)), Var("db"))
    env = {"db": from_python(set())}

    want = ref_run(expr, None, env=env, sigma=sigma)
    eng = Engine(sigma=sigma, backend="vectorized")
    assert "hash-join" in eng.explain_plan(expr).ops()
    got = eng.run(expr, env=env)
    assert got == want and len(got) == 0
    assert calls == []


def test_clear_plans_drops_vectorized_compile_cache():
    """clear_plans targets long-lived ad-hoc engines: the vectorized compile
    cache (the dominant per-query memory) must go with the rewrite plans."""
    from repro.engine import Engine
    from repro.relational.queries import reachable_pairs_query
    from repro.workloads.graphs import path_graph

    eng = Engine(backend="vectorized")
    q = reachable_pairs_query("logloop")
    eng.run(q, path_graph(6))
    eng.run(q, path_graph(6))
    assert eng.last_stats.compiled_exprs == 0  # warm
    eng.clear_plans()
    eng.run(q, path_graph(6))
    assert eng.last_stats.compiled_exprs > 0  # recompiled after the clear
