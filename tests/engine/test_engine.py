"""Cross-checks of the optimizing engine against the reference interpreter.

The engine must be a *pure optimization*: on every query/input pair its result
equals :func:`repro.nra.eval.run`'s, with and without rewriting, and its
rewrites never increase the work/depth cost of the query.  These tests run the
whole query library plus bounded-recursion and external-function cases.
"""

import pytest

from repro.engine import DenseIdLimitError, Engine, InternTable
from repro.engine.interning import CODE_BITS
from repro.nra.ast import (
    Apply,
    Bdcr,
    Const,
    EmptySet,
    ExternalCall,
    Lambda,
    Proj1,
    Proj2,
    Singleton,
    Union,
    Var,
)
from repro.nra.cost import cost_run
from repro.nra.eval import run
from repro.nra.externals import AGGREGATE_SIGMA
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, SetVal, from_python, to_python
from repro.relational.queries import (
    cardinality_parity_dcr,
    parity_dcr,
    parity_esr,
    parity_esr_translated,
    reachable_pairs_query,
    tagged_boolean_set,
)
from repro.workloads.graphs import binary_tree, cycle_graph, path_graph, random_graph
from repro.workloads.nested import random_bits


GRAPHS = {
    "path": path_graph(10),
    "cycle": cycle_graph(8),
    "tree": binary_tree(3),
    "random": random_graph(9, 0.3, seed=5),
}


@pytest.mark.parametrize("style", ["dcr", "logloop", "sri"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_tc_agrees_with_reference(style, graph):
    g = GRAPHS[graph]
    q = reachable_pairs_query(style)
    assert Engine().run(q, g) == run(q, g.value())


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
        assert Engine().run(q, inp) == run(q, inp)


def test_optimize_false_also_agrees():
    g = GRAPHS["path"]
    q = reachable_pairs_query("dcr")
    eng = Engine()
    assert eng.run(q, g, optimize=False) == run(q, g.value())


def test_bounded_recursion_agrees():
    """Bdcr with an explicit bound: clipping goes through interning too."""
    bound = Const(from_python({1, 2, 3}), SetType(BASE))
    combine = Lambda(
        "p", ProdType(SetType(BASE), SetType(BASE)), Union(Proj1(Var("p")), Proj2(Var("p")))
    )
    item = Lambda("x", BASE, Singleton(Var("x")))
    phi = Bdcr(EmptySet(BASE), item, combine, bound)
    inp = from_python({1, 2, 5, 9})
    expr = Apply(phi, Const(inp, SetType(BASE)))
    assert Engine().run(expr) == run(expr)
    assert to_python(Engine().run(expr)) == frozenset({1, 2})


def test_externals_agree():
    q = Lambda("s", SetType(BASE), ExternalCall("sum", Var("s")))
    inp = from_python({1, 2, 3, 10})
    eng = Engine(sigma=AGGREGATE_SIGMA)
    assert eng.run(q, inp) == run(q, inp, sigma=AGGREGATE_SIGMA)
    assert to_python(eng.run(q, inp)) == 16


def test_explain_reports_fired_rules():
    eng = Engine()
    plan = eng.explain(parity_esr_translated())
    assert "sri-to-dcr" in plan.fired_rules
    assert plan.rule_counts["sri-to-dcr"] == 1
    assert "sri-to-dcr" in str(plan)
    # idempotent and cached
    assert eng.explain(parity_esr_translated()).optimized is not None
    q = reachable_pairs_query("dcr")
    assert eng.explain(q) is eng.explain(q)


def test_optimized_never_costs_more_than_original():
    """Engine acceptance: rewritten plans don't regress under the cost model."""
    cases = [
        (reachable_pairs_query("dcr"), GRAPHS["path"].value()),
        (reachable_pairs_query("sri"), GRAPHS["path"].value()),
        (parity_esr_translated(), tagged_boolean_set(random_bits(12, seed=2))),
        (parity_dcr(), tagged_boolean_set(random_bits(12, seed=2))),
    ]
    eng = Engine()
    for q, inp in cases:
        plan = eng.explain(q)
        _, c_orig = cost_run(q, inp)
        _, c_opt = cost_run(plan.optimized, inp)
        assert c_opt.work <= c_orig.work
        assert c_opt.depth <= c_orig.depth


def test_engine_surface_is_one_executor_and_one_pool():
    """A bare engine runs the vectorized executor; the old names are gone."""
    import inspect

    from repro.engine import BACKENDS

    assert Engine().backend == "vectorized"
    assert BACKENDS == ("reference", "vectorized", "parallel", "auto")
    with pytest.raises(ValueError, match="unknown backend 'memo'"):
        Engine(backend="memo")
    with pytest.raises(TypeError):
        Engine(pool="shm")
    with pytest.raises(TypeError):
        Engine(seed=0)
    with pytest.raises(TypeError):
        Engine(shards=2)
    assert len(inspect.signature(Engine.__init__).parameters) - 1 == 5


def test_intern_table_shares_structure():
    table = InternTable()
    a = table.intern(from_python({1, (2, 3)}))
    b = table.intern(from_python({(2, 3), 1}))
    assert a is b
    assert table.intern(from_python((2, 3))) is a.elements[1]
    assert table.hits > 0


def test_intern_union_matches_setval_union():
    table = InternTable()
    a = table.intern(from_python({1, 3, 5}))
    b = table.intern(from_python({2, 3, 6}))
    assert table.union(a, b) == a.union(b)
    assert table.union(a, b) is table.intern(a.union(b))


def _codes(table, pairs):
    bits = 32
    return [(table.dense_id(table.base(a)) << bits) | table.dense_id(table.base(b))
            for a, b in pairs]


def test_a_set_of_new_pairs_is_interned_as_the_pair_constructor_would():
    # set_from_pair_codes stores the pairs it has not seen in one batch; the
    # table must then look exactly as if each had gone through ``pair``.
    held = {(1, 2), (3, 1)}
    fresh = {(2, 3), (1, 1), (3, 2), (2, 1), (3, 3), (2, 2)}  # one batch
    bulk, single = InternTable(), InternTable()
    for table in (bulk, single):
        for k in (3, 1, 2):
            table.base(k)
        for a, b in sorted(held):
            table.pair(table.base(a), table.base(b))
    misses = bulk.misses
    s = bulk.set_from_pair_codes(_codes(bulk, held | fresh))
    assert bulk.misses == misses + len(fresh) + 1  # the pairs and the set
    want = single.mkset([single.pair(single.base(a), single.base(b))
                         for a, b in held | fresh])
    assert s == want == from_python(held | fresh) and to_python(s) == held | fresh
    for v in s.elements:
        assert bulk.pair(v.fst, v.snd) is v                 # found, not rebuilt
        assert bulk.sort_key_of(v) == single.sort_key_of(single.intern(v))
        assert hash(v) == hash(from_python((v.fst.value, v.snd.value)))
        fid, sid = bulk.pair_parts()[bulk.dense_id(v)]
        assert bulk.value_of(fid) is v.fst and bulk.value_of(sid) is v.snd
        [q] = bulk.pairs_of([(fid << CODE_BITS) | sid])
        assert q is v
    assert bulk.set_from_pair_codes(reversed(_codes(bulk, held | fresh))) is s


def test_a_set_of_new_pairs_past_the_id_limit_leaves_the_table_as_it_was():
    table = InternTable()
    chain = {(k, k + 1) for k in range(6)}  # one batch
    codes = _codes(table, chain)
    size = table.dense_size
    table.id_limit = size + 5  # five of the six pairs would fit
    with pytest.raises(DenseIdLimitError, match=f"limit of {size + 5} "):
        table.set_from_pair_codes(codes)
    assert table.dense_size == size and table.size == size
    del table.id_limit
    assert to_python(table.set_from_pair_codes(codes)) == chain


def test_structural_rules_only_never_touch_recursions():
    """STRUCTURAL_RULES is the opt-out for unverified combiners.

    With the cost-directed rules disabled, even an adversarial combiner that
    could fool the sampled ACU gate is evaluated exactly as the reference
    interpreter evaluates it.
    """
    from repro.engine import STRUCTURAL_RULES

    q = parity_esr_translated()
    eng = Engine(rules=STRUCTURAL_RULES)
    plan = eng.explain(q)
    assert "sri-to-dcr" not in plan.fired_rules
    bits = random_bits(9, seed=1)
    inp = tagged_boolean_set(bits)
    assert eng.run(q, inp) == run(q, inp)


def test_ext_fusion_requires_a_map_shaped_inner_function():
    """Fusing a fanning-out inner ext would multiply applications of f."""
    from repro.nra.ast import Ext, Pair, Singleton
    from repro.engine.rewrite import Rewriter

    fan_out = Lambda("x", BASE, Union(Singleton(Const(from_python(0), BASE)),
                                      Singleton(Const(from_python(1), BASE))))
    f = Lambda("y", BASE, Singleton(Pair(Var("y"), Var("y"))))
    s = Const(from_python({1, 2, 3, 4}), SetType(BASE))
    expr = Apply(Ext(f), Apply(Ext(fan_out), s))
    rewritten, firings = Rewriter().rewrite(expr)
    assert "ext-fusion" not in [fr.rule for fr in firings]
    assert run(expr) == run(rewritten)


@pytest.mark.parametrize("backend", ["reference", "vectorized", "parallel", "auto"])
def test_a_closure_reapplied_per_element_agrees_on_every_backend(backend):
    """A closed function re-evaluated inside an ext body, once per element.

    ``f`` is closed, so every iteration applies the same function to the
    same argument: six equal intermediates that each backend must collapse
    (or recompute) to the reference's value.
    """
    from repro.nra.ast import Ext

    f = Lambda("y", BASE, Singleton(Var("y")))
    body = Apply(f, Const(from_python(0), BASE))
    outer = Lambda("x", BASE, body)
    s = Const(from_python({1, 2, 3, 4, 5, 6}), SetType(BASE))
    expr = Apply(Ext(outer), s)
    eng = Engine(backend=backend)
    try:
        assert eng.run(expr) == run(expr) == from_python({0})
    finally:
        eng.close()


def test_plan_cache_is_structural():
    def build():
        return Lambda("s", SetType(BASE), Union(Var("s"), Var("s")))

    eng = Engine()
    q1, q2 = build(), build()
    assert q1 is not q2 and q1 == q2
    assert eng.explain(q1) is eng.explain(q2)
    eng.clear_plans()
    assert eng.explain(q1) is not None


def test_engine_accepts_plain_python_and_relations():
    q = cardinality_parity_dcr()
    eng = Engine()
    assert to_python(eng.run(q, {1, 2, 3})) is True
    assert to_python(eng.run(q, {1, 2, 3, 4})) is False


# ---------------------------------------------------------------------------
# Input conversion: the explicit protocol (no more .value duck-typing)
# ---------------------------------------------------------------------------

def test_to_value_does_not_hijack_unrelated_value_methods():
    """Regression: any object with a callable ``.value`` used to be treated
    as a Relation.  An unrelated object must go down the plain-data path --
    and fail there, loudly, instead of silently running on garbage."""

    class Sneaky:
        def value(self):
            return 42

    eng = Engine()
    with pytest.raises(TypeError):
        eng.run(cardinality_parity_dcr(), Sneaky())


def test_to_value_conversion_hook():
    """``__nra_value__`` is the documented opt-in for custom containers."""

    class Wrapped:
        def __init__(self, atoms):
            self.atoms = atoms

        def __nra_value__(self):
            return from_python(set(self.atoms))

    eng = Engine()
    assert to_python(eng.run(cardinality_parity_dcr(), Wrapped([1, 2, 3]))) is True


def test_to_value_hook_must_return_a_value():
    class Broken:
        def __nra_value__(self):
            return {"not": "a value"}

    with pytest.raises(TypeError, match="__nra_value__"):
        Engine().run(cardinality_parity_dcr(), Broken())


def test_backend_validation_is_uniform():
    """The constructor and ``explain_plan`` reject unknown backends identically."""
    with pytest.raises(ValueError, match="reference") as ctor:
        Engine(backend="gpu")
    with pytest.raises(ValueError, match="reference") as call:
        Engine().explain_plan(cardinality_parity_dcr(), backend="gpu")
    assert str(ctor.value) == str(call.value)


# ---------------------------------------------------------------------------
# Plan management and warm-engine stats (docstring claims, now asserted)
# ---------------------------------------------------------------------------

def test_explain_plan_without_optimize_compiles_the_raw_expression():
    q = parity_esr_translated()
    eng = Engine(backend="vectorized")
    raw_ops = eng.explain_plan(q, optimize=False).ops()
    opt_ops = eng.explain_plan(q).ops()
    # The rewriter turns the translated esr into a dcr; unoptimized the plan
    # must still show the elementwise sri/esr strategy.
    assert "sri-elementwise" in raw_ops
    assert "dcr-tree" in opt_ops and "sri-elementwise" not in opt_ops


def test_clear_plans_forces_a_fresh_rewrite():
    q = reachable_pairs_query("dcr")
    eng = Engine()
    eng.run(q, path_graph(6))
    assert eng.plan_misses == 1
    eng.run(q, path_graph(6))
    assert (eng.plan_hits, eng.plan_misses) == (1, 1)
    eng.clear_plans()
    eng.run(q, path_graph(6))
    assert eng.plan_misses == 2


def test_warm_engine_reports_zero_compiles():
    """Second run on a warm vectorized engine: last_stats shows no compiles."""
    q = reachable_pairs_query("logloop")
    eng = Engine(backend="vectorized")
    eng.run(q, path_graph(8))
    assert eng.last_stats.compiled_exprs > 0
    eng.run(q, path_graph(8))
    assert eng.last_stats.compiled_exprs == 0
    # And the lifetime counter is monotone and lock-protected.
    assert eng.vectorized_compiles() > 0
    eng.run(q, path_graph(10))
    assert eng.last_stats.compiled_exprs == 0


def test_warm_run_finds_its_compiled_entry_on_the_plan(monkeypatch):
    """Second execute consults the compile cache zero times (so the template
    is hashed once, by the plan cache), still starts a new once-cell run,
    and loses the entry exactly when the plans and the compile cache go."""
    q = reachable_pairs_query("logloop")
    eng = Engine(backend="vectorized")
    want = eng.run(q, path_graph(8))
    compiler = eng._vec().compiler
    lookups = []
    real = compiler.compile
    monkeypatch.setattr(
        compiler, "compile", lambda e, once=False: lookups.append(e) or real(e, once)
    )
    run_before = compiler._run[0]
    assert eng.run(q, path_graph(8)) == want
    assert lookups == []
    assert compiler._run[0] == run_before + 1
    assert eng.run(q, path_graph(8), optimize=False) == want  # no plan: looked up
    assert len(lookups) == 1
    eng.clear_plans()
    assert eng.run(q, path_graph(8)) == want
    assert len(lookups) > 1 and eng.last_stats.compiled_exprs > 0


def test_vectorized_compiles_counter_starts_at_zero():
    eng = Engine()
    assert eng.vectorized_compiles() == 0
