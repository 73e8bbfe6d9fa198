"""The ``seed-closure`` rule: a selection on one column goes through ``fix()``.

Four things are held here:

* the identity, on the **reference interpreter** (no engine involved):
  ``run(rewritten) == run(original)`` over generated digraphs -- cycles,
  self-loops, sinks, the empty relation, a source the graph never mentions --
  for both columns, literal and ``$param`` right-hand sides, plain ``where``
  and ``where(...).map(...)``, and conjunctions of single-column predicates;
* the side conditions: the shapes that merely resemble the idiom and must be
  left alone;
* the trade under the cost semantics of :mod:`repro.nra.cost`, pinned on
  path(16): work down 12x, depth up 2.7x -- the mirror image of
  ``sri-to-dcr``;
* what the vectorized backend makes of the rewritten term (a ``loop`` fed by
  a flat select on the base relation), and that materialized views, which
  keep delta state for the squaring step, are exempt.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Changeset, Q, connect
from repro.engine import Engine
from repro.engine.rewrite import DEFAULT_RULES, VIEW_RULES, Rewriter
from repro.nra.ast import (
    Apply,
    BlogLoop,
    Const,
    EmptySet,
    Eq,
    Ext,
    If,
    Lambda,
    LogLoop,
    Loop,
    Pair,
    Proj1,
    Proj2,
    Singleton,
    Union,
    Var,
    alpha_equal,
    subexpressions,
)
from repro.nra.cost import cost_run
from repro.nra.derived import closure, compose, field_of, match_closure
from repro.nra.errors import NRAEvalError
from repro.nra.eval import run
from repro.objects.types import BASE
from repro.objects.values import from_python
from repro.relational.queries import EDGE_T, REL_T, transitive_closure_logloop
from repro.workloads.databases import graph_database
from repro.workloads.graphs import path_graph

SEED_CLOSURE = [r for r in DEFAULT_RULES if r.name == "seed-closure"]
SCHEMA = {"edges": REL_T}


def fired(expr, rules=None):
    rewritten, firings = Rewriter(rules=rules).rewrite(expr)
    return rewritten, [f.rule for f in firings]


def graph_env(pairs, **params):
    env = {"edges": from_python(set(pairs))}
    env.update({f"${k}": from_python(v) for k, v in params.items()})
    return env


# ---------------------------------------------------------------------------
# (b) the identity, on the reference interpreter
# ---------------------------------------------------------------------------

NODES = st.integers(min_value=0, max_value=5)
DIGRAPHS = st.lists(st.tuples(NODES, NODES), max_size=12)  # self-loops and cycles included


def column(e, which):
    return e.fst if which == 1 else e.snd


def predicates(which, a, b):
    """Single-column predicates over column ``which``: name -> (Row -> Row)."""
    return {
        "literal": lambda e: column(e, which) == a,
        "param": lambda e: column(e, which) == Q.param("x"),
        "flipped": lambda e: Q.param("x") == column(e, which),
        "conjunction": lambda e: (column(e, which) != a).and_(column(e, which) != b),
        "disjunction": lambda e: (column(e, which) == a).or_(column(e, which) == Q.param("x")),
    }


@settings(max_examples=60, deadline=None)
@given(
    pairs=DIGRAPHS,
    which=st.sampled_from([1, 2]),
    pred=st.sampled_from(["literal", "param", "flipped", "conjunction", "disjunction"]),
    mapped=st.booleans(),
    a=st.integers(min_value=0, max_value=7),  # 6 and 7 are never in the graph
    b=NODES,
    x=st.integers(min_value=0, max_value=7),
)
def test_rewritten_equals_original_on_the_reference_interpreter(
    pairs, which, pred, mapped, a, b, x
):
    q = Q.coll("edges").fix().where(predicates(which, a, b)[pred])
    if mapped:
        q = q.map(lambda e: e.snd if which == 1 else e.fst)
    original = q.elaborate(SCHEMA).expr
    rewritten, rules = fired(original)
    assert rules.count("seed-closure") == 1
    assert not any(isinstance(n, LogLoop) for n in subexpressions(rewritten))
    env = graph_env(pairs, x=x)
    assert run(rewritten, env=env) == run(original, env=env)


@settings(max_examples=25, deadline=None)
@given(pairs=DIGRAPHS, a=NODES)
def test_general_body_and_literal_relation(pairs, a):
    """``X`` other than ``{w}`` keeps the original ``ext`` over the seeded loop,
    and a relation that is not a variable is bound once first."""
    keep = Lambda(
        "w", EDGE_T,
        If(Eq(Const(from_python(a), BASE), Proj2(Var("w"))),
           Union(Singleton(Proj1(Var("w"))), Singleton(Proj2(Var("w")))),
           EmptySet(BASE)),
    )
    relation = Const(from_python(set(pairs)), REL_T)
    original = Apply(Ext(keep), closure(relation, BASE))
    rewritten, rules = fired(original, SEED_CLOSURE)
    assert rules == ["seed-closure", "seed-closure"]  # bind, then seed
    assert sum(n == relation for n in subexpressions(rewritten)) == 1
    assert run(rewritten) == run(original)


# ---------------------------------------------------------------------------
# (c) the side conditions
# ---------------------------------------------------------------------------

def selected(source, cond=None):
    cond = Eq(Proj1(Var("w")), Var("$x")) if cond is None else cond
    return Apply(
        Ext(Lambda("w", EDGE_T, If(cond, Singleton(Var("w")), EmptySet(EDGE_T)))),
        source,
    )


def squaring():
    return Lambda("rr", REL_T, Union(Var("rr"), compose(Var("rr"), Var("rr"), BASE)))


R = Var("edges")

NEGATIVES = {
    # log_loop and loop read different round counts off any other set.
    "cardinality argument is not field_of(R)": selected(
        Apply(LogLoop(squaring(), EDGE_T), Pair(R, R))
    ),
    "cardinality argument is the field of another relation": selected(
        Apply(LogLoop(squaring(), BASE), Pair(field_of(Var("other"), BASE, BASE), R))
    ),
    "predicate reads both columns": selected(
        closure(R, BASE), Eq(Proj1(Var("w")), Proj2(Var("w")))
    ),
    "predicate reads the whole row": selected(
        closure(R, BASE), Eq(Var("w"), Var("$row"))
    ),
    "predicate ignores the row": selected(
        closure(R, BASE), Eq(Var("$x"), Var("$y"))
    ),
    "step is not the squaring": selected(
        Apply(
            LogLoop(Lambda("rr", REL_T, Union(Var("rr"), compose(Var("rr"), R, BASE))), BASE),
            Pair(field_of(R, BASE, BASE), R),
        )
    ),
    "step drops the accumulator": selected(
        Apply(
            LogLoop(Lambda("rr", REL_T, compose(Var("rr"), Var("rr"), BASE)), BASE),
            Pair(field_of(R, BASE, BASE), R),
        )
    ),
    "iterator is linear already": selected(
        Apply(Loop(squaring(), BASE), Pair(field_of(R, BASE, BASE), R))
    ),
    "iterator is bounded": selected(
        Apply(BlogLoop(squaring(), R, BASE), Pair(field_of(R, BASE, BASE), R))
    ),
    "else branch is not empty": Apply(
        Ext(Lambda("w", EDGE_T, If(Eq(Proj1(Var("w")), Var("$x")),
                                   Singleton(Var("w")), Singleton(Var("w"))))),
        closure(R, BASE),
    ),
    "binder of a let-bound source is free in the selection": selected(
        Apply(Lambda("$x", REL_T, closure(Var("$x"), BASE)), R)
    ),
}


@pytest.mark.parametrize("why", sorted(NEGATIVES))
def test_rule_does_not_fire(why):
    expr = NEGATIVES[why]
    rewritten, rules = fired(expr, SEED_CLOSURE)
    assert rules == [] and rewritten == expr


def test_match_closure_inverts_both_constructors():
    """The rule fires on what ``Query.fix()`` and the paper library emit."""
    assert match_closure(closure(R, BASE)) == (R, BASE)
    assert match_closure(transitive_closure_logloop().body) == (Var("r"), BASE)
    fix = Q.coll("edges").fix().elaborate(SCHEMA).expr  # let fx = edges in closure(fx)
    assert match_closure(fix.func.body) == (Var(fix.func.var), BASE)
    assert alpha_equal(fix.func.body, closure(Var(fix.func.var), BASE))
    assert fix.func.body != closure(Var(fix.func.var), BASE)  # binder names differ
    assert match_closure(R) is None


def test_alpha_equal_tells_binders_apart():
    x, y = Var("x"), Var("y")
    assert alpha_equal(Lambda("x", BASE, x), Lambda("y", BASE, y))
    assert not alpha_equal(Lambda("x", BASE, y), Lambda("y", BASE, y))  # free vs bound
    assert not alpha_equal(Lambda("x", BASE, x), Lambda("x", REL_T, x))
    nest = lambda a, b, body: Lambda(a, BASE, Lambda(b, BASE, body))
    assert alpha_equal(nest("x", "x", x), nest("x", "y", y))  # shadowing
    assert not alpha_equal(nest("x", "x", x), nest("x", "y", x))
    assert not alpha_equal(nest("x", "y", Pair(x, y)), nest("x", "y", Pair(y, x)))


# ---------------------------------------------------------------------------
# (d) the trade, under the cost semantics
# ---------------------------------------------------------------------------

def test_cost_trade_on_path16():
    """Work 169,001 -> 13,481 down, depth 75 -> 202 up: the opposite of
    ``sri-to-dcr``, and the right side of Brent's bound for p <= 2."""
    reach = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    original = reach.elaborate(SCHEMA).expr
    rewritten, rules = fired(original, SEED_CLOSURE)  # the rule alone
    assert rules == ["seed-closure", "seed-closure"]  # under the let, then seed
    env = {"edges": path_graph(16).value(), "$src": from_python(0)}
    value, before = cost_run(original, env=env)
    seeded, after = cost_run(rewritten, env=env)
    assert seeded == value and len(value) == 15
    assert (before.work, before.depth) == (169_001, 75)
    assert (after.work, after.depth) == (13_481, 202)
    for p in (1, 2):
        assert after.work / p + after.depth < before.work / p + before.depth
    # ...and with enough processors the squaring wins again.
    assert after.depth > before.depth and before.work / 4096 + before.depth < after.depth


# ---------------------------------------------------------------------------
# What the backends make of it
# ---------------------------------------------------------------------------

def test_plan_is_a_loop_fed_by_a_flat_select():
    db = graph_database(12, "path")
    reach = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    with connect(db) as session:
        template = reach.elaborate(db.schema()).expr
        assert session.engine.explain(template).rule_counts["seed-closure"] == 1
        plan = session.engine.explain_plan(template)
        kinds = [n.detail for n in plan.walk() if n.op == "loop-seminaive"]
        assert "loop" in kinds and "logloop" not in kinds
        (select,) = [n for n in plan.walk() if n.op == "select"]
        assert "flat-columns" in select.annotations
        assert [c.detail for c in select.children if c.op == "var"][0] == "edges"
        statement = session.prepare(reach)
        assert statement.execute(src=4).rows() == frozenset((4, j) for j in range(5, 12))
        stats = session.engine.last_stats
        assert stats.flat_selects == 1 and stats.flat_fallbacks == 0
        assert statement.execute(src=99).rows() == frozenset()


@pytest.mark.parametrize("backend", ["reference", "vectorized", "parallel", "auto"])
def test_every_backend_runs_the_rewritten_term(backend):
    edges = {(0, 1), (1, 2), (2, 0), (2, 3), (4, 4), (5, 3)}
    reach = Q.coll("edges").fix().where(lambda e: e.snd == Q.param("dst")).map(lambda e: e.fst)
    template = reach.elaborate(SCHEMA).expr
    env = graph_env(edges, dst=3)
    engine = Engine(backend=backend)
    try:
        assert engine.run(template, env=env) == run(template, env=env)
        assert "seed-closure" in engine.explain(template).fired_rules
    finally:
        engine.close()


def test_flat_select_against_an_unbound_or_function_variable_falls_back():
    """The run-time id lookup fails exactly as the literal case does: the
    object kernel takes over and raises (or answers) canonically."""
    engine = Engine(backend="vectorized")
    env = graph_env({(0, 1), (1, 2)})
    with pytest.raises(NRAEvalError, match="unbound variable"):
        engine.run(selected(R), env=env)
    not_a_value = dict(env)
    not_a_value["$x"] = engine._vec().evaluate(Lambda("z", BASE, Var("z")))
    with pytest.raises(NRAEvalError):
        engine.run(selected(R), env=not_a_value)


# ---------------------------------------------------------------------------
# Views keep the squaring template
# ---------------------------------------------------------------------------

@pytest.mark.ivm
def test_view_over_selected_closure_stays_in_delta_mode():
    assert [r.name for r in DEFAULT_RULES if r not in VIEW_RULES] == ["seed-closure"]
    db = graph_database(10, "path", mutable=True)
    query = Q.coll("edges").fix().where(lambda e: e.fst == 2)
    with connect(db) as session:
        view = session.materialize(query)
        assert "ivm-fixpoint" in view.maintenance_plan().ops()
        assert "ivm-recompute" not in view.maintenance_plan().ops()
        db.apply(Changeset.of(edges=([(9, 0), (4, 7)], [])))
        assert view.value == session.execute(query).value
        assert (2, 1) in view.rows()  # through the new back edge
        db.apply(Changeset.of(edges=([], [(4, 5), (9, 0)])))
        assert view.value == session.execute(query).value
        assert view.rows() == frozenset({(2, 3), (2, 4), (2, 7), (2, 8), (2, 9)})
        assert view.stats.delta_applies == 2
        assert view.stats.fallback_recomputes == 0
        # The query path, meanwhile, is seeded -- and explain's incremental
        # view shows what the view maintains, not what a query runs.
        template = query.elaborate(db.schema()).expr
        assert "seed-closure" in session.engine.explain(template).fired_rules
        ivm = session.engine.explain_plan(template, backend="incremental")
        assert "ivm-recompute" not in ivm.ops()
