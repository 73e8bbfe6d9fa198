"""Property tests for the set-at-a-time backend.

Three families:

* **Compiler soundness** -- the seeded-random closed-expression generator of
  ``test_engine_properties`` drives the vectorized evaluator against the
  reference interpreter: whatever strategies the compiler picks, the value
  must be identical (with and without the rewriter in front).

* **Semi-naive exactness** -- seeded-random *monotone* (inflationary,
  union-distributive) loop steps over binary relations: the semi-naive
  frontier execution must agree with full iteration for every step, input
  relation, start value and round count.  The generator is checked to
  actually produce steps the analysis accepts, so the property genuinely
  exercises the frontier path rather than the fallback.

* **Grouped two-hop answers** -- ``nest()`` over two-hop pairs of random
  small adjacency databases equals the reference, and a second run on the
  same engine returns the very set the first built.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_properties import _random_expr

from repro.api import Database, Q, connect
from repro.engine import Engine
from repro.engine.vectorized import VectorizedEvaluator
from repro.nra.ast import (
    Apply,
    BoolConst,
    Const,
    Eq,
    If,
    Lambda,
    LogLoop,
    Loop,
    Pair,
    Proj1,
    Union,
    Var,
)
from repro.nra.derived import compose, select
from repro.nra.eval import run
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import from_python
from repro.relational.queries import REL_T
from repro.workloads.nested_graphs import ADJ_DB_T, two_hop_query

EDGE_T = ProdType(BASE, BASE)


class TestCompilerSoundness:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_vectorized_matches_reference(self, seed):
        expr = _random_expr(seed)
        assert Engine(backend="vectorized").run(expr) == run(expr)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_vectorized_matches_reference_without_rewrites(self, seed):
        expr = _random_expr(seed)
        assert VectorizedEvaluator().run(expr) == run(expr)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_vectorized_is_deterministic(self, seed):
        expr = _random_expr(seed)
        assert Engine(backend="vectorized").run(expr) == Engine(backend="vectorized").run(expr)


# ---------------------------------------------------------------------------
# Random monotone steps: semi-naive == full iteration
# ---------------------------------------------------------------------------

def _random_relation(rng: random.Random, max_nodes: int = 8):
    n = rng.randrange(0, max_nodes)
    pairs = {
        (rng.randrange(max_nodes), rng.randrange(max_nodes))
        for _ in range(rng.randrange(0, 2 * max_nodes))
        if n
    }
    return from_python(frozenset(pairs))


def _random_linear_operand(rng: random.Random, v: str):
    """One union-distributive operand in the loop variable ``v``."""
    kind = rng.randrange(5)
    if kind == 0:  # v o C
        return compose(Var(v), Const(_random_relation(rng), REL_T), BASE)
    if kind == 1:  # C o v
        return compose(Const(_random_relation(rng), REL_T), Var(v), BASE)
    if kind == 2:  # v o v  (the squaring / bilinear case)
        return compose(Var(v), Var(v), BASE)
    if kind == 3:  # a selection over v
        pred = Lambda(
            "e", EDGE_T,
            If(
                Eq(Proj1(Var("e")), Const(from_python(rng.randrange(8)), BASE)),
                BoolConst(True),
                BoolConst(False),
            ),
        )
        return select(pred, Var(v))
    # a loop-invariant constant relation
    return Const(_random_relation(rng), REL_T)


def _random_monotone_step(rng: random.Random) -> Lambda:
    """``\\v. v U op1 U ... U opk`` with union-distributive operands."""
    v = f"v{rng.randrange(10**6)}"
    body = Var(v)
    for _ in range(rng.randrange(1, 4)):
        body = Union(body, _random_linear_operand(rng, v))
    return Lambda(v, REL_T, body)


def _loop_expr(rng: random.Random, step: Lambda):
    loop_cls = Loop if rng.random() < 0.5 else LogLoop
    card = Const(_random_relation(rng), REL_T)
    start = Const(_random_relation(rng), REL_T)
    return Apply(loop_cls(step, EDGE_T), Pair(card, start))


class TestSemiNaiveExactness:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_seminaive_agrees_with_full_iteration(self, seed):
        rng = random.Random(seed)
        step = _random_monotone_step(rng)
        expr = _loop_expr(rng, step)
        ev = VectorizedEvaluator()
        got = ev.run(expr)
        assert got == run(expr)
        # The generator must actually exercise the frontier path.
        assert "loop-seminaive" in ev.plan(expr).ops()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_seminaive_loops_actually_ran_seminaive(self, seed):
        rng = random.Random(seed)
        expr = _loop_expr(rng, _random_monotone_step(rng))
        ev = VectorizedEvaluator()
        ev.run(expr)
        assert ev.stats.full_loops == 0


def test_nonmonotone_random_steps_fall_back():
    """Steps without the self-union are rejected by the analysis."""
    rng = random.Random(7)
    v = "v"
    body = compose(Var(v), Var(v), BASE)  # no `v U ...`: not provably inflationary
    step = Lambda(v, REL_T, body)
    expr = Apply(Loop(step, EDGE_T), Pair(
        Const(_random_relation(rng), REL_T), Const(_random_relation(rng), REL_T)
    ))
    ev = VectorizedEvaluator()
    assert ev.run(expr) == run(expr)
    assert "loop-seminaive" not in ev.plan(expr).ops()


# ---------------------------------------------------------------------------
# Grouped two-hop answers: the second run hits the code-keyed set cache
# ---------------------------------------------------------------------------

_adjacency = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
    max_size=6,
)


class TestGroupedTwoHop:
    @settings(max_examples=40, deadline=None)
    @given(_adjacency)
    def test_nested_two_hop_matches_reference_twice(self, adj):
        value = from_python({(node, succ) for node, succ in adj.items()})
        db = Database("nested").register("adj", value, type=ADJ_DB_T)
        q = Q.coll("adj").pipe(two_hop_query()).nest()
        want = connect(db, backend="reference").execute(q).value
        session = connect(db)
        first = session.execute(q).value
        # The second run materializes every set from codes seen before.
        second = session.execute(q).value
        assert first == want
        assert second is first
