"""Property tests for the optimizing engine: rewrite + execution soundness.

A seeded-random generator produces closed, well-typed NRA expressions (sets of
atoms, pairs, booleans, ``ext`` maps/filters, conditionals, and
divide-and-conquer/insert recursions with well-behaved combiners).  For every
generated expression the optimized engine -- full rewriting, interning and
the vectorized executor -- must produce exactly the value the reference interpreter does,
and the rewritten expression must type-check to the same type.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine.rewrite import Rewriter
from repro.nra.ast import (
    Apply,
    BoolConst,
    Const,
    Dcr,
    EmptySet,
    Eq,
    Esr,
    Ext,
    If,
    IsEmpty,
    Lambda,
    Pair,
    Proj1,
    Proj2,
    Singleton,
    Union,
    Var,
    fresh_name,
)
from repro.nra.eval import run
from repro.nra.typecheck import infer
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, from_python

SET_T = SetType(BASE)


def _random_base(rng: random.Random, depth: int):
    """A closed expression of type D."""
    if depth <= 0 or rng.random() < 0.4:
        return Const(BaseVal(rng.randrange(8)), BASE)
    choice = rng.randrange(3)
    if choice == 0:
        return Proj1(Pair(_random_base(rng, depth - 1), _random_base(rng, depth - 1)))
    if choice == 1:
        return Proj2(Pair(_random_base(rng, depth - 1), _random_base(rng, depth - 1)))
    return If(_random_bool(rng, depth - 1), _random_base(rng, depth - 1), _random_base(rng, depth - 1))


def _random_bool(rng: random.Random, depth: int):
    """A closed expression of type B."""
    if depth <= 0 or rng.random() < 0.35:
        return BoolConst(rng.random() < 0.5)
    choice = rng.randrange(3)
    if choice == 0:
        return Eq(_random_base(rng, depth - 1), _random_base(rng, depth - 1))
    if choice == 1:
        return IsEmpty(_random_set(rng, depth - 1))
    return If(_random_bool(rng, depth - 1), _random_bool(rng, depth - 1), _random_bool(rng, depth - 1))


def _random_unary_set_fn(rng: random.Random, depth: int) -> Lambda:
    """A function D -> {D} usable under ext (map / filter / constant shapes)."""
    x = fresh_name("g")
    shape = rng.randrange(4)
    if shape == 0:  # singleton of the element: the identity under ext
        body = Singleton(Var(x))
    elif shape == 1:  # constant set
        body = _random_set(rng, depth - 1)
    elif shape == 2:  # filter on a random predicate
        body = If(
            Eq(Var(x), _random_base(rng, depth - 1)),
            Singleton(Var(x)),
            EmptySet(BASE),
        )
    else:  # two-element fan-out
        body = Union(Singleton(Var(x)), Singleton(_random_base(rng, depth - 1)))
    return Lambda(x, BASE, body)


def _random_set(rng: random.Random, depth: int):
    """A closed expression of type {D}."""
    if depth <= 0 or rng.random() < 0.3:
        n = rng.randrange(4)
        return Const(from_python({rng.randrange(8) for _ in range(n)}), SET_T)
    choice = rng.randrange(6)
    if choice == 0:
        return EmptySet(BASE)
    if choice == 1:
        return Singleton(_random_base(rng, depth - 1))
    if choice == 2:
        return Union(_random_set(rng, depth - 1), _random_set(rng, depth - 1))
    if choice == 3:
        return If(_random_bool(rng, depth - 1), _random_set(rng, depth - 1), _random_set(rng, depth - 1))
    if choice == 4:
        return Apply(Ext(_random_unary_set_fn(rng, depth)), _random_set(rng, depth - 1))
    # A well-behaved recursion: union-fold (dcr) or its Prop 2.1 esr image.
    seed = EmptySet(BASE)
    x = fresh_name("r")
    item = Lambda(x, BASE, Singleton(Var(x)))
    p = fresh_name("u")
    combine = Lambda(p, ProdType(SET_T, SET_T), Union(Proj1(Var(p)), Proj2(Var(p))))
    arg = _random_set(rng, depth - 1)
    if rng.random() < 0.5:
        return Apply(Dcr(seed, item, combine), arg)
    z = fresh_name("z")
    step = Lambda(
        z,
        ProdType(BASE, SET_T),
        Apply(combine, Pair(Apply(item, Proj1(Var(z))), Proj2(Var(z)))),
    )
    return Apply(Esr(seed, step), arg)


def _random_expr(seed: int):
    rng = random.Random(seed)
    kind = rng.randrange(3)
    depth = rng.randrange(2, 5)
    if kind == 0:
        return _random_set(rng, depth)
    if kind == 1:
        return _random_bool(rng, depth)
    return Pair(_random_set(rng, depth - 1), _random_base(rng, depth - 1))


class TestRewriteSoundness:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_optimized_engine_matches_reference(self, seed):
        expr = _random_expr(seed)
        assert Engine().run(expr) == run(expr)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_rewriting_alone_preserves_reference_semantics(self, seed):
        expr = _random_expr(seed)
        rewritten, _ = Rewriter().rewrite(expr)
        assert run(rewritten) == run(expr)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_rewriting_preserves_the_type(self, seed):
        expr = _random_expr(seed)
        rewritten, _ = Rewriter().rewrite(expr)
        assert infer(rewritten) == infer(expr)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_engine_run_is_deterministic_across_engines(self, seed):
        expr = _random_expr(seed)
        assert Engine().run(expr) == Engine().run(expr)
