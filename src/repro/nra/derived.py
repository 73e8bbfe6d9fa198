"""Derived operators of the nested relational algebra.

Section 3 of the paper notes that NRA "is powerful enough to express the
following functions: set difference, set intersection, cartesian product,
database projections, equalities at all types, selections over predicates
definable in the language, nest and unnest".  This module provides exactly
those derivations as *expression builders*: each function assembles an NRA
syntax tree from given subexpressions, so everything downstream (the type
checker, both evaluators, the circuit compiler) sees only the core constructs.

Builders that introduce a bound variable take the element type(s) explicitly,
since NRA is explicitly typed at binders.  Naming convention: builders take
and return :class:`repro.nra.ast.Expr` values; nothing here evaluates
anything.
"""

from __future__ import annotations

from typing import Optional

from ..objects.types import ProdType, SetType, Type
from .ast import (
    Apply,
    BoolConst,
    EmptySet,
    Eq,
    Expr,
    Ext,
    If,
    IsEmpty,
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
    free_variables,
    fresh_name,
)


# ---------------------------------------------------------------------------
# Booleans
# ---------------------------------------------------------------------------

def bool_not(e: Expr) -> Expr:
    """Boolean negation, via the conditional."""
    return If(e, BoolConst(False), BoolConst(True))


def bool_and(a: Expr, b: Expr) -> Expr:
    """Boolean conjunction, via the conditional (short-circuiting on ``a``)."""
    return If(a, b, BoolConst(False))


def bool_or(a: Expr, b: Expr) -> Expr:
    """Boolean disjunction, via the conditional."""
    return If(a, BoolConst(True), b)


def not_empty(s: Expr) -> Expr:
    """``not empty(s)``: the set is inhabited."""
    return bool_not(IsEmpty(s))


# ---------------------------------------------------------------------------
# Mapping, filtering and membership
# ---------------------------------------------------------------------------

def ext_apply(f: Lambda, s: Expr) -> Expr:
    """``ext(f)(s)``: map ``f`` (returning sets) over ``s`` and union the results."""
    return Apply(Ext(f), s)


def smap(f: Lambda, s: Expr) -> Expr:
    """Map a function ``f : s -> t`` over a set: ``ext(\\x. {f(x)})(s)``."""
    x = fresh_name("m")
    singleton_f = Lambda(x, f.var_type, Singleton(Apply(f, Var(x))))
    return ext_apply(singleton_f, s)


def select(pred: Lambda, s: Expr) -> Expr:
    """Selection: keep the elements satisfying the definable predicate ``pred``."""
    x = fresh_name("sel")
    body = If(Apply(pred, Var(x)), Singleton(Var(x)), EmptySet(pred.var_type))
    return ext_apply(Lambda(x, pred.var_type, body), s)


def member(x: Expr, s: Expr, elem_type: Type) -> Expr:
    """Membership test ``x in s``, via an emptiness check of a selection."""
    y = fresh_name("mem")
    matches = ext_apply(
        Lambda(
            y,
            elem_type,
            If(Eq(Var(y), x), Singleton(Var(y)), EmptySet(elem_type)),
        ),
        s,
    )
    return not_empty(matches)


def flatten(ss: Expr, elem_type: Type) -> Expr:
    """Flatten a set of sets: ``ext(\\s. s)(ss)``."""
    x = fresh_name("fl")
    return ext_apply(Lambda(x, SetType(elem_type), Var(x)), ss)


# ---------------------------------------------------------------------------
# The relational operations of Section 3
# ---------------------------------------------------------------------------

def intersection(s1: Expr, s2: Expr, elem_type: Type) -> Expr:
    """Set intersection ``s1 n s2``."""
    x = fresh_name("int")
    body = If(member(Var(x), s2, elem_type), Singleton(Var(x)), EmptySet(elem_type))
    return ext_apply(Lambda(x, elem_type, body), s1)


def difference(s1: Expr, s2: Expr, elem_type: Type) -> Expr:
    """Set difference ``s1 \\ s2``."""
    x = fresh_name("dif")
    body = If(member(Var(x), s2, elem_type), EmptySet(elem_type), Singleton(Var(x)))
    return ext_apply(Lambda(x, elem_type, body), s1)


def cartesian(s1: Expr, s2: Expr, t1: Type, t2: Type) -> Expr:
    """Cartesian product ``s1 x s2``."""
    x = fresh_name("cx")
    y = fresh_name("cy")
    inner = ext_apply(Lambda(y, t2, Singleton(Pair(Var(x), Var(y)))), s2)
    return ext_apply(Lambda(x, t1, inner), s1)


def rel_proj1(r: Expr, t1: Type, t2: Type) -> Expr:
    """Database projection ``Pi_1`` of a binary relation: the set of first components."""
    p = fresh_name("p1")
    return ext_apply(Lambda(p, ProdType(t1, t2), Singleton(Proj1(Var(p)))), r)


def rel_proj2(r: Expr, t1: Type, t2: Type) -> Expr:
    """Database projection ``Pi_2`` of a binary relation: the set of second components."""
    p = fresh_name("p2")
    return ext_apply(Lambda(p, ProdType(t1, t2), Singleton(Proj2(Var(p)))), r)


def field_of(r: Expr, t1: Type, t2: Type) -> Expr:
    """``Pi_1(r) U Pi_2(r)``: all values mentioned by a binary relation over one type.

    Only meaningful when ``t1 == t2``; this is the ``v`` of Example 7.1.
    """
    if t1 != t2:
        raise ValueError("field_of requires a homogeneous binary relation")
    return Union(rel_proj1(r, t1, t2), rel_proj2(r, t1, t2))


def match_field_of(e: Expr) -> Optional[Expr]:
    """The inverse of :func:`field_of`: ``r`` iff ``e`` is ``field_of(r, t, t)``.

    Up to the names of bound variables, and nothing looser.
    """
    if not (
        isinstance(e, Union)
        and isinstance(e.left, Apply)
        and isinstance(e.left.func, Ext)
        and isinstance(e.left.func.func, Lambda)
    ):
        return None
    r, t = e.left.arg, e.left.func.func.var_type
    if not (isinstance(t, ProdType) and t.fst == t.snd):
        return None
    return r if alpha_equal(e, field_of(r, t.fst, t.snd)) else None


def compose(r1: Expr, r2: Expr, t: Type, stream_right: bool = False) -> Expr:
    """Relation composition ``r1 o r2`` of binary relations over ``t``.

    ``{(x, z) | (x, y) in r1, (y, z) in r2}`` -- the join used by the
    repeated-squaring transitive closure of Example 7.1.  The outer ``ext``
    ranges over ``r1`` (or over ``r2`` with ``stream_right``): the same
    relation either way, but the set-at-a-time backends stream the outer
    source and index the inner one.
    """
    rel_t = ProdType(t, t)
    p = fresh_name("cp")
    q = fresh_name("cq")
    body = If(
        Eq(Proj2(Var(p)), Proj1(Var(q))),
        Singleton(Pair(Proj1(Var(p)), Proj2(Var(q)))),
        EmptySet(rel_t),
    )
    if stream_right:
        return ext_apply(Lambda(q, rel_t, ext_apply(Lambda(p, rel_t, body), r1)), r2)
    return ext_apply(Lambda(p, rel_t, ext_apply(Lambda(q, rel_t, body), r2)), r1)


def match_compose(e: Expr) -> Optional[tuple[Expr, Expr, Type, bool]]:
    """The inverse of :func:`compose`: ``(r1, r2, base, stream_right)`` iff
    ``e`` is ``compose(r1, r2, base, stream_right)``.

    Up to the names of bound variables, and nothing looser: an inner source
    that reads the outer element is a correlated join, not a composition.
    """
    if not (isinstance(e, Apply) and isinstance(e.func, Ext)
            and isinstance(e.func.func, Lambda)):
        return None
    outer = e.func.func
    inner = outer.body
    t = outer.var_type
    if not (isinstance(t, ProdType) and t.fst == t.snd and isinstance(inner, Apply)
            and isinstance(inner.func, Ext)):
        return None
    for stream_right in (False, True):
        r1, r2 = (inner.arg, e.arg) if stream_right else (e.arg, inner.arg)
        if alpha_equal(e, compose(r1, r2, t.fst, stream_right)):
            return r1, r2, t.fst, stream_right
    return None


def closure(r: Expr, base: Type) -> Expr:
    """Transitive closure of ``r : {base x base}`` by repeated squaring.

    Example 7.1: ``log_loop(\\rr. rr U rr o rr)(Pi_1(r) U Pi_2(r), r)`` --
    ``ceil(log(n+1))`` squarings over the ``n`` nodes ``r`` mentions.  ``r``
    occurs three times (twice under ``field_of``, once as the start value).
    The reference interpreter evaluates each occurrence; the vectorized
    compiler evaluates a computed ``r`` once per run where it feeds a kernel
    (the two projections of ``field_of`` share one once-cell) and once more
    as the start value, so ``Query.fix()`` still ``let``-binds a non-trivial
    source.
    """
    rel_t = SetType(ProdType(base, base))
    step = Lambda("rr", rel_t, Union(Var("rr"), compose(Var("rr"), Var("rr"), base)))
    return Apply(LogLoop(step, base), Pair(field_of(r, base, base), r))


def match_closure(e: Expr) -> Optional[tuple[Expr, Type]]:
    """The inverse of :func:`closure`: ``(r, base)`` iff ``e`` is ``closure(r, base)``.

    Up to the names of bound variables, and nothing looser: a different
    cardinality argument, step or iterator is not a closure.
    """
    if not (isinstance(e, Apply) and isinstance(e.func, LogLoop) and isinstance(e.arg, Pair)):
        return None
    r, base = e.arg.snd, e.func.set_elem_type
    return (r, base) if alpha_equal(e, closure(r, base)) else None


def seeded_closure(r: Expr, nodes: Expr, seed: Expr, base: Type, backward: bool = False) -> Expr:
    """The part of ``closure(r)`` grown from ``seed``, one edge per round.

    ``loop(\\rr. rr U rr o r)(nodes, seed)`` -- or ``rr U r o rr`` when
    ``backward`` -- with ``nodes`` the ``field_of(r)`` that bounds the rounds.
    For ``seed`` the tuples of ``r`` whose first (resp. second) column
    satisfies a predicate this is exactly the tuples of the closure whose
    first (resp. second) column does: the linear iterator's ``n`` rounds
    reach every path the logarithmic one's ``ceil(log(n+1))`` squarings do.
    The accumulator is the outer source of the join in both directions, so a
    semi-naive backend streams the frontier and probes an index on ``r``.
    ``seeded_closure(r, field_of(r), r)`` is ``closure(r)`` itself, grown
    linearly: what a materialized view maintains for a ``fix()``.
    """
    acc = "rr" if "rr" not in free_variables(r) else fresh_name("rr")
    grown = (
        compose(r, Var(acc), base, stream_right=True)
        if backward
        else compose(Var(acc), r, base)
    )
    step = Lambda(acc, SetType(ProdType(base, base)), Union(Var(acc), grown))
    return Apply(Loop(step, base), Pair(nodes, seed))


def match_seeded_closure(e: Expr) -> Optional[tuple[Expr, Expr, Type, bool]]:
    """The inverse of :func:`seeded_closure` over its relation's own field:
    ``(r, seed, base, backward)`` iff ``e`` is ``seeded_closure(r,
    field_of(r), seed, base, backward)``.

    Up to the names of bound variables, and nothing looser.  This is the
    bounded loop whose budget is a theorem at every value of its free
    variables: ``|field_of(r)|`` rounds reach every simple path of ``r`` from
    every seed, so the budget follows ``r`` and the seed wherever they go.
    """
    if not (isinstance(e, Apply) and isinstance(e.func, Loop) and isinstance(e.arg, Pair)):
        return None
    r = match_field_of(e.arg.fst)
    if r is None:
        return None
    seed, base = e.arg.snd, e.func.set_elem_type
    for backward in (False, True):
        if alpha_equal(e, seeded_closure(r, field_of(r, base, base), seed, base, backward)):
            return r, seed, base, backward
    return None


def nest(r: Expr, t1: Type, t2: Type) -> Expr:
    """Nest a binary relation on its first column: ``{s x t} -> {s x {t}}``.

    Each first-component value ``a`` is paired with the set of second
    components it is related to.  Duplicate groups collapse because sets are
    canonical.

    ``r`` occurs twice, the second time under the binder of the first: the
    calculus has no ``let``.  The reference interpreter therefore evaluates
    ``r`` once more per row and scans it for each group, O(|r| * cost(r) +
    |r|^2).  The vectorized compiler recognises the term as written (no
    rewrite, no ``let``) as a grouped map: a computed ``r`` is evaluated once
    per run (both occurrences share a once-cell) and one pass over the
    ``(r, pi1)`` index builds each group once per distinct key,
    O(cost(r) + |r|).
    """
    rel_t = ProdType(t1, t2)
    p = fresh_name("np")
    q = fresh_name("nq")
    group = ext_apply(
        Lambda(
            q,
            rel_t,
            If(Eq(Proj1(Var(q)), Proj1(Var(p))), Singleton(Proj2(Var(q))), EmptySet(t2)),
        ),
        r,
    )
    return ext_apply(Lambda(p, rel_t, Singleton(Pair(Proj1(Var(p)), group))), r)


def unnest(r: Expr, t1: Type, t2: Type) -> Expr:
    """Unnest ``{s x {t}} -> {s x t}``: flatten the grouped second column.

    Two nested ``ext``, one parallel step; the vectorized compiler runs the
    term as written as one flattening pass over id columns.
    """
    nested_t = ProdType(t1, SetType(t2))
    p = fresh_name("up")
    y = fresh_name("uy")
    inner = ext_apply(Lambda(y, t2, Singleton(Pair(Proj1(Var(p)), Var(y)))), Proj2(Var(p)))
    return ext_apply(Lambda(p, nested_t, inner), r)


def subset(s1: Expr, s2: Expr, elem_type: Type) -> Expr:
    """``s1 subseteq s2``: the difference ``s1 \\ s2`` is empty."""
    return IsEmpty(difference(s1, s2, elem_type))


def set_equal(s1: Expr, s2: Expr, elem_type: Type) -> Expr:
    """Extensional equality of sets, as mutual inclusion.

    The primitive :class:`repro.nra.ast.Eq` already decides equality at all
    types on canonical values; this derived form shows it is definable from
    equality at the element type alone, as the paper asserts.
    """
    return bool_and(subset(s1, s2, elem_type), subset(s2, s1, elem_type))


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------

def let(var: str, var_type: Type, value: Expr, body: Expr) -> Expr:
    """``let var = value in body`` as a beta-redex."""
    return Apply(Lambda(var, var_type, body), value)


def pair_with_all(x: Expr, s: Expr, x_type: Type, elem_type: Type) -> Expr:
    """``{(x, y) | y in s}``: tag every element of ``s`` with ``x``."""
    y = fresh_name("tw")
    return ext_apply(Lambda(y, elem_type, Singleton(Pair(x, Var(y)))), s)
