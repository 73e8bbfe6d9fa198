"""The lazy fluent :class:`Query` builder: NRA without AST constructors.

A ``Query`` is a *description* of an NRA expression, built by chaining
combinators off :class:`Q`::

    from repro.api import Q, Row

    two_hop = (Q.coll("edges")
                 .join(Q.coll("edges"),
                       left_key=lambda e: e.snd,
                       right_key=lambda f: f.fst,
                       result=lambda e, f: Row.pair(e.fst, f.snd)))
    reach   = Q.coll("edges").fix()
    from_0  = reach.where(lambda e: e.fst == Q.param("src"))

Nothing is evaluated -- and no AST is even built -- until the query is
**elaborated** against a schema (collection name -> complex object type),
which a :class:`~repro.api.session.Session` does automatically against its
:class:`~repro.api.catalog.Database`.  Elaboration produces a plain
:class:`repro.nra.ast.Expr` whose free variables are the collection names and
the ``$``-prefixed parameter slots; collections and parameters are then
supplied through the evaluation environment, never spliced into the tree.
That split is what makes prepared statements cache: the elaborated
*template* is structurally identical for every parameter binding, so the
engine's rewrite cache and the vectorized compile cache key on it once (see
:mod:`repro.api.prepare`).

Elaboration is cached per schema on the ``Query`` object itself.  Two
queries built by identical chains elaborate to terms that differ in their
generated bound-variable names (and in whatever literals they splice in);
sessions key the engine's caches on
:func:`~repro.api.prepare.canonical_template` of the elaborated term, under
which they are one template, so rebuilding a query per request costs the
elaboration and nothing more.

Combinator callables receive :class:`~repro.api.expr.Row` values (typed
wrappers over element expressions) and return rows; see
:mod:`repro.api.expr`.  The shapes produced are exactly the ones the
vectorized backend's compiler pattern-matches: ``where`` builds the fused
select, ``join`` the hash equi-join nest, ``fix`` the repeated-squaring
``log_loop`` whose inflationary step runs semi-naively.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ..nra import ast
from ..nra.ast import (
    Apply,
    EmptySet,
    Expr,
    If,
    IsEmpty,
    Lambda,
    Singleton,
    Union as UnionE,
    Var,
    fresh_name,
)
from ..nra.derived import (
    bool_not,
    closure,
    ext_apply,
    let,
    nest as nest_expr,
    rel_proj1,
    rel_proj2,
    unnest as unnest_expr,
)
from ..nra.externals import EMPTY_SIGMA, Signature
from ..nra.typecheck import infer
from ..objects.types import BOOL, ProdType, SetType, Type
from ..objects.values import Value, from_python, infer_type
from .expr import Row, RowLike, row_var, to_row

#: Parameter slots elaborate to free variables with this prefix; the prefix
#: cannot collide with user binders (``fresh_name`` uses ``base%N``) or with
#: catalog collection names (validated on registration).
PARAM_PREFIX = "$"

#: A schema: collection / free-variable name -> complex object type.
Schema = dict


def param_var(name: str) -> str:
    """The environment key a parameter named ``name`` binds through."""
    return PARAM_PREFIX + name


class ElabContext:
    """State threaded through one elaboration: schema plus discovered params."""

    def __init__(self, schema: Optional[Schema], sigma: Signature = EMPTY_SIGMA) -> None:
        self.schema: Schema = dict(schema or {})
        self.sigma = sigma
        self.params: dict[str, Type] = {}

    def collection_type(self, name: str, declared: Optional[Type]) -> Type:
        t = self.schema.get(name, declared)
        if t is None:
            raise KeyError(
                f"collection {name!r} has no declared type and is not in the schema"
            )
        if declared is not None and name in self.schema and self.schema[name] != declared:
            raise TypeError(
                f"collection {name!r}: declared type {declared!r} conflicts with "
                f"schema type {self.schema[name]!r}"
            )
        return t

    def declare_param(self, name: str, t: Type) -> None:
        old = self.params.get(name)
        if old is not None and old != t:
            raise TypeError(f"parameter {name!r} used at two types: {old!r} and {t!r}")
        self.params[name] = t

    def type_env(self) -> dict[str, Type]:
        env = dict(self.schema)
        env.update({param_var(n): t for n, t in self.params.items()})
        return env


# Parameter placeholders surface inside user callables, which run while a
# build is in flight; the context they must register their type with is the
# innermost active elaboration.  One stack per thread (elaboration never
# crosses threads).
_ELABORATIONS = threading.local()


def _push_ctx(ctx: ElabContext) -> None:
    stack = getattr(_ELABORATIONS, "stack", None)
    if stack is None:
        stack = _ELABORATIONS.stack = []
    stack.append(ctx)


def _pop_ctx() -> None:
    _ELABORATIONS.stack.pop()


def _current_ctx() -> ElabContext:
    stack = getattr(_ELABORATIONS, "stack", None)
    if not stack:
        raise RuntimeError(
            "Q.param(...) used outside a query elaboration; parameters only "
            "make sense inside Query combinator callables"
        )
    return stack[-1]


class Elaborated:
    """One elaboration result: the template, its type, and its parameter slots."""

    __slots__ = ("expr", "type", "params")

    def __init__(self, expr: Expr, type: Type, params: dict[str, Type]) -> None:
        self.expr = expr
        self.type = type
        self.params = params


#: A combinator callable over one row.
RowFn = Callable[[Row], RowLike]
#: A combinator callable over two rows (join results).
RowFn2 = Callable[[Row, Row], RowLike]


def _elem(t: Type, what: str) -> Type:
    if not isinstance(t, SetType):
        raise TypeError(f"{what} needs a set-typed query, got {t!r}")
    return t.elem


def _edge(t: Type, what: str) -> Type:
    e = _elem(t, what)
    if not isinstance(e, ProdType):
        raise TypeError(f"{what} needs a set of pairs, got element type {e!r}")
    return e


class Query:
    """A lazy query: elaborates to an NRA expression on demand.

    Queries are immutable; every combinator returns a new ``Query``.  The
    elaboration cache is keyed on the schema, so one ``Query`` value reused
    across calls (or prepared once) maps to one template expression and hence
    one engine plan.
    """

    __slots__ = ("_build", "_label", "_elab_cache")

    def __init__(self, build: Callable[[ElabContext], tuple[Expr, Type]], label: str) -> None:
        self._build = build
        self._label = label
        self._elab_cache: dict = {}

    def __repr__(self) -> str:
        return f"<Query {self._label}>"

    @property
    def label(self) -> str:
        return self._label

    # -- elaboration --------------------------------------------------------------

    def elaborate(
        self, schema: Optional[Schema] = None, sigma: Signature = EMPTY_SIGMA
    ) -> Elaborated:
        """Build the NRA template for this query against ``schema`` (cached)."""
        key = (tuple(sorted((schema or {}).items(), key=lambda kv: kv[0])), sigma)
        found = self._elab_cache.get(key)
        if found is not None:
            return found
        ctx = ElabContext(schema, sigma)
        _push_ctx(ctx)
        try:
            expr, t = self._build(ctx)
        finally:
            _pop_ctx()
        result = Elaborated(expr, t, dict(ctx.params))
        self._elab_cache[key] = result
        return result

    def infer_type(
        self, schema: Optional[Schema] = None, sigma: Signature = EMPTY_SIGMA
    ) -> Type:
        """Type check the elaborated template via :func:`repro.nra.typecheck.infer`.

        The builder threads types itself; this re-derives the result type from
        the template alone, so it doubles as a structural validation of the
        elaboration (used by the test suite and ``Session.explain``).
        """
        el = self.elaborate(schema, sigma)
        env = dict(schema or {})
        env.update({param_var(n): t for n, t in el.params.items()})
        t = infer(el.expr, env, sigma)
        if t != el.type:
            raise TypeError(
                f"elaboration type drift: builder says {el.type!r}, "
                f"type checker says {t!r}"
            )
        return t

    # -- element-wise combinators -------------------------------------------------

    def where(self, pred: RowFn) -> "Query":
        """Keep the rows satisfying ``pred`` (the fused-select shape)."""

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            src, t = self._build(ctx)
            et = _elem(t, "where")
            x = fresh_name("w")
            p = to_row(pred(row_var(x, et)))
            if p.type != BOOL:
                raise TypeError(f"where predicate must be boolean, got {p.type!r}")
            body = If(p.expr, Singleton(Var(x)), EmptySet(et))
            return ext_apply(Lambda(x, et, body), src), t

        return Query(build, f"{self._label}.where(...)")

    #: SQL-flavoured alias for :meth:`where`.
    select = where

    def map(self, fn: RowFn) -> "Query":
        """Transform every row (``ext`` of a singleton body: the bulk-map shape)."""

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            src, t = self._build(ctx)
            et = _elem(t, "map")
            x = fresh_name("m")
            out = to_row(fn(row_var(x, et)))
            body = Lambda(x, et, Singleton(out.expr))
            return ext_apply(body, src), SetType(out.type)

        return Query(build, f"{self._label}.map(...)")

    def flat_map(self, fn: Callable[[Row], "Query"]) -> "Query":
        """Map every row to a *query* (a set) and union the results (``ext``)."""

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            src, t = self._build(ctx)
            et = _elem(t, "flat_map")
            x = fresh_name("fm")
            inner = fn(row_var(x, et))
            if not isinstance(inner, Query):
                raise TypeError("flat_map callable must return a Query")
            in_expr, in_t = inner._build(ctx)
            _elem(in_t, "flat_map body")
            return ext_apply(Lambda(x, et, in_expr), src), in_t

        return Query(build, f"{self._label}.flat_map(...)")

    # -- relational combinators ---------------------------------------------------

    def project(self, component: int) -> "Query":
        """Database projection of a set of pairs onto component ``1`` or ``2``."""
        if component not in (1, 2):
            raise ValueError("project component must be 1 or 2")

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            src, t = self._build(ctx)
            et = _edge(t, "project")
            if component == 1:
                return rel_proj1(src, et.fst, et.snd), SetType(et.fst)
            return rel_proj2(src, et.fst, et.snd), SetType(et.snd)

        return Query(build, f"{self._label}.project({component})")

    def union(self, other: "Query") -> "Query":
        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            le, lt = self._build(ctx)
            re, rt = other._build(ctx)
            if lt != rt:
                raise TypeError(f"union of differently-typed queries: {lt!r} vs {rt!r}")
            return UnionE(le, re), lt

        return Query(build, f"({self._label} | {other._label})")

    __or__ = union

    def difference(self, other: "Query") -> "Query":
        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            from ..nra.derived import difference as diff_expr

            le, lt = self._build(ctx)
            re, rt = other._build(ctx)
            if lt != rt:
                raise TypeError(f"difference of differently-typed queries: {lt!r} vs {rt!r}")
            return diff_expr(le, re, _elem(lt, "difference")), lt

        return Query(build, f"({self._label} - {other._label})")

    __sub__ = difference

    def intersect(self, other: "Query") -> "Query":
        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            from ..nra.derived import intersection

            le, lt = self._build(ctx)
            re, rt = other._build(ctx)
            if lt != rt:
                raise TypeError(f"intersection of differently-typed queries: {lt!r} vs {rt!r}")
            return intersection(le, re, _elem(lt, "intersect")), lt

        return Query(build, f"({self._label} & {other._label})")

    __and__ = intersect

    def cross(self, other: "Query") -> "Query":
        """Cartesian product: pairs of one row from each side."""

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            from ..nra.derived import cartesian

            le, lt = self._build(ctx)
            re, rt = other._build(ctx)
            a, b = _elem(lt, "cross"), _elem(rt, "cross")
            return cartesian(le, re, a, b), SetType(ProdType(a, b))

        return Query(build, f"({self._label} x {other._label})")

    def join(
        self,
        other: "Query",
        left_key: RowFn,
        right_key: RowFn,
        result: Optional[RowFn2] = None,
    ) -> "Query":
        """Equi-join on ``left_key(l) = right_key(r)``.

        Elaborates to the nested ``ext``/``if``-equality shape the vectorized
        compiler turns into a hash join; every other backend evaluates it as
        the nested loop it literally is.  ``result`` defaults to the pair of
        the matching rows.
        """
        if result is None:
            result = Row.pair

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            le, lt = self._build(ctx)
            re, rt = other._build(ctx)
            a, b = _elem(lt, "join"), _elem(rt, "join")
            p, q = fresh_name("jl"), fresh_name("jr")
            lk = to_row(left_key(row_var(p, a)))
            rk = to_row(right_key(row_var(q, b)))
            if lk.type != rk.type:
                raise TypeError(f"join keys disagree: {lk.type!r} vs {rk.type!r}")
            out = to_row(result(row_var(p, a), row_var(q, b)))
            inner_body = If(
                ast.Eq(lk.expr, rk.expr), Singleton(out.expr), EmptySet(out.type)
            )
            inner = ext_apply(Lambda(q, b, inner_body), re)
            return ext_apply(Lambda(p, a, inner), le), SetType(out.type)

        return Query(build, f"{self._label}.join({other._label})")

    def compose(self, other: "Query") -> "Query":
        """Relation composition ``self o other`` of binary relations."""
        return self.join(
            other,
            left_key=lambda e: e.snd,
            right_key=lambda f: f.fst,
            result=lambda e, f: Row.pair(e.fst, f.snd),
        )

    # -- nesting ------------------------------------------------------------------

    def nest(self) -> "Query":
        """Group a set of pairs on the first component: ``{s x t} -> {s x {t}}``."""

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            src, t = self._build(ctx)
            et = _edge(t, "nest")
            return nest_expr(src, et.fst, et.snd), SetType(
                ProdType(et.fst, SetType(et.snd))
            )

        return Query(build, f"{self._label}.nest()")

    def unnest(self) -> "Query":
        """Flatten a grouped second column: ``{s x {t}} -> {s x t}``."""

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            src, t = self._build(ctx)
            et = _edge(t, "unnest")
            if not isinstance(et.snd, SetType):
                raise TypeError(f"unnest needs element type s x {{t}}, got {et!r}")
            return unnest_expr(src, et.fst, et.snd.elem), SetType(
                ProdType(et.fst, et.snd.elem)
            )

        return Query(build, f"{self._label}.unnest()")

    # -- recursion ----------------------------------------------------------------

    def fix(self) -> "Query":
        """Transitive closure by repeated squaring (Example 7.1's ``log_loop``).

        The step ``rr -> rr U rr o rr`` is provably inflationary, so the
        vectorized backend runs it semi-naively; the source is ``let``-bound
        to keep the template linear in the input expression.  A materialized
        view maintains the equal linear closure ``rr -> rr U rr o src``
        instead (:func:`repro.nra.derived.seeded_closure`).
        """

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            src, t = self._build(ctx)
            et = _edge(t, "fix")
            if et.fst != et.snd:
                raise TypeError(f"fix needs a homogeneous binary relation, got {et!r}")
            r = fresh_name("fx")
            return let(r, t, src, closure(Var(r), et.fst)), t

        return Query(build, f"{self._label}.fix()")

    # -- scalars ------------------------------------------------------------------

    def exists(self) -> "Query":
        """``not empty(q)``: a boolean query."""

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            src, t = self._build(ctx)
            _elem(t, "exists")
            return bool_not(IsEmpty(src)), BOOL

        return Query(build, f"{self._label}.exists()")

    def is_empty(self) -> "Query":
        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            src, t = self._build(ctx)
            _elem(t, "is_empty")
            return IsEmpty(src), BOOL

        return Query(build, f"{self._label}.is_empty()")

    def contains(self, item: RowLike) -> "Query":
        """Membership test of a literal / parameter row."""

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            from ..nra.derived import member

            src, t = self._build(ctx)
            et = _elem(t, "contains")
            row = to_row(item)
            return member(row.expr, src, et), BOOL

        return Query(build, f"{self._label}.contains(...)")

    # -- escape hatch -------------------------------------------------------------

    def pipe(self, fn: Expr) -> "Query":
        """Apply a ready-made NRA function expression (e.g. the paper library).

        ``fn`` must be a unary function expression (a ``Lambda`` or a
        recursion combinator); its argument type is taken from the builder's
        knowledge of this query and its result type from the type checker.
        """

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            from ..nra.typecheck import FunType

            src, t = self._build(ctx)
            ft = infer(fn, ctx.type_env(), ctx.sigma)
            if not isinstance(ft, FunType):
                raise TypeError(f"pipe needs a function expression, got type {ft!r}")
            if ft.arg != t:
                raise TypeError(
                    f"pipe argument mismatch: query has type {t!r}, "
                    f"function wants {ft.arg!r}"
                )
            return Apply(fn, src), ft.result

        return Query(build, f"{self._label}.pipe(...)")


class _ParamPlaceholder:
    """``Q.param(name)``: a typed slot filled through the environment at run time.

    Usable wherever a :class:`Row` is (predicates, join keys, map bodies): it
    elaborates to the free variable ``$name``, never to a constant, which is
    what keeps prepared templates binding-independent.
    """

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: Type) -> None:
        if not name or name.startswith(PARAM_PREFIX):
            raise ValueError(f"invalid parameter name {name!r}")
        self.name = name
        self.type = type

    def __as_row__(self) -> Row:
        ctx = _current_ctx()
        ctx.declare_param(self.name, self.type)
        return Row(Var(param_var(self.name)), self.type)

    # Let placeholders sit on either side of a comparison inside predicates.
    def __eq__(self, other: object) -> Row:  # type: ignore[override]
        return self.__as_row__().eq(other)  # type: ignore[arg-type]

    def __ne__(self, other: object) -> Row:  # type: ignore[override]
        return self.__as_row__().eq(other).not_()  # type: ignore[arg-type]

    __hash__ = None  # type: ignore[assignment]

    @property
    def fst(self) -> Row:
        return self.__as_row__().fst

    @property
    def snd(self) -> Row:
        return self.__as_row__().snd

    def __repr__(self) -> str:
        return f"<param {self.name} : {self.type!r}>"


class Q:
    """The entry points of the fluent builder (a namespace, not instantiable)."""

    def __init__(self) -> None:
        raise TypeError("Q is a namespace; use its classmethods")

    @staticmethod
    def coll(name: str, type: Optional[Type] = None) -> Query:
        """A named collection, typed by the session's database schema.

        Pass ``type`` to use the query without a schema (ad-hoc runs against
        plain values through ``Session.execute(..., bind={name: value})`` or
        the engine's ``env``).
        """

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            t = ctx.collection_type(name, type)
            _elem(t, f"collection {name!r}")
            return Var(name), t

        return Query(build, f"coll({name!r})")

    @staticmethod
    def param(name: str, type: Optional[Type] = None) -> _ParamPlaceholder:
        """A named parameter slot; binds through ``execute(params={name: ...})``.

        The type defaults to the base type ``D`` (atoms); pass the complex
        object type explicitly for set- or pair-valued parameters.
        """
        from ..objects.types import BASE

        return _ParamPlaceholder(name, BASE if type is None else type)

    @staticmethod
    def const(value, type: Optional[Type] = None) -> Query:
        """A literal set query from python data or a ready value."""
        v = value if isinstance(value, Value) else from_python(value)
        t = type if type is not None else infer_type(v)
        if not isinstance(t, SetType):
            raise TypeError(f"Q.const needs set-valued data, got type {t!r}")

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            return ast.Const(v, t), t

        return Query(build, "const(...)")

    @staticmethod
    def raw(expr: Expr, type: Type) -> Query:
        """Wrap an existing NRA expression (the paper-mapping escape hatch)."""

        def build(ctx: ElabContext) -> tuple[Expr, Type]:
            return expr, type

        return Query(build, "raw(...)")
