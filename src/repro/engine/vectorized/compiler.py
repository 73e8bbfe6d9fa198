"""The set-at-a-time compiler: NRA expressions to columnar plans.

:class:`PlanCompiler` lowers a (typically rewriter-optimized) NRA expression
to two coupled artefacts: a closure ``env -> denotation`` that evaluates the
expression over interned values, and a :class:`~.plan.PlanNode` tree recording
the whole-set strategy every subexpression was given.  The compiled closure
tree replaces the per-node ``isinstance`` dispatch of the tree-walking
evaluators with direct calls -- compilation happens once per distinct
subexpression, evaluation as often as the expression runs.

Strategy selection, from most to least specialised:

* ``ext``-of-pairing shapes become **bulk kernels**
  (:mod:`repro.engine.vectorized.batch`): a map body ``{out}`` becomes one
  pass + one set construction; a filter body ``if p then {out} else {}``
  becomes a fused select; the nested shape
  ``ext(\\p. ext(\\q. if k1(p) = k2(q) then {out} else {})(s2))(s1)`` -- the
  paper's relation composition, Example 7.1 -- becomes a **hash equi-join**.

* ``loop``/``log_loop`` steps that :func:`repro.engine.shapes.analyze_step`
  proves to be ``\\v. v U F(v)`` with ``F`` union-distributive run
  **semi-naively**: each round re-derives only from the previous round's
  frontier.  The shape's frontier terms are compiled by this same compiler
  (so they get hash joins of their own) or, when they lower to flat joins,
  run as one :class:`~repro.engine.vectorized.flat.FlatLoop`.  The runner
  :meth:`PlanCompiler.step_runner` builds is the one frontier loop
  of the engine.  Every other loop falls back to full
  set-at-a-time iteration with an exact early exit at the fixpoint
  (:func:`repro.recursion.iterators.iterate_stable`).

* ``sri``/``esr`` whose insert ignores the inserted element are iterations in
  disguise (:func:`repro.engine.shapes.insert_as_step`) and reuse the loop
  machinery, frontier evaluation included; ``dcr``/``sru`` with a *constant*
  item function evaluate their combining tree **by cardinality** -- the
  subtree value depends only on the subtree size, so ``Theta(log n)``
  combines replace ``Theta(n)`` -- and everything else delegates to the exact
  element-wise combinators of :mod:`repro.recursion.forms`.

Exactness is part of the contract: every strategy above is a syntactic
theorem about the pure, total object language (no sampled algebraic gates are
involved), so the compiled plan returns value-for-value the reference
interpreter's result even for parameter functions that violate their
recursion's algebraic preconditions.  ``tests/engine/test_vectorized.py`` and
the property suite enforce this.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from ...nra import ast
from ...nra.ast import Expr, free_variables
from ...nra.derived import match_field_of
from ...nra.errors import NRAEvalError
from ...objects.values import PairVal, SetVal, Value
from ...recursion.bounded import ps_intersect_values
from ...recursion.forms import dcr as dcr_combinator, sri as sri_combinator
from ...recursion.iterators import iterate_stable, log_iterations
from ..shapes import (
    StepShape,
    accessor_path,
    analyze_step,
    flat_group_spec,
    flat_out_spec,
    flat_unnest_spec,
    insert_as_step,
    join_paths,
    match_join,
)
from .batch import (
    BatchContext,
    bind,
    bulk_map,
    bulk_select,
    elementwise_ext,
    expect_set,
    flat_group_map,
    flat_join,
    flat_map,
    flat_select,
    flat_unnest,
    hash_join,
    unbind,
    union_all,
)
from .flat import FlatLoop, FlatUnavailable
from .plan import PlanNode, leaf, node
from ...obs.trace import TRACER


class VFunction:
    """A function denotation of the vectorized evaluator."""

    __slots__ = ("name", "call")

    def __init__(self, name: str, call: Callable[[Value], Value]):
        self.name = name
        self.call = call

    def __call__(self, v: Value) -> Value:
        return self.call(v)

    def __repr__(self) -> str:
        return f"<vectorized function {self.name}>"


@dataclass
class Compiled:
    """One compiled subexpression: its plan and its closure."""

    plan: PlanNode
    fn: Callable[[dict], object]
    #: ``fn`` behind a once-per-run cell, set the first time the expression
    #: feeds a kernel (``PlanCompiler._source``).  Every structurally equal
    #: occurrence fetches this ``Compiled`` from the compile cache, so they
    #: all share the one cell.
    once: Optional["OnceCell"] = None


class OnceCell:
    """A kernel source evaluated at most once per run per binding.

    Calling the cell evaluates ``fn(env)`` unless the last successful
    evaluation happened in the same run (``PlanCompiler._run``) with every free
    variable of the source bound to the *same object*: values are interned
    and immutable and the language is pure, so identical bindings give the
    identical value.  Only successful values are kept, and nothing is
    evaluated before a kernel asks, so errors and laziness are the
    reference interpreter's.

    The free variables are not derived until the *second* evaluation in a
    run: the first keeps a copy of the (small) environment instead and the
    second narrows it, so a statement that evaluates each source once never
    pays for the analysis.
    """

    __slots__ = ("run", "expr", "fn", "names", "last")

    def __init__(self, run: list, expr: Expr, fn: Callable[[dict], object]):
        # The compiler's run counter, not the compiler: a cell reachable
        # from the compile cache must not point back at its owner, or a
        # dropped evaluator would wait for the cycle collector.
        self.run = run
        self.expr = expr
        self.fn = fn
        self.names: Optional[tuple[str, ...]] = None
        # (run, value, names, bindings of names), replaced whole: a
        # concurrent reader sees the old cell or the new one, never a mixture.
        self.last: Optional[tuple] = None

    def __call__(self, env: dict):
        run, last = self.run[0], self.last
        if last is not None and last[0] == run:
            names = self.names
            if names is None:
                names = self.names = tuple(free_variables(self.expr))
            if last[2] is not names:
                # Kept under the whole environment of the run's first
                # evaluation: narrow it to the variables that matter.
                seen = dict(zip(last[2], last[3]))
                last = self.last = (run, last[1], names, tuple(map(seen.get, names)))
            for n, v in zip(names, last[3]):
                if env.get(n) is not v:
                    break
            else:
                return last[1]
        value = self.fn(env)
        names = self.names
        if names is None:
            self.last = (run, value, tuple(env), tuple(env.values()))
        else:
            self.last = (run, value, names, tuple(map(env.get, names)))
        return value


def _value(d: object, what: str) -> Value:
    if isinstance(d, Value):
        return d
    raise NRAEvalError(f"{what}: expected a complex object value, got {d!r}")


def _function(d: object, what: str) -> VFunction:
    if isinstance(d, VFunction):
        return d
    raise NRAEvalError(f"{what}: expected a function, got {d!r}")


def _flat_round_event(seconds: float, rnd: int, frontier: int) -> None:
    """A flat loop's round as a ``fixpoint-round`` trace event."""
    TRACER.event("fixpoint-round", seconds, round=rnd, frontier=frontier, flat=True)


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

class PlanCompiler:
    """Compiles NRA expressions to set-at-a-time plans (cached structurally)."""

    def __init__(self, ctx: BatchContext) -> None:
        self.ctx = ctx
        self.it = ctx.interner
        self._cache: dict[Expr, Compiled] = {}
        #: ``[n]``, advanced by every :meth:`compile` call.  Every entry point
        #: fetches its plan through ``compile`` immediately before evaluating
        #: it, so the count names the run a once-cell's value belongs to (a
        #: list because the cells share it, see :class:`OnceCell`).
        self._run = [0]

    # -- entry point --------------------------------------------------------------

    def start_run(self) -> None:
        """A new run begins: what the once-cells hold is no longer current."""
        self._run[0] += 1

    def compile(self, e: Expr, once: bool = False) -> Compiled:
        self.start_run()
        c = self._cache.get(e)
        if c is None:
            if TRACER.enabled:
                with TRACER.span("compile", expr=type(e).__name__):
                    c = self._compile(e)
            else:
                c = self._compile(e)
            if once:  # compiled for a kernel-source position: say so
                p = c.plan
                c.plan = PlanNode(p.op, p.detail, p.children, p.annotations + ("once",))
            profiler = self.ctx.profiler
            if profiler is not None:
                c = Compiled(c.plan, profiler.wrap(c.plan, c.fn))
            self._cache[e] = c
            self.ctx.stats.compiled_exprs += 1
        return c

    def clear_cache(self) -> None:
        """Drop every cached compilation (recompiling is always sound)."""
        self._cache.clear()

    def retain(self, live: set) -> None:
        """Drop the cached compilations of expressions not in ``live``."""
        self._cache = {e: c for e, c in self._cache.items() if e in live}

    # -- dispatch -----------------------------------------------------------------

    def _compile(self, e: Expr) -> Compiled:
        it = self.it
        if isinstance(e, ast.Const):
            v = it.intern(e.value)
            return Compiled(leaf("const"), lambda env: v)
        if isinstance(e, ast.EmptySet):
            empty = it.empty_set
            return Compiled(leaf("empty"), lambda env: empty)
        if isinstance(e, ast.UnitConst):
            unit = it.unit
            return Compiled(leaf("unit"), lambda env: unit)
        if isinstance(e, ast.BoolConst):
            b = it.boolean(e.value)
            return Compiled(leaf("bool", str(e.value)), lambda env: b)
        if isinstance(e, ast.Var):
            name = e.name

            def var_fn(env, name=name):
                try:
                    return env[name]
                except KeyError:
                    raise NRAEvalError(f"unbound variable {name!r}") from None

            return Compiled(leaf("var", name), var_fn)
        if isinstance(e, ast.Singleton):
            item = self.compile(e.item)
            fn = item.fn
            return Compiled(
                node("singleton", "", item.plan),
                lambda env: it.singleton(_value(fn(env), "singleton")),
            )
        if isinstance(e, ast.Union):
            lc, rc = self.compile(e.left), self.compile(e.right)
            lfn, rfn = lc.fn, rc.fn

            def union_fn(env):
                return it.union(
                    expect_set(lfn(env), "union"), expect_set(rfn(env), "union")
                )

            rel = match_field_of(e)
            if rel is None:
                return Compiled(node("union", "", lc.plan, rc.plan), union_fn)
            # ``field_of(r)``, a loop's cardinality argument, is a function of
            # one collection value: built from the value's ``fst``/``snd`` id
            # columns (which follow a commit) the first time it is seen, as
            # written when those are unavailable (so errors are the union's
            # own), then served with the value's indexes.
            ctx, sfn = self.ctx, self._source(rel).fn

            def field_fn(env):
                r = sfn(env)
                if not isinstance(r, SetVal):
                    return union_fn(env)
                return ctx.field_of(r, lambda: union_fn(env))

            return Compiled(
                node("union", "", lc.plan, rc.plan, annotations=("per-value",)),
                field_fn,
            )
        if isinstance(e, ast.Pair):
            fc, sc = self.compile(e.fst), self.compile(e.snd)
            ffn, sfn = fc.fn, sc.fn
            return Compiled(
                node("pair", "", fc.plan, sc.plan),
                lambda env: it.pair(_value(ffn(env), "pair"), _value(sfn(env), "pair")),
            )
        if isinstance(e, ast.Proj1):
            pc = self.compile(e.pair)
            pfn = pc.fn

            def proj1_fn(env):
                p = pfn(env)
                try:
                    return p.fst
                except AttributeError:
                    raise NRAEvalError(f"pi1: expected a pair, got {p!r}") from None

            return Compiled(node("proj1", "", pc.plan), proj1_fn)
        if isinstance(e, ast.Proj2):
            pc = self.compile(e.pair)
            pfn = pc.fn

            def proj2_fn(env):
                p = pfn(env)
                try:
                    return p.snd
                except AttributeError:
                    raise NRAEvalError(f"pi2: expected a pair, got {p!r}") from None

            return Compiled(node("proj2", "", pc.plan), proj2_fn)
        if isinstance(e, ast.Eq):
            lc, rc = self.compile(e.left), self.compile(e.right)
            lfn, rfn = lc.fn, rc.fn
            true, false = it.true, it.false

            def eq_fn(env):
                # Interning makes structural equality an identity test.
                return (
                    true
                    if _value(lfn(env), "equality") is _value(rfn(env), "equality")
                    else false
                )

            return Compiled(node("eq", "", lc.plan, rc.plan), eq_fn)
        if isinstance(e, ast.IsEmpty):
            sc = self.compile(e.set)
            sfn = sc.fn
            true, false = it.true, it.false
            return Compiled(
                node("is-empty", "", sc.plan),
                lambda env: false if expect_set(sfn(env), "empty()").elements else true,
            )
        if isinstance(e, ast.If):
            cc, tc, oc = self.compile(e.cond), self.compile(e.then), self.compile(e.orelse)
            cfn, tfn, ofn = cc.fn, tc.fn, oc.fn
            true, false = it.true, it.false

            def if_fn(env):
                c = cfn(env)
                if c is true:
                    return tfn(env)
                if c is false:
                    return ofn(env)
                raise NRAEvalError(f"if-condition: expected a boolean, got {c!r}")

            return Compiled(node("if", "", cc.plan, tc.plan, oc.plan), if_fn)
        if isinstance(e, ast.Lambda):
            return self._compile_lambda(e)
        if isinstance(e, ast.Apply):
            return self._compile_apply(e)
        if isinstance(e, ast.Ext):
            return self._compile_bare_ext(e)
        if isinstance(e, ast.ExternalCall):
            ac = self.compile(e.arg)
            afn = ac.fn
            sigma = self.ctx.sigma
            name = e.name
            # Looked up lazily: an external in a dead branch must not fail at
            # compile time (the reference interpreter never reaches it).
            return Compiled(
                node("external", name, ac.plan),
                lambda env: it.intern(sigma[name](_value(afn(env), f"external {name}"))),
            )
        if isinstance(e, (ast.Dcr, ast.Sru)):
            return self._compile_union_recursion(e, bounded=False)
        if isinstance(e, ast.Bdcr):
            return self._compile_union_recursion(e, bounded=True)
        if isinstance(e, (ast.Sri, ast.Esr)):
            return self._compile_insert_recursion(e, bounded=False)
        if isinstance(e, ast.Bsri):
            return self._compile_insert_recursion(e, bounded=True)
        if isinstance(e, (ast.LogLoop, ast.Loop, ast.BlogLoop, ast.Bloop)):
            return self._compile_iterator(e)
        raise NRAEvalError(f"cannot compile expression node {type(e).__name__}")

    # -- functions and application ------------------------------------------------

    def _compile_lambda(self, e: ast.Lambda) -> Compiled:
        body = self.compile(e.body)
        body_fn = body.fn
        var = e.var

        def make(env):
            captured = dict(env)  # kernels mutate env in place; closures snapshot

            def call(v, captured=captured):
                token = bind(captured, var)
                captured[var] = v
                try:
                    return _value(body_fn(captured), "lambda body")
                finally:
                    unbind(captured, var, token)

            return VFunction(f"\\{var}", call)

        return Compiled(node("lambda", var, body.plan), make)

    def _compile_apply(self, e: ast.Apply) -> Compiled:
        if isinstance(e.func, ast.Ext):
            return self._compile_ext_apply(e.func, e.arg)
        if isinstance(e.func, ast.Lambda):
            # Direct beta-redex: bind in place, no closure object per call.
            f = e.func
            body = self.compile(f.body)
            arg = self.compile(e.arg)
            body_fn, arg_fn, var = body.fn, arg.fn, f.var

            def let_fn(env):
                v = _value(arg_fn(env), "argument")
                token = bind(env, var)
                env[var] = v
                try:
                    return body_fn(env)
                finally:
                    unbind(env, var, token)

            return Compiled(node("apply", f"let {var}", body.plan, arg.plan), let_fn)
        fc, ac = self.compile(e.func), self.compile(e.arg)
        ffn, afn = fc.fn, ac.fn

        def apply_fn(env):
            fn = _function(ffn(env), "application")
            result = fn(_value(afn(env), "argument"))
            if isinstance(result, VFunction):  # pragma: no cover - defensive
                raise NRAEvalError("functions may not return functions")
            return result

        return Compiled(node("apply", "", fc.plan, ac.plan), apply_fn)

    # -- flat-shape analysis ------------------------------------------------------

    def _const(self, e: Expr) -> Optional[Value]:
        """The interned value of a literal expression (flat compare constant)."""
        it = self.it
        if isinstance(e, ast.Const):
            return it.intern(e.value)
        if isinstance(e, ast.BoolConst):
            return it.boolean(e.value)
        if isinstance(e, ast.UnitConst):
            return it.unit
        if isinstance(e, ast.EmptySet):
            return it.empty_set
        return None

    def _flat_rhs(self, e: Expr, var: str) -> Optional[tuple]:
        """The non-column side of a flat compare: a literal's dense id, or the
        closure of an expression that does not mention the selected element
        (a ``$param``, an enclosing binder, ``pi1`` of one: the key of a
        correlated select), evaluated once per select."""
        const = self._const(e)
        if const is not None:
            # The compiled plan holds the constant itself, so no intern-table
            # sweep frees it while its dense id is compared against.
            return ("id", self.it.dense_id(const), const)
        if isinstance(e, ast.Var) or var not in free_variables(e):
            return ("key", self.compile(e).fn)
        return None

    def _flat_select_spec(
        self, cond: Expr, out_expr: Expr, var: str
    ) -> Optional[tuple]:
        """Lower a select to column compares: ``(lpath, rhs, out_spec)``."""
        if not isinstance(cond, ast.Eq):
            return None
        pa = accessor_path(cond.left, var)
        pb = accessor_path(cond.right, var)
        if pa is not None and pb is not None:
            lpath, rhs = pa, ("path", pb)
        elif pa is not None:
            lpath, rhs = pa, self._flat_rhs(cond.right, var)
        elif pb is not None:
            lpath, rhs = pb, self._flat_rhs(cond.left, var)
        else:
            return None
        if rhs is None:
            return None
        if isinstance(out_expr, ast.Var) and out_expr.name == var:
            out: Optional[tuple] = ("elems",)
        else:
            out = flat_out_spec(out_expr, var)
        if out is None:
            return None
        return lpath, rhs, out

    # -- kernel sources -----------------------------------------------------------

    def _source(self, e: Expr) -> Compiled:
        """Compile ``e`` for a kernel-source position, behind its once-cell.

        The derived operators (``nest``, ``difference``, ``member``, a
        ``compose`` of computed relations) repeat an argument under an
        ``ext`` binder because the calculus has no ``let``; taken literally
        the inner occurrence is recomputed per element of the outer set.
        :class:`OnceCell` covers loop-invariant sources (the enclosing binder
        is not among the free variables) and repeated ones (the cell hangs
        off the cached ``Compiled``) with one mechanism and without touching
        the expression, so the shape analyses see the templates they always
        saw.  Variables and projection chains over them are returned as they
        are: reading them costs less than checking a cell.
        """
        path = e
        while isinstance(path, (ast.Proj1, ast.Proj2)):
            path = path.pair
        if isinstance(path, ast.Var):
            return self.compile(e)
        c = self.compile(e, once=True)
        if c.once is None:
            c.once = OnceCell(self._run, e, c.fn)
        return Compiled(c.plan, c.once)

    # -- ext shapes ---------------------------------------------------------------

    def _compile_ext_apply(self, ext_node: ast.Ext, src: Expr) -> Compiled:
        f = ext_node.func
        if not isinstance(f, ast.Lambda):
            bare = self._compile_bare_ext(ext_node)
            sc = self.compile(src)
            bare_fn, sfn = bare.fn, sc.fn
            return Compiled(
                node("ext-dynamic", "", bare.plan, sc.plan),
                lambda env: bare_fn(env)(_value(sfn(env), "argument")),
            )
        ctx = self.ctx
        var, body = f.var, f.body
        sc = self._source(src)
        sfn = sc.fn

        # MAP: ext(\x. {out})(s)
        if isinstance(body, ast.Singleton):
            oc = self.compile(body.item)
            ofn = oc.fn
            out_fn = lambda env: _value(ofn(env), "singleton")
            group_spec = flat_group_spec(body.item, var) if ctx.use_flat else None
            if group_spec is not None:
                kpath, inner_src, lpath, opath = group_spec
                # _source: nest's two occurrences of its argument share a once-cell.
                tfn = self._source(inner_src).fn

                def group_map_fn(env):
                    source = expect_set(sfn(env), "ext")
                    if not source.elements:
                        # As join_fn: the inner source sits under the binder.
                        return ctx.interner.empty_set
                    try:
                        # The key column before the inner source: a malformed
                        # outer element must fall back before T can raise.
                        keys = ctx.flat_column(source, kpath)
                        return flat_group_map(
                            ctx, keys, expect_set(tfn(env), "ext"), lpath, opath
                        )
                    except FlatUnavailable:
                        ctx.stats.flat_fallbacks += 1
                    return bulk_map(ctx, env, source, var, out_fn)

                return Compiled(
                    node(
                        "map", var, sc.plan, oc.plan,
                        annotations=("flat-columns", "grouped"),
                    ),
                    group_map_fn,
                )
            flat_spec = flat_out_spec(body.item, var) if ctx.use_flat else None
            if flat_spec is not None:
                def flat_map_fn(env, flat_spec=flat_spec):
                    source = expect_set(sfn(env), "ext")
                    try:
                        return flat_map(ctx, source, flat_spec)
                    except FlatUnavailable:
                        ctx.stats.flat_fallbacks += 1
                    return bulk_map(ctx, env, source, var, out_fn)

                return Compiled(
                    node("map", var, sc.plan, oc.plan, annotations=("flat-columns",)),
                    flat_map_fn,
                )
            return Compiled(
                node("map", var, sc.plan, oc.plan),
                lambda env: bulk_map(ctx, env, expect_set(sfn(env), "ext"), var, out_fn),
            )

        # SELECT: ext(\x. if p then {out} else {})(s) and the negated twin.
        if isinstance(body, ast.If):
            select = None
            if isinstance(body.then, ast.Singleton) and isinstance(body.orelse, ast.EmptySet):
                select = (body.then.item, False)
            elif isinstance(body.orelse, ast.Singleton) and isinstance(body.then, ast.EmptySet):
                select = (body.orelse.item, True)
            if select is not None:
                out_expr, negate = select
                pc, oc = self.compile(body.cond), self.compile(out_expr)
                pfn, ofn = pc.fn, oc.fn
                out_fn = lambda env: _value(ofn(env), "singleton")
                flat_spec = (
                    self._flat_select_spec(body.cond, out_expr, var)
                    if ctx.use_flat else None
                )
                if flat_spec is not None:
                    lpath, rhs, flat_out = flat_spec
                    dense_id = self.it.dense_id

                    def flat_select_fn(env, negate=negate):
                        source = expect_set(sfn(env), "ext")
                        try:
                            against = rhs
                            if rhs[0] == "key":
                                # The scan evaluates the key per element,
                                # after the column side: not at all over an
                                # empty set, and when the key cannot be had
                                # up front (unbound, raising, not an interned
                                # value) the scan reproduces the canonical
                                # outcome in the canonical order.
                                if not source.elements:
                                    return bulk_select(
                                        ctx, env, source, var, pfn, out_fn, negate
                                    )
                                try:
                                    against = ("id", dense_id(rhs[1](env)))
                                except Exception:
                                    raise FlatUnavailable("select key") from None
                            return flat_select(ctx, source, lpath, against, flat_out, negate)
                        except FlatUnavailable:
                            ctx.stats.flat_fallbacks += 1
                        return bulk_select(
                            ctx, env, source, var, pfn, out_fn, negate
                        )

                    annotations = ("flat-columns",)
                    if rhs[0] != "path" and not negate:
                        annotations += ("indexed",)
                    return Compiled(
                        node(
                            "select", var, sc.plan, pc.plan, oc.plan,
                            annotations=annotations,
                        ),
                        flat_select_fn,
                    )
                return Compiled(
                    node("select", var, sc.plan, pc.plan, oc.plan),
                    lambda env: bulk_select(
                        ctx, env, expect_set(sfn(env), "ext"), var, pfn, out_fn, negate
                    ),
                )

        # HASH JOIN: ext(\x. ext(\y. if k1 = k2 then {out} else {})(s2))(s1)
        join = match_join(var, body)
        if join is not None:
            rvar, lkey, rkey, out_expr, inner_src = join
            rc = self._source(inner_src)
            lkc, rkc, oc = self.compile(lkey), self.compile(rkey), self.compile(out_expr)
            rfn, lkfn, rkfn, ofn = rc.fn, lkc.fn, rkc.fn, oc.fn
            out_fn = lambda env: _value(ofn(env), "singleton")
            # The right index is reusable only when its key is a pure
            # function of the right element; the key expression itself is the
            # cache tag, so structurally equal keys share indexes.
            rkey_tag = rkey if free_variables(rkey) <= {rvar} else None
            flat_spec = (
                join_paths(var, rvar, lkey, rkey, out_expr) if ctx.use_flat else None
            )

            def join_fn(env):
                left = expect_set(sfn(env), "ext")
                if not left.elements:
                    # The right source sits inside the outer lambda, so the
                    # reference interpreter never evaluates it when the left
                    # set is empty; short-circuit to match it exactly (an
                    # external in the right source may raise).
                    return ctx.interner.empty_set
                right = expect_set(rfn(env), "ext")
                if flat_spec is not None:
                    try:
                        return flat_join(ctx, left, right, *flat_spec)
                    except FlatUnavailable:
                        ctx.stats.flat_fallbacks += 1
                return hash_join(
                    ctx,
                    env,
                    left,
                    right,
                    var,
                    rvar,
                    lkfn,
                    rkfn,
                    out_fn,
                    rkey_tag,
                )

            annotations = ("indexed",) if rkey_tag is not None else ()
            if flat_spec is not None:
                annotations += ("flat-columns",)
            return Compiled(
                node(
                    "hash-join",
                    f"{var} x {rvar}",
                    sc.plan,
                    rc.plan,
                    annotations=annotations,
                ),
                join_fn,
            )

        # General body: element-wise loop over a compiled body, one merged
        # set construction for the output.
        bc = self.compile(body)
        bfn = bc.fn
        unnest_spec = flat_unnest_spec(body, var) if ctx.use_flat else None
        if unnest_spec is not None:
            def flat_unnest_fn(env):
                source = expect_set(sfn(env), "ext")
                try:
                    return flat_unnest(ctx, source, *unnest_spec)
                except FlatUnavailable:
                    ctx.stats.flat_fallbacks += 1
                return elementwise_ext(ctx, env, source, var, bfn)

            return Compiled(
                node("ext", var, sc.plan, bc.plan, annotations=("flat-columns",)),
                flat_unnest_fn,
            )
        return Compiled(
            node("ext", var, sc.plan, bc.plan),
            lambda env: elementwise_ext(ctx, env, expect_set(sfn(env), "ext"), var, bfn),
        )

    def _compile_bare_ext(self, e: ast.Ext) -> Compiled:
        """``ext(f)`` in function position: a set-to-set function value."""
        ctx = self.ctx
        fc = self.compile(e.func)
        ffn = fc.fn

        def make(env):
            fn = _function(ffn(env), "ext parameter")

            def call(v, fn=fn):
                if not isinstance(v, SetVal):
                    raise NRAEvalError(f"ext applied to non-set {v!r}")
                ctx.stats.elementwise_exts += 1
                elements: list[Value] = []
                extend = elements.extend
                for x in v.elements:
                    piece = fn(x)
                    if not isinstance(piece, SetVal):
                        raise NRAEvalError(f"ext parameter returned non-set {piece!r}")
                    extend(piece.elements)
                return ctx.interner.mkset(elements)

            return VFunction("ext", call)

        return Compiled(node("ext-dynamic", "", fc.plan), make)

    # -- recursion on sets --------------------------------------------------------

    def _clip_fn(self, bound: Optional[Value]):
        if bound is None:
            return lambda v: v
        it = self.it
        return lambda v: it.intern(ps_intersect_values(v, bound))

    def _compile_union_recursion(self, e: Expr, bounded: bool) -> Compiled:
        ctx, it = self.ctx, self.it
        seed_c = self.compile(e.seed)
        item_c = self.compile(e.item)
        comb_c = self.compile(e.combine)
        bound_c = self.compile(e.bound) if bounded else None
        # A constant item function makes the subtree value a function of the
        # subtree *size* alone: evaluate the combining tree by cardinality.
        constant_item = isinstance(e.item, ast.Lambda) and e.item.var not in free_variables(
            e.item.body
        )
        op = "dcr-by-size" if constant_item else "dcr-tree"
        kind = type(e).__name__.lower()
        plan = node(op, kind, seed_c.plan, item_c.plan, comb_c.plan)
        seed_fn, item_fn, comb_fn = seed_c.fn, item_c.fn, comb_c.fn
        bound_fn = bound_c.fn if bound_c is not None else None

        def make(env):
            seed = _value(seed_fn(env), "recursion seed")
            item_d = _function(item_fn(env), "recursion item")
            comb_d = _function(comb_fn(env), "recursion combine")
            bound = _value(bound_fn(env), "recursion bound") if bound_fn else None
            clip = self._clip_fn(bound)
            seed_v = clip(seed)
            if constant_item:
                sizes: dict[int, Value] = {}

                def call(s):
                    if not isinstance(s, SetVal):
                        raise NRAEvalError(f"recursion applied to non-set {s!r}")
                    n = len(s.elements)
                    if n == 0:
                        return seed_v
                    ctx.stats.dcr_by_size += 1
                    if 1 not in sizes:
                        sizes[1] = clip(item_d(s.elements[0]))

                    def by_size(k):
                        v = sizes.get(k)
                        if v is None:
                            mid = k // 2
                            v = clip(comb_d(it.pair(by_size(mid), by_size(k - mid))))
                            sizes[k] = v
                        return v

                    return by_size(n)

                return VFunction(kind, call)

            def item(x):
                return clip(item_d(x))

            def combine(a, b):
                return clip(comb_d(it.pair(a, b)))

            def call(s):
                if not isinstance(s, SetVal):
                    raise NRAEvalError(f"recursion applied to non-set {s!r}")
                ctx.stats.dcr_trees += 1
                return dcr_combinator(seed_v, item, combine, s, None)

            return VFunction(kind, call)

        return Compiled(plan, make)

    def _compile_insert_recursion(self, e: Expr, bounded: bool) -> Compiled:
        ctx, it = self.ctx, self.it
        seed_c = self.compile(e.seed)
        insert_c = self.compile(e.insert)
        bound_c = self.compile(e.bound) if bounded else None
        kind = type(e).__name__.lower()
        # An insert that ignores the inserted element is an iteration in
        # disguise; reuse the loop machinery (frontier evaluation included).
        step_lam = insert_as_step(e.insert) if not bounded else None
        if step_lam is not None:
            runner = self.step_runner(step_lam, analyze_step(step_lam))
            seed_fn = seed_c.fn
            plan = node(
                "sri-as-loop",
                kind,
                seed_c.plan,
                runner.plan,
                annotations=runner.plan.annotations,
            )

            def make(env, runner=runner):
                seed = _value(seed_fn(env), "recursion seed")
                run_loop = runner.make(env)

                def call(s):
                    if not isinstance(s, SetVal):
                        raise NRAEvalError(f"recursion applied to non-set {s!r}")
                    return run_loop(seed, len(s.elements))

                return VFunction(kind, call)

            return Compiled(plan, make)

        seed_fn, insert_fn = seed_c.fn, insert_c.fn
        bound_fn = bound_c.fn if bound_c is not None else None
        plan = node("sri-elementwise", kind, seed_c.plan, insert_c.plan)

        def make(env):
            seed = _value(seed_fn(env), "recursion seed")
            insert_d = _function(insert_fn(env), "recursion insert")
            bound = _value(bound_fn(env), "recursion bound") if bound_fn else None
            clip = self._clip_fn(bound)
            seed_v = clip(seed)

            def insert(x, acc):
                return clip(insert_d(it.pair(x, acc)))

            def call(s):
                if not isinstance(s, SetVal):
                    raise NRAEvalError(f"recursion applied to non-set {s!r}")
                ctx.stats.sri_elementwise += 1
                return sri_combinator(seed_v, insert, s, None)

            return VFunction(kind, call)

        return Compiled(plan, make)

    # -- iterators ----------------------------------------------------------------

    @dataclass
    class StepRunner:
        """Compiled loop machinery: ``make(env)(start, rounds) -> value``."""

        plan: PlanNode
        make: Callable[[dict], Callable[[Value, int], Value]]

    def step_runner(
        self, step: ast.Lambda, shape: Optional[StepShape]
    ) -> "PlanCompiler.StepRunner":
        """Lower a step lambda to a round-runner: semi-naive when ``shape``
        (its :func:`~repro.engine.shapes.analyze_step`) is given, full
        iteration when it is ``None``."""
        ctx, it = self.ctx, self.it
        var = step.var
        body_c = self.compile(step.body)
        body_fn = body_c.fn

        def _full_run(captured, start, rounds):
            """Exact full iteration: ``rounds`` steps or until stable."""
            ctx.stats.full_loops += 1
            vtok = bind(captured, var)
            try:
                def one_step(v):
                    captured[var] = v
                    return _value(body_fn(captured), "iterator step")

                return iterate_stable(one_step, start, rounds)
            finally:
                unbind(captured, var, vtok)

        if shape is None:
            plan = node("loop-full", "", body_c.plan, annotations=("early-exit",))

            def make_full(env):
                captured = dict(env)
                return lambda start, rounds: _full_run(captured, start, rounds)

            return PlanCompiler.StepRunner(plan, make_full)

        dv = shape.delta_var
        term_cs = [self.compile(t) for t in shape.terms]
        term_fns = [t.fn for t in term_cs]
        # Flat lowering of the frontier terms: when every term is a
        # path-keyed equi-join over delta/acc/invariant sources, the whole
        # loop runs over packed pair codes (FlatLoop) and the object rounds
        # below become the fallback.
        flat_specs = shape.flat if ctx.use_flat else None
        flat_inv_cs = [
            (None, None) if s == "copy" else tuple(
                None if src is None else self._source(src)
                for src in (s.left_src, s.right_src)
            )
            for s in flat_specs or ()
        ]
        # A strict step (no loop-invariant branch) has f({}) = {}: its
        # frontier terms with delta = acc = start are round one whole.
        round_one_frontier = flat_specs is not None and shape.strict
        annotations = ("semi-naive",)
        if flat_specs is not None:
            annotations += ("flat-columns",)
        if round_one_frontier:
            annotations += ("round-one-frontier",)
        plan = node(
            "loop-seminaive",
            f"{len(term_fns)} frontier terms",
            body_c.plan,
            *[t.plan for t in term_cs],
            annotations=annotations,
        )

        def _try_flat_loop(env, acc, delta):
            """Build the flat loop, or ``None`` to fall back.

            Invariant sources are evaluated here, in term order with the
            object join's empty-left short-circuit, so errors surface at
            the same point the object rounds would raise them.  Only
            :class:`FlatUnavailable` falls back; canonical evaluation
            errors propagate.
            """
            try:
                inv_vals = []
                for lc, rc in flat_inv_cs:
                    lval = rval = None
                    if lc is not None:
                        lval = expect_set(lc.fn(env), "ext")
                    if rc is not None and (lval is None or lval.elements):
                        rval = expect_set(rc.fn(env), "ext")
                    inv_vals.append((lval, rval))
                loop = FlatLoop(ctx, flat_specs)
                loop.setup(acc, delta, inv_vals)
                ctx.stats.flat_fixpoints += 1
                return loop
            except FlatUnavailable:
                ctx.stats.flat_fallbacks += 1
                return None

        def _run_flat_loop(loop, budget, trace_on):
            try:
                loop.run(budget, _flat_round_event if trace_on else None)
            finally:
                ctx.stats.seminaive_rounds += loop.rounds
            return loop.materialize()

        def frontier(env, acc, delta, budget, flat_ok, trace_on):
            """The frontier phase: rounds from ``acc`` with frontier ``delta``
            until the frontier is exhausted or ``budget`` rounds are done,
            on the flat loop when the terms lower, else as object rounds --
            ``seminaive_iterate``'s round structure."""
            if flat_ok and budget > 0 and delta.elements:
                loop = _try_flat_loop(env, acc, delta)
                if loop is not None:
                    return _run_flat_loop(loop, budget, trace_on)
            done = 0
            vtok, dtok = bind(env, var), bind(env, dv)
            try:
                while done < budget and delta.elements:
                    ctx.stats.seminaive_rounds += 1
                    if trace_on:
                        size = len(delta.elements)
                        rt0 = perf_counter()
                    env[var] = acc
                    env[dv] = delta
                    derived = union_all(
                        ctx, [expect_set(f(env), "iterator step") for f in term_fns]
                    )
                    nxt = it.union(acc, derived)
                    delta = it.difference(nxt, acc)
                    acc = nxt
                    done += 1
                    if trace_on:
                        TRACER.event(
                            "fixpoint-round",
                            seconds=perf_counter() - rt0,
                            round=done, frontier=size, flat=False,
                        )
            finally:
                unbind(env, dv, dtok)
                unbind(env, var, vtok)
            return acc

        def make_seminaive(env):
            captured = dict(env)

            def run(start, rounds):
                if not isinstance(start, SetVal):
                    # The analysis proved the step set-valued on set
                    # accumulators; a non-set start still follows the
                    # exact full-iteration path.
                    return _full_run(captured, start, rounds)
                ctx.stats.seminaive_loops += 1
                trace_on = TRACER.enabled  # captured once per run
                if rounds <= 0:
                    return start
                # Round one: a strict step's is a frontier round (the flat
                # loop starts from delta = acc = start and probes the
                # invariant indexes that followed a commit); otherwise the
                # full body, frontier = acc - start.  Then the frontier
                # phase, within the budget.
                flat_ok = flat_specs is not None
                if round_one_frontier and start.elements:
                    loop = _try_flat_loop(captured, start, start)
                    if loop is not None:
                        return _run_flat_loop(loop, rounds, trace_on)
                    flat_ok = False  # declined: it would again
                vtok = bind(captured, var)
                try:
                    captured[var] = start
                    acc = expect_set(body_fn(captured), "iterator step")
                finally:
                    unbind(captured, var, vtok)
                delta = it.difference(acc, start)
                return frontier(captured, acc, delta, rounds - 1, flat_ok, trace_on)

            return run

        return PlanCompiler.StepRunner(plan, make_seminaive)

    def _compile_iterator(self, e: Expr) -> Compiled:
        ctx, it = self.ctx, self.it
        bounded = isinstance(e, (ast.BlogLoop, ast.Bloop))
        logarithmic = isinstance(e, (ast.LogLoop, ast.BlogLoop))
        kind = type(e).__name__.lower()
        bound_c = self.compile(e.bound) if bounded else None
        bound_fn = bound_c.fn if bound_c is not None else None

        if isinstance(e.step, ast.Lambda) and not bounded:
            runner = self.step_runner(e.step, analyze_step(e.step))
            plan = node(
                runner.plan.op,
                kind,
                runner.plan,
                annotations=runner.plan.annotations,
            )

            def make(env, runner=runner):
                run_loop = runner.make(env)

                def call(v):
                    if not isinstance(v, PairVal):
                        raise NRAEvalError(f"iterator argument: expected a pair, got {v!r}")
                    x, y = v.fst, v.snd
                    if not isinstance(x, SetVal):
                        raise NRAEvalError(
                            f"iterator cardinality argument must be a set, got {x!r}"
                        )
                    rounds = log_iterations(len(x)) if logarithmic else len(x)
                    return run_loop(y, rounds)

                return VFunction(kind, call)

            return Compiled(plan, make)

        # Bounded or dynamic-step iterators: exact full iteration with clip.
        step_c = self.compile(e.step)
        step_fn = step_c.fn
        plan = node("loop-full", kind, step_c.plan, annotations=("early-exit",))

        def make(env):
            step_d = _function(step_fn(env), "iterator step")
            bound = _value(bound_fn(env), "iterator bound") if bound_fn else None
            clip = self._clip_fn(bound)

            def one_step(v):
                return clip(step_d(v))

            def call(v):
                if not isinstance(v, PairVal):
                    raise NRAEvalError(f"iterator argument: expected a pair, got {v!r}")
                x, y = v.fst, v.snd
                if not isinstance(x, SetVal):
                    raise NRAEvalError(
                        f"iterator cardinality argument must be a set, got {x!r}"
                    )
                ctx.stats.full_loops += 1
                rounds = log_iterations(len(x)) if logarithmic else len(x)
                return iterate_stable(one_step, clip(y), rounds)

            return VFunction(kind, call)

        return Compiled(plan, make)
