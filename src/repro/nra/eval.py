"""The reference (sequential) interpreter for NRA expressions.

Evaluation maps a closed, well-typed expression to a complex object value, or
-- for expressions of function type -- to a :class:`FunctionValue` that can be
applied to values.  Functions are second class: they can be bound to variables
by beta-reduction of an application but never stored inside complex objects,
mirroring the paper's typing.

The recursion and iteration constructs delegate to the combinators of
:mod:`repro.recursion`, so the interpreter, the work/depth cost evaluator
(:mod:`repro.nra.cost`), the circuit compiler and the PRAM programs all share
one semantics and are cross-checked against each other in the integration
tests.

The interpreter is deliberately *sequential*: its job is to define what the
right answer is.  Parallel behaviour (the whole point of ``dcr``) is measured
by the cost evaluator and by the PRAM/circuit substrates, per the substitution
note in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from ..objects.values import (
    BoolVal,
    PairVal,
    SetVal,
    UnitVal,
    Value,
)
from ..recursion.bounded import ps_intersect_values
from ..recursion.forms import EvaluationTrace, dcr, esr, sri, sru
from ..recursion.iterators import iterate, log_iterations
from . import ast
from .ast import Expr
from .errors import NRAEvalError
from .externals import EMPTY_SIGMA, Signature


@dataclass
class FunctionValue:
    """The runtime denotation of an expression of function type."""

    name: str
    call: Callable[[Value], Value]

    def __call__(self, v: Value) -> Value:
        return self.call(v)

    def __repr__(self) -> str:
        return f"<function {self.name}>"


#: What evaluation can produce.
Denotation = Union[Value, FunctionValue]
#: Runtime environments bind variables to denotations.
Env = Mapping[str, Denotation]


def evaluate(
    e: Expr,
    env: Optional[dict[str, Denotation]] = None,
    sigma: Signature = EMPTY_SIGMA,
    trace: Optional[EvaluationTrace] = None,
) -> Denotation:
    """Evaluate an NRA expression.

    ``env`` supplies the values of free variables, ``sigma`` the external
    functions.  When ``trace`` is given, the recursion combinators record
    their work and combining depth into it (the full parallel cost model lives
    in :mod:`repro.nra.cost`).  Raises :class:`NRAEvalError` on runtime type
    errors, which cannot occur on expressions accepted by the type checker
    and evaluated at matching environments.
    """
    env = env or {}
    return _eval(e, dict(env), sigma, trace)


def run(
    e: Expr,
    arg: Optional[Value] = None,
    env: Optional[dict[str, Denotation]] = None,
    sigma: Signature = EMPTY_SIGMA,
    trace: Optional[EvaluationTrace] = None,
) -> Value:
    """Evaluate ``e`` and, if an argument is given, apply the result to it.

    Convenience wrapper for the common pattern "evaluate this function
    expression and run it on this input"; always returns a complex object
    value (raises if the final denotation is still a function).
    """
    d = evaluate(e, env, sigma, trace)
    if arg is not None:
        d = _apply(d, arg)
    if isinstance(d, FunctionValue):
        raise NRAEvalError("result is a function; supply an argument to run it")
    return d


def _expect_value(d: Denotation, what: str) -> Value:
    if isinstance(d, FunctionValue):
        raise NRAEvalError(f"{what}: expected a complex object value, got a function")
    return d


def _expect_set(d: Denotation, what: str) -> SetVal:
    v = _expect_value(d, what)
    if not isinstance(v, SetVal):
        raise NRAEvalError(f"{what}: expected a set, got {v!r}")
    return v


def _expect_bool(d: Denotation, what: str) -> bool:
    v = _expect_value(d, what)
    if not isinstance(v, BoolVal):
        raise NRAEvalError(f"{what}: expected a boolean, got {v!r}")
    return v.value


def _expect_pair(d: Denotation, what: str) -> PairVal:
    v = _expect_value(d, what)
    if not isinstance(v, PairVal):
        raise NRAEvalError(f"{what}: expected a pair, got {v!r}")
    return v


def _expect_function(d: Denotation, what: str) -> FunctionValue:
    if not isinstance(d, FunctionValue):
        raise NRAEvalError(f"{what}: expected a function, got {d!r}")
    return d


def _apply(f: Denotation, v: Value) -> Value:
    fn = _expect_function(f, "application")
    result = fn(v)
    if isinstance(result, FunctionValue):  # pragma: no cover - defensive
        raise NRAEvalError("functions may not return functions")
    return result


def _eval(
    e: Expr,
    env: dict[str, Denotation],
    sigma: Signature,
    trace: Optional[EvaluationTrace],
) -> Denotation:
    if isinstance(e, ast.Const):
        return e.value
    if isinstance(e, ast.EmptySet):
        return SetVal()
    if isinstance(e, ast.Singleton):
        return SetVal([_expect_value(_eval(e.item, env, sigma, trace), "singleton")])
    if isinstance(e, ast.Union):
        left = _expect_set(_eval(e.left, env, sigma, trace), "union")
        right = _expect_set(_eval(e.right, env, sigma, trace), "union")
        return left.union(right)
    if isinstance(e, ast.UnitConst):
        return UnitVal()
    if isinstance(e, ast.Pair):
        return PairVal(
            _expect_value(_eval(e.fst, env, sigma, trace), "pair"),
            _expect_value(_eval(e.snd, env, sigma, trace), "pair"),
        )
    if isinstance(e, ast.Proj1):
        return _expect_pair(_eval(e.pair, env, sigma, trace), "pi1").fst
    if isinstance(e, ast.Proj2):
        return _expect_pair(_eval(e.pair, env, sigma, trace), "pi2").snd
    if isinstance(e, ast.BoolConst):
        return BoolVal(e.value)
    if isinstance(e, ast.Eq):
        left = _expect_value(_eval(e.left, env, sigma, trace), "equality")
        right = _expect_value(_eval(e.right, env, sigma, trace), "equality")
        return BoolVal(left == right)
    if isinstance(e, ast.IsEmpty):
        return BoolVal(len(_expect_set(_eval(e.set, env, sigma, trace), "empty()")) == 0)
    if isinstance(e, ast.If):
        cond = _expect_bool(_eval(e.cond, env, sigma, trace), "if-condition")
        branch = e.then if cond else e.orelse
        return _eval(branch, env, sigma, trace)
    if isinstance(e, ast.Var):
        if e.name not in env:
            raise NRAEvalError(f"unbound variable {e.name!r}")
        return env[e.name]
    if isinstance(e, ast.Lambda):
        return _make_closure(e, env, sigma, trace)
    if isinstance(e, ast.Apply):
        fn = _eval(e.func, env, sigma, trace)
        arg = _expect_value(_eval(e.arg, env, sigma, trace), "argument")
        return _apply(fn, arg)
    if isinstance(e, ast.Ext):
        fn = _expect_function(_eval(e.func, env, sigma, trace), "ext parameter")

        def ext_fn(v: Value, fn=fn) -> Value:
            if not isinstance(v, SetVal):
                raise NRAEvalError(f"ext applied to non-set {v!r}")
            elements: list[Value] = []
            for x in v:
                piece = fn(x)
                if not isinstance(piece, SetVal):
                    raise NRAEvalError(f"ext parameter returned non-set {piece!r}")
                elements.extend(piece.elements)
            return SetVal(elements)  # the union of the pieces, sorted once

        return FunctionValue("ext", ext_fn)
    if isinstance(e, ast.ExternalCall):
        fn = sigma[e.name]
        return fn(_expect_value(_eval(e.arg, env, sigma, trace), f"external {e.name}"))
    if isinstance(e, (ast.Dcr, ast.Sru)):
        return self_recursion_union(e, env, sigma, trace, bounded=False)
    if isinstance(e, ast.Bdcr):
        return self_recursion_union(e, env, sigma, trace, bounded=True)
    if isinstance(e, (ast.Sri, ast.Esr)):
        return self_recursion_insert(e, env, sigma, trace, bounded=False)
    if isinstance(e, ast.Bsri):
        return self_recursion_insert(e, env, sigma, trace, bounded=True)
    if isinstance(e, (ast.LogLoop, ast.Loop, ast.BlogLoop, ast.Bloop)):
        return _make_iterator(e, env, sigma, trace)
    raise NRAEvalError(f"cannot evaluate expression node {type(e).__name__}")


def _make_closure(
    e: ast.Lambda,
    env: dict[str, Denotation],
    sigma: Signature,
    trace: Optional[EvaluationTrace],
) -> FunctionValue:
    captured = dict(env)

    def call(v: Value) -> Value:
        inner = dict(captured)
        inner[e.var] = v
        result = _eval(e.body, inner, sigma, trace)
        return _expect_value(result, "lambda body")

    return FunctionValue(f"\\{e.var}", call)


def self_recursion_union(
    e: Expr,
    env: dict[str, Denotation],
    sigma: Signature,
    trace: Optional[EvaluationTrace],
    bounded: bool,
) -> FunctionValue:
    """Build the runtime function for ``dcr``/``sru``/``bdcr`` nodes."""
    seed = _expect_value(_eval(e.seed, env, sigma, trace), "recursion seed")
    item_fn = _expect_function(_eval(e.item, env, sigma, trace), "recursion item")
    comb_fn = _expect_function(_eval(e.combine, env, sigma, trace), "recursion combine")
    bound = (
        _expect_value(_eval(e.bound, env, sigma, trace), "recursion bound")
        if bounded
        else None
    )
    use_sru = isinstance(e, ast.Sru)

    def item(x: Value) -> Value:
        result = item_fn(x)
        return ps_intersect_values(result, bound) if bound is not None else result

    def combine(a: Value, b: Value) -> Value:
        result = comb_fn(PairVal(a, b))
        return ps_intersect_values(result, bound) if bound is not None else result

    effective_seed = ps_intersect_values(seed, bound) if bound is not None else seed

    def call(v: Value) -> Value:
        if not isinstance(v, SetVal):
            raise NRAEvalError(f"recursion applied to non-set {v!r}")
        combinator = sru if use_sru else dcr
        return combinator(effective_seed, item, combine, v, trace)

    name = type(e).__name__.lower()
    return FunctionValue(name, call)


def self_recursion_insert(
    e: Expr,
    env: dict[str, Denotation],
    sigma: Signature,
    trace: Optional[EvaluationTrace],
    bounded: bool,
) -> FunctionValue:
    """Build the runtime function for ``sri``/``esr``/``bsri`` nodes."""
    seed = _expect_value(_eval(e.seed, env, sigma, trace), "recursion seed")
    insert_fn = _expect_function(_eval(e.insert, env, sigma, trace), "recursion insert")
    bound = (
        _expect_value(_eval(e.bound, env, sigma, trace), "recursion bound")
        if bounded
        else None
    )
    use_esr = isinstance(e, ast.Esr)

    def insert(x: Value, acc: Value) -> Value:
        result = insert_fn(PairVal(x, acc))
        return ps_intersect_values(result, bound) if bound is not None else result

    effective_seed = ps_intersect_values(seed, bound) if bound is not None else seed

    def call(v: Value) -> Value:
        if not isinstance(v, SetVal):
            raise NRAEvalError(f"recursion applied to non-set {v!r}")
        combinator = esr if use_esr else sri
        return combinator(effective_seed, insert, v, trace)

    name = type(e).__name__.lower()
    return FunctionValue(name, call)


def _make_iterator(
    e: Expr,
    env: dict[str, Denotation],
    sigma: Signature,
    trace: Optional[EvaluationTrace],
) -> FunctionValue:
    step_fn = _expect_function(_eval(e.step, env, sigma, trace), "iterator step")
    bounded = isinstance(e, (ast.BlogLoop, ast.Bloop))
    logarithmic = isinstance(e, (ast.LogLoop, ast.BlogLoop))
    bound = (
        _expect_value(_eval(e.bound, env, sigma, trace), "iterator bound")
        if bounded
        else None
    )

    def step(v: Value) -> Value:
        result = step_fn(v)
        return ps_intersect_values(result, bound) if bound is not None else result

    def call(v: Value) -> Value:
        p = _expect_pair(v, "iterator argument")
        x, y = p.fst, p.snd
        if not isinstance(x, SetVal):
            raise NRAEvalError(f"iterator cardinality argument must be a set, got {x!r}")
        start = ps_intersect_values(y, bound) if bound is not None else y
        rounds = log_iterations(len(x)) if logarithmic else len(x)
        return iterate(step, start, rounds, trace)

    name = type(e).__name__.lower()
    return FunctionValue(name, call)
