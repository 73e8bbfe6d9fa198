"""Work/depth parallel cost semantics for NRA expressions.

The paper's complexity claims are about *parallel* resources: ``dcr`` is in NC
because its combining tree has logarithmic depth, ``ext`` is a single parallel
step, ``sri`` is inherently sequential in the number of elements.  Executing
Python threads would not measure any of this (see the substitution note in
DESIGN.md), so this module evaluates expressions under an explicit **work /
depth cost model** -- the standard PRAM abstraction (Brent): *work* is the
total number of elementary operations, *depth* is the length of the critical
path of operations that must happen one after another.  Parallel time on
polynomially many processors is proportional to depth.

Cost rules (each elementary constructor/test counts 1 work, 1 depth):

* independent subexpressions evaluate in parallel: work adds, depth is the
  maximum;
* ``ext(f)(s)``: all ``f(x)`` evaluate in parallel -- depth is the *maximum*
  over the elements plus one union step, work is the sum;
* ``dcr``/``sru``/``bdcr``: the item applications run in parallel, then a
  balanced combining tree of ``ceil(log2 n)`` rounds; the depth of each round
  is the maximum depth of its combine applications;
* ``sri``/``esr``/``bsri`` and the iterators: a sequential chain -- the depth
  of every step *adds*;
* external functions cost one unit (they are assumed NC-computable, as in
  Proposition 6.3; their internal cost is not the object of study);
* bounding intersections cost one extra unit of depth per step.

The benchmarks regenerate the paper's qualitative claims from these numbers:
``dcr``-based queries show Theta(log n) (or Theta(log^k n)) depth growth while
their ``sri`` counterparts show Theta(n) depth growth on identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from ..objects.values import (
    EMPTY_SET, BoolVal, PairVal, SetVal, UnitVal, Value, canonical_set,
)
from ..recursion.bounded import ps_intersect_values
from ..recursion.iterators import log_iterations
from . import ast
from .ast import Expr
from .errors import NRAEvalError
from .externals import EMPTY_SIGMA, Signature


@dataclass(frozen=True)
class Cost:
    """Parallel cost: total work and critical-path depth."""

    work: int
    depth: int

    def then(self, other: "Cost") -> "Cost":
        """Sequential composition: work adds, depth adds."""
        return Cost(self.work + other.work, self.depth + other.depth)

    def beside(self, other: "Cost") -> "Cost":
        """Parallel composition: work adds, depth is the maximum."""
        return Cost(self.work + other.work, max(self.depth, other.depth))

    def step(self, work: int = 1, depth: int = 1) -> "Cost":
        """Add a constant amount of work/depth after this cost."""
        return Cost(self.work + work, self.depth + depth)


@dataclass
class CostFunction:
    """Runtime denotation of a function under the cost semantics."""

    name: str
    call: Callable[[Value], tuple[Value, Cost]]

    def __call__(self, v: Value) -> tuple[Value, Cost]:
        return self.call(v)

    def run(self, v: Value) -> tuple[Value, int, int]:
        """``call(v)`` as ``(value, work, depth)``."""
        value, c = self.call(v)
        return value, c.work, c.depth


class _Compiled(CostFunction):
    """A function the evaluator built: ``run`` is native, ``call`` wraps it."""

    def __init__(self, name: str, run: Callable[[Value], tuple[Value, int, int]]):
        self.name = name
        self.run = run  # type: ignore[method-assign]

    def call(self, v: Value) -> tuple[Value, Cost]:  # type: ignore[override]
        value, w, d = self.run(v)
        return value, Cost(w, d)


CostDenotation = Union[Value, CostFunction]
CostEnv = Mapping[str, CostDenotation]


def cost_evaluate(
    e: Expr,
    env: Optional[dict[str, CostDenotation]] = None,
    sigma: Signature = EMPTY_SIGMA,
) -> tuple[CostDenotation, Cost]:
    """Evaluate ``e`` and return its denotation together with its parallel cost."""
    d, w, dp = _compile(e, sigma)(dict(env or {}))
    return d, Cost(w, dp)


def cost_run(
    e: Expr,
    arg: Optional[Value] = None,
    env: Optional[dict[str, CostDenotation]] = None,
    sigma: Signature = EMPTY_SIGMA,
) -> tuple[Value, Cost]:
    """Evaluate ``e`` (optionally applying it to ``arg``) and return value and cost."""
    d, c = cost_evaluate(e, env, sigma)
    if arg is not None:
        if not isinstance(d, CostFunction):
            raise NRAEvalError("cost_run: expression did not denote a function")
        v, c_app = d(arg)
        return v, c.then(c_app)
    if isinstance(d, CostFunction):
        raise NRAEvalError("cost_run: result is a function; supply an argument")
    return d, c


def _value(d: CostDenotation, what: str) -> Value:
    if isinstance(d, CostFunction):
        raise NRAEvalError(f"{what}: expected a value, got a function")
    return d


def _function(d: CostDenotation, what: str) -> CostFunction:
    if not isinstance(d, CostFunction):
        raise NRAEvalError(f"{what}: expected a function")
    return d


def _set(v: Value, what: str) -> SetVal:
    if not isinstance(v, SetVal):
        raise NRAEvalError(f"{what}: expected a set, got {v!r}")
    return v


def _pair(v: Value, what: str) -> PairVal:
    if not isinstance(v, PairVal):
        raise NRAEvalError(f"{what}: expected a pair, got {v!r}")
    return v


# -- the evaluator ----------------------------------------------------------------
#
# An expression is compiled once into nested closures ``run(env) -> (denotation,
# work, depth)``, so a lambda body applied to every element of a set is walked
# once, not dispatched node by node per element, and costs travel as two ints
# (a ``Cost`` is built only at the public boundary).  The closures apply the
# rules of the module docstring exactly, in the reference interpreter's
# evaluation order, and raise the same errors at the same point: an unknown
# node or a missing external still fails only when it is evaluated.

#: What compiled code returns: the denotation, its work and its depth.
_Run = Callable[[dict], tuple[CostDenotation, int, int]]


def _compile(e: Expr, sigma: Signature) -> _Run:
    rule = _RULES.get(type(e))
    if rule is None:
        rule = next((r for t, r in _RULES.items() if isinstance(e, t)), _unknown)
    return rule(e, sigma)


def _unknown(e: Expr, sigma: Signature) -> _Run:
    def run(env):
        raise NRAEvalError(f"cannot cost-evaluate node {type(e).__name__}")
    return run


def _const(e: Expr, sigma: Signature) -> _Run:
    if isinstance(e, ast.Const):
        out = (e.value, 1, 1)
    elif isinstance(e, ast.BoolConst):
        out = (BoolVal(e.value), 1, 1)
    elif isinstance(e, ast.UnitConst):
        out = (UnitVal(), 1, 1)
    else:
        out = (EMPTY_SET, 1, 1)
    return lambda env: out


def _singleton(e: ast.Singleton, sigma: Signature) -> _Run:
    item = _compile(e.item, sigma)

    def run(env):
        d, w, dp = item(env)
        v = _value(d, "singleton")
        # One element is a canonical tuple; the constructor still rejects
        # a non-value.
        s = canonical_set((v,)) if isinstance(v, Value) else SetVal([v])
        return s, w + 1, dp + 1
    return run


def _union(e: ast.Union, sigma: Signature) -> _Run:
    left, right = _compile(e.left, sigma), _compile(e.right, sigma)

    def run(env):
        dl, wl, pl = left(env)
        dr, wr, pr = right(env)
        result = _set(_value(dl, "union"), "union").union(_set(_value(dr, "union"), "union"))
        return result, wl + wr + 1, (pl if pl > pr else pr) + 1
    return run


def _pair_node(e: ast.Pair, sigma: Signature) -> _Run:
    fst, snd = _compile(e.fst, sigma), _compile(e.snd, sigma)

    def run(env):
        df, wf, pf = fst(env)
        ds, ws, ps = snd(env)
        return (PairVal(_value(df, "pair"), _value(ds, "pair")),
                wf + ws + 1, (pf if pf > ps else ps) + 1)
    return run


def _proj(e: Expr, sigma: Signature) -> _Run:
    inner = _compile(e.pair, sigma)
    first = isinstance(e, ast.Proj1)
    what = "pi1" if first else "pi2"

    def run(env):
        d, w, dp = inner(env)
        p = _pair(_value(d, what), what)
        return (p.fst if first else p.snd), w + 1, dp + 1
    return run


def _eq(e: ast.Eq, sigma: Signature) -> _Run:
    left, right = _compile(e.left, sigma), _compile(e.right, sigma)

    def run(env):
        dl, wl, pl = left(env)
        dr, wr, pr = right(env)
        return (BoolVal(_value(dl, "eq") == _value(dr, "eq")),
                wl + wr + 1, (pl if pl > pr else pr) + 1)
    return run


def _is_empty(e: ast.IsEmpty, sigma: Signature) -> _Run:
    inner = _compile(e.set, sigma)

    def run(env):
        d, w, dp = inner(env)
        return BoolVal(len(_set(_value(d, "empty"), "empty")) == 0), w + 1, dp + 1
    return run


def _if(e: ast.If, sigma: Signature) -> _Run:
    cond = _compile(e.cond, sigma)
    then, orelse = _compile(e.then, sigma), _compile(e.orelse, sigma)

    def run(env):
        dc, wc, pc = cond(env)
        c = _value(dc, "if")
        if not isinstance(c, BoolVal):
            raise NRAEvalError(f"if-condition must be boolean, got {c!r}")
        db, wb, pb = (then if c.value else orelse)(env)
        return db, wc + wb, pc + pb
    return run


def _var(e: ast.Var, sigma: Signature) -> _Run:
    name = e.name

    def run(env):
        if name not in env:
            raise NRAEvalError(f"unbound variable {name!r}")
        return env[name], 1, 1
    return run


def _lambda(e: ast.Lambda, sigma: Signature) -> _Run:
    var, body, label = e.var, _compile(e.body, sigma), f"\\{e.var}"

    def run(env):
        # Environments are never mutated once built, so the closure shares
        # ``env`` and each call extends a copy.
        def call(v):
            inner = env.copy()
            inner[var] = v
            d, w, dp = body(inner)
            return _value(d, "lambda body"), w, dp
        return _Compiled(label, call), 1, 1
    return run


def _apply(e: ast.Apply, sigma: Signature) -> _Run:
    func, arg = _compile(e.func, sigma), _compile(e.arg, sigma)

    def run(env):
        df, wf, pf = func(env)
        da, wa, pa = arg(env)
        fn = _function(df, "application")
        v, w, dp = fn.run(_value(da, "argument"))
        return v, wf + wa + w, (pf if pf > pa else pa) + dp
    return run


def _ext(e: ast.Ext, sigma: Signature) -> _Run:
    func = _compile(e.func, sigma)

    def run(env):
        df, wf, pf = func(env)
        fn = _function(df, "ext parameter").run

        def ext_call(v):
            s = _set(v, "ext argument")
            elements: list[Value] = []
            work = depth = 0
            for x in s.elements:
                piece, w, dp = fn(x)
                elements.extend(_set(piece, "ext piece").elements)
                work += w
                if dp > depth:
                    depth = dp
            # One parallel fan-out (max depth) followed by one union step;
            # the value is that union, canonicalized once.
            return SetVal(elements), work + 1, depth + 1

        return _Compiled("ext", ext_call), wf, pf
    return run


def _external(e: ast.ExternalCall, sigma: Signature) -> _Run:
    name, arg = e.name, _compile(e.arg, sigma)

    def run(env):
        fn = sigma[name]
        d, w, dp = arg(env)
        return fn(_value(d, f"external {name}")), w + 1, dp + 1
    return run


def _clipper(bound: Optional[Value]) -> Callable[[Value], Value]:
    if bound is None:
        return lambda v: v
    return lambda v: ps_intersect_values(v, bound)


def _bound(e: Expr, sigma: Signature) -> Optional[_Run]:
    has = isinstance(e, (ast.Bdcr, ast.Bsri, ast.BlogLoop, ast.Bloop))
    return _compile(e.bound, sigma) if has else None


def _union_recursion(e: Expr, sigma: Signature) -> _Run:
    seed_fn, item_fn = _compile(e.seed, sigma), _compile(e.item, sigma)
    comb_fn, bound_fn = _compile(e.combine, sigma), _bound(e, sigma)
    name = type(e).__name__.lower()

    def run(env):
        d_seed, w_seed, p_seed = seed_fn(env)
        d_item, w_item, p_item = item_fn(env)
        d_comb, w_comb, p_comb = comb_fn(env)
        seed = _value(d_seed, "recursion seed")
        item = _function(d_item, "recursion item").run
        combine = _function(d_comb, "recursion combine").run
        work = w_seed + w_item + w_comb
        depth = max(p_seed, p_item, p_comb)
        bound: Optional[Value] = None
        if bound_fn is not None:
            d_bound, w_bound, p_bound = bound_fn(env)
            bound = _value(d_bound, "recursion bound")
            work, depth = work + w_bound, max(depth, p_bound)
        clip = _clipper(bound)
        extra = 1 if bound is not None else 0

        def call(v):
            s = _set(v, "recursion argument")
            if not len(s):
                return clip(seed), 1, 1
            # Leaf applications of the item function, all in parallel.
            current: list[Value] = []
            total_w = total_d = 0
            for x in s.elements:
                value, w, dp = item(x)
                current.append(clip(value))
                total_w += w
                total_d = max(total_d, dp)
            # Balanced combining tree: each round combines adjacent pairs in
            # parallel; a round's depth is its deepest combine.
            while len(current) > 1:
                nxt: list[Value] = []
                round_d = 0
                for j in range(0, len(current) - 1, 2):
                    value, w, dp = combine(PairVal(current[j], current[j + 1]))
                    nxt.append(clip(value))
                    total_w += w
                    round_d = max(round_d, dp)
                if len(current) % 2 == 1:
                    nxt.append(current[-1])
                total_d += round_d
                current = nxt
            return current[0], total_w + extra, total_d + extra

        return _Compiled(name, call), work, depth
    return run


def _insert_recursion(e: Expr, sigma: Signature) -> _Run:
    seed_fn, ins_fn, bound_fn = _compile(e.seed, sigma), _compile(e.insert, sigma), _bound(e, sigma)
    name = type(e).__name__.lower()

    def run(env):
        d_seed, w_seed, p_seed = seed_fn(env)
        d_ins, w_ins, p_ins = ins_fn(env)
        seed = _value(d_seed, "recursion seed")
        insert = _function(d_ins, "recursion insert").run
        work, depth = w_seed + w_ins, max(p_seed, p_ins)
        bound: Optional[Value] = None
        if bound_fn is not None:
            d_bound, w_bound, p_bound = bound_fn(env)
            bound = _value(d_bound, "recursion bound")
            work, depth = work + w_bound, max(depth, p_bound)
        clip = _clipper(bound)

        def call(v):
            s = _set(v, "recursion argument")
            acc = clip(seed)
            total_w = total_d = 1
            # Element-by-element: every step depends on the previous accumulator.
            for x in reversed(s.elements):
                acc_next, w, dp = insert(PairVal(x, acc))
                acc = clip(acc_next)
                total_w += w
                total_d += dp
            return acc, total_w, total_d

        return _Compiled(name, call), work, depth
    return run


def _iterator(e: Expr, sigma: Signature) -> _Run:
    step_fn, bound_fn = _compile(e.step, sigma), _bound(e, sigma)
    logarithmic = isinstance(e, (ast.LogLoop, ast.BlogLoop))
    name = type(e).__name__.lower()

    def run(env):
        d_step, work, depth = step_fn(env)
        step = _function(d_step, "iterator step").run
        bound: Optional[Value] = None
        if bound_fn is not None:
            d_bound, w_bound, p_bound = bound_fn(env)
            bound = _value(d_bound, "iterator bound")
            work, depth = work + w_bound, max(depth, p_bound)
        clip = _clipper(bound)

        def call(v):
            p = _pair(v, "iterator argument")
            x, y = p.fst, p.snd
            s = _set(x, "iterator cardinality argument")
            rounds = log_iterations(len(s)) if logarithmic else len(s)
            acc = clip(y)
            total_w = total_d = 1
            for _ in range(rounds):
                acc_next, w, dp = step(acc)
                acc = clip(acc_next)
                total_w += w
                total_d += dp
            return acc, total_w, total_d

        return _Compiled(name, call), work, depth
    return run


_RULES: dict[type, Callable[[Expr, Signature], _Run]] = {
    ast.Const: _const, ast.EmptySet: _const, ast.UnitConst: _const,
    ast.BoolConst: _const,
    ast.Singleton: _singleton, ast.Union: _union, ast.Pair: _pair_node,
    ast.Proj1: _proj, ast.Proj2: _proj, ast.Eq: _eq, ast.IsEmpty: _is_empty,
    ast.If: _if, ast.Var: _var, ast.Lambda: _lambda, ast.Apply: _apply,
    ast.Ext: _ext, ast.ExternalCall: _external,
    **{t: _union_recursion for t in (ast.Dcr, ast.Sru, ast.Bdcr)},
    **{t: _insert_recursion for t in (ast.Sri, ast.Esr, ast.Bsri)},
    **{t: _iterator for t in (ast.LogLoop, ast.Loop, ast.BlogLoop, ast.Bloop)},
}


# -- cardinality-aware estimation -------------------------------------------------
#
# The backend router (:mod:`repro.engine.router`) needs the cost of a query
# *at catalog scale* without paying for a full cost evaluation (which runs the
# query under the cost semantics and is itself as slow as the reference
# interpreter).  The trick: run the cost semantics twice on *truncated*
# inputs -- the catalog samples capped at two small sizes -- fit a power law
# ``work ~ n^k`` through the two observations, and extrapolate to the full
# cardinalities the catalog reports.  When every input already fits under the
# cap the "estimate" is exact and says so.


def truncate_sets(v: Value, cap: int) -> Value:
    """Recursively truncate every set in ``v`` to at most ``cap`` elements.

    Canonical order is preserved (a prefix of a sorted tuple is sorted), so
    the result is a legal complex object value representing a sub-instance of
    the input -- exactly what sampled cost evaluation wants.
    """
    if isinstance(v, SetVal):
        return SetVal([truncate_sets(x, cap) for x in v.elements[:cap]])
    if isinstance(v, PairVal):
        return PairVal(truncate_sets(v.fst, cap), truncate_sets(v.snd, cap))
    return v


def value_cardinality(v: Value) -> int:
    """The top-level size of an input: set length, or 1 for scalars."""
    return len(v) if isinstance(v, SetVal) else 1


@dataclass(frozen=True)
class CostEstimate:
    """An extrapolated parallel cost for a query at full catalog cardinality.

    ``work``/``depth`` are the extrapolated PRAM costs; ``exponent`` is the
    fitted power-law exponent for work (1 = linear, 2 = quadratic join, ...);
    ``sample_n``/``full_n`` are the total input cardinalities the fit saw and
    extrapolated to.  ``exact`` means the inputs fit under the sampling cap,
    so no extrapolation happened and the numbers are the true cost.
    """

    work: float
    depth: float
    exponent: float
    sample_n: int
    full_n: int
    exact: bool = False

    @property
    def parallelism(self) -> float:
        """Average available parallelism (work / depth, >= 1)."""
        return self.work / max(self.depth, 1.0)


#: Exponent clips: sub-constant or beyond-cubic fits are sampling artifacts.
_WORK_EXP_RANGE = (0.5, 3.5)
_DEPTH_EXP_RANGE = (0.0, 2.0)


def _fit_exponent(y1: float, y2: float, n1: int, n2: int, lo: float, hi: float) -> float:
    if n2 <= n1 or y1 <= 0 or y2 <= 0:
        return 1.0
    k = math.log(y2 / y1) / math.log(n2 / n1)
    return min(hi, max(lo, k))


def estimate_cost(
    e: Expr,
    arg: Optional[Value] = None,
    env: Optional[dict[str, CostDenotation]] = None,
    sigma: Signature = EMPTY_SIGMA,
    counts: Optional[Mapping[str, int]] = None,
    caps: tuple[int, int] = (4, 8),
) -> CostEstimate:
    """Estimate the full-scale cost of ``e`` from truncated sample runs.

    ``env`` maps free variables to (sample) values; ``counts`` gives the full
    cardinality of each input collection (defaulting to the size of the value
    actually present in ``env``/``arg`` -- the right default when the caller
    passes full data, as the engine does at run time; the session layer passes
    catalog samples plus catalog counts).  Raises :class:`NRAEvalError` when
    the expression cannot be cost-evaluated (callers fall back to a static
    decision).
    """
    env = dict(env or {})
    lo_cap, hi_cap = caps

    def sampled(cap: int) -> tuple[Cost, int]:
        cut_env: dict[str, CostDenotation] = {}
        n = 0
        for name, d in env.items():
            if isinstance(d, CostFunction):
                cut_env[name] = d
            else:
                cut = truncate_sets(d, cap)
                cut_env[name] = cut
                n += value_cardinality(cut)
        cut_arg = truncate_sets(arg, cap) if arg is not None else None
        if cut_arg is not None:
            n += value_cardinality(cut_arg)
        _, cost = cost_run(e, cut_arg, cut_env, sigma)
        return cost, n

    c1, n1 = sampled(lo_cap)
    c2, n2 = sampled(hi_cap)

    full_n = 0
    for name, d in env.items():
        if isinstance(d, CostFunction):
            continue
        declared = counts.get(name) if counts else None
        full_n += declared if declared is not None else value_cardinality(d)
    if arg is not None:
        declared = counts.get("$arg") if counts else None
        full_n += declared if declared is not None else value_cardinality(arg)

    if full_n <= n2:
        # Everything fit under the cap: the sampled run *was* the real run.
        return CostEstimate(
            work=float(c2.work), depth=float(c2.depth),
            exponent=1.0, sample_n=n2, full_n=full_n, exact=True,
        )
    k_work = _fit_exponent(c1.work, c2.work, n1, n2, *_WORK_EXP_RANGE)
    k_depth = _fit_exponent(c1.depth, c2.depth, n1, n2, *_DEPTH_EXP_RANGE)
    scale = full_n / max(n2, 1)
    return CostEstimate(
        work=float(c2.work) * scale**k_work,
        depth=float(c2.depth) * scale**k_depth,
        exponent=k_work,
        sample_n=n2,
        full_n=full_n,
    )
