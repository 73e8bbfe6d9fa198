"""Shard-plan analysis: which NRA queries may be evaluated shard-at-a-time.

The paper's central claim is that NRA queries are evaluable by *data-parallel
machines* (NC on a PRAM); the syntactic handle this module provides is
**union distributivity**.  A query ``q`` with ``q(A U B) = q(A) U q(B)`` can
be evaluated on a hash-partition of its input and recombined with a union
combiner -- the partition is the paper's processor assignment, the combiner
the log-depth union tree.  Distributivity is decided on a syntactic fragment
where it is a theorem (not sampled, not approximate), mirroring how the
vectorized compiler decides semi-naive evaluation:

* the sharded variable itself (``q = id``),
* unions of distributive operands (idempotence also admits operands that do
  not mention the variable at all: constants satisfy ``C = C U C``),
* ``ext(f)(src)`` with ``src`` distributive and the variable not free in
  ``f`` (``ext`` distributes over union unconditionally),
* conditionals whose condition ignores the variable and whose branches are
  distributive.

Everything else -- in particular *bilinear* occurrences such as ``v o v``,
where correctness would need all cross-shard pairs -- is rejected, and the
parallel backend falls back to whole-set vectorized evaluation.

Two further shapes are recognised:

* a **fixpoint**: ``loop``/``log_loop`` applications (and ``sri``/``esr``
  inserts that are iterations in disguise) whose step the inflationary
  analysis of :mod:`repro.engine.rewrite` proves semi-naive evaluable.  Here
  the *frontier* is what gets sharded -- the delta terms produced by
  ``_delta_terms`` are union-distributive in the frontier variable by
  construction -- and re-sharded every round as the frontier changes.
* an engine-style **applied query** ``Lambda(x, body)``: the argument is the
  sharded set when ``body`` distributes over unions of ``x``.  For the
  query-service layer, whose templates keep collections as *free* variables
  bound through the environment, the analysis instead looks for a free
  variable the expression distributes over and shards its binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...nra import ast
from ...nra.ast import Expr, free_variables, fresh_name
from ..rewrite import insert_as_step, is_inflationary_step
# The frontier decomposition is shared with the vectorized compiler: the
# delta terms it emits are exactly the union-distributive rounds the
# parallel fixpoint shards.
from ..vectorized.compiler import _delta_terms


def distributes_over_union(e: Expr, var: str) -> bool:
    """True iff ``e[var := A U B] = e[var := A] U e[var := B]`` syntactically.

    Sound and incomplete: every accepted expression distributes (each case is
    an algebraic theorem of the pure object language, using idempotence for
    the variable-free operands); rejection only costs parallelism, never
    correctness.
    """
    if var not in free_variables(e):
        # Constants under a union combiner: C U ... U C = C by idempotence.
        return True
    if isinstance(e, ast.Var):
        return e.name == var
    if isinstance(e, ast.Union):
        return distributes_over_union(e.left, var) and distributes_over_union(
            e.right, var
        )
    if isinstance(e, ast.Apply) and isinstance(e.func, ast.Ext):
        return var not in free_variables(e.func) and distributes_over_union(
            e.arg, var
        )
    if isinstance(e, ast.If):
        return (
            var not in free_variables(e.cond)
            and distributes_over_union(e.then, var)
            and distributes_over_union(e.orelse, var)
        )
    return False


@dataclass(frozen=True)
class FixpointSpec:
    """A loop the parallel backend runs as sharded semi-naive rounds."""

    #: The lambda parameter when the fixpoint sits under ``Lambda(x, ...)``
    #: (engine-style applied query); ``None`` for bare session templates.
    arg_var: Optional[str]
    #: ``True`` for ``log_loop`` (``ceil(log2(n+1))`` rounds), ``False`` for
    #: ``loop``/``sri``/``esr`` (``n`` rounds).
    logarithmic: bool
    #: ``True`` when the carrier expression is the ``Pair(card, start)`` of a
    #: loop application; ``False`` when it is the argument set of an
    #: ``sri``/``esr`` application (rounds = its cardinality).
    loop_style: bool
    #: Evaluated by the driver to obtain rounds and the start value: the
    #: ``Pair(card, start)`` argument for loops, the argument set for ``sri``.
    carrier: Expr
    #: The seed expression of an ``sri``/``esr`` (start value); ``None`` for
    #: loops (whose start is the carrier pair's second component).
    seed: Optional[Expr]
    #: The step's accumulator variable and its body (the full first round).
    step_var: str
    step_body: Expr
    #: The frontier variable and the union of the step's delta terms: one
    #: sharded evaluation of ``delta_union`` with ``step_var`` bound to the
    #: accumulator and ``delta_var`` to a frontier shard is one worker task.
    delta_var: str
    delta_union: Expr
    #: The same delta terms before union-folding, in evaluation order: the
    #: flat-column fixpoint lowers these term-by-term
    #: (:func:`repro.engine.vectorized.flat.analyze_flat_terms`).
    delta_terms: tuple[Expr, ...] = ()
    #: No branch of the step is loop-invariant (``f({}) = {}``): a set start
    #: enters the flat loop at round one, as the compiler's step runner does.
    round_one_frontier: bool = False


@dataclass(frozen=True)
class JoinSpec:
    """An equi-join over two named relations, co-partitioned by join key.

    Both sides are hash-partitioned with the *same* shard count by their
    respective key expressions, so matching pairs land at the same shard
    index and worker ``i`` builds and probes only its aligned fraction of
    the right-side index -- total index work stays ``O(|right|)`` instead of
    every worker indexing the whole right side.
    """

    #: Whether the left side is the applied argument (``"arg"``) or an
    #: environment binding (``"env"``).
    outer: str
    left_var: str
    right_var: str
    #: Key extractors as unary lambdas (closed but for their parameter), so
    #: the driver can evaluate them per element while partitioning.
    left_key: Expr
    right_key: Expr


@dataclass(frozen=True)
class ShardSpec:
    """How one optimized expression is executed shard-at-a-time."""

    #: ``"arg"`` -- shard the applied argument of a ``Lambda``;
    #: ``"env"`` -- shard the environment binding of a free variable;
    #: ``"join"`` -- co-partition both sides of an equi-join by join key;
    #: ``"fixpoint"`` -- run sharded semi-naive rounds.
    kind: str
    #: The sharded variable (lambda parameter or free variable); for
    #: fixpoints, the step's accumulator variable; for joins, the left side.
    var: str
    #: The expression each worker evaluates with the sharded variable(s)
    #: bound through the environment; ``None`` for fixpoints.
    body: Optional[Expr] = None
    fixpoint: Optional[FixpointSpec] = None
    join: Optional[JoinSpec] = None


def _match_fixpoint(e: Expr, arg_var: Optional[str]) -> Optional[ShardSpec]:
    """Recognise loop/sri applications with a semi-naive evaluable step."""
    if not isinstance(e, ast.Apply):
        return None
    func, carrier = e.func, e.arg
    if isinstance(func, (ast.Loop, ast.LogLoop)):
        step = func.step
        loop_style = True
        logarithmic = isinstance(func, ast.LogLoop)
        seed: Optional[Expr] = None
    elif isinstance(func, (ast.Sri, ast.Esr)):
        step = insert_as_step(func.insert)
        if step is None:
            return None
        loop_style = False
        logarithmic = False
        seed = func.seed
    else:
        return None
    if not (isinstance(step, ast.Lambda) and is_inflationary_step(step)):
        return None
    dv = fresh_name("shard_delta")
    decomposed = _delta_terms(step.body, step.var, dv)
    if decomposed is None or not decomposed[0]:
        return None
    terms, strict = decomposed
    delta_union: Expr = terms[0]
    for t in terms[1:]:
        delta_union = ast.Union(delta_union, t)
    return ShardSpec(
        kind="fixpoint",
        var=step.var,
        fixpoint=FixpointSpec(
            arg_var=arg_var,
            logarithmic=logarithmic,
            loop_style=loop_style,
            carrier=carrier,
            seed=seed,
            step_var=step.var,
            step_body=step.body,
            delta_var=dv,
            delta_union=delta_union,
            delta_terms=tuple(terms),
            round_one_frontier=strict,
        ),
    )


def _match_aligned_join(e: Expr, arg_var: Optional[str]) -> Optional[ShardSpec]:
    """Recognise ``ext(\\x. ext(\\y. if k1(x) = k2(y) then {out} else {})(B))(A)``
    with ``A``/``B`` distinct named relations and pure per-side keys.

    ``A`` is either the applied argument (``arg_var``) or a free variable;
    ``B`` must be a different free variable.  The keys must be functions of
    their own element alone (no environment capture), so the driver can
    evaluate them while partitioning and alignment is well defined.
    """
    if not (
        isinstance(e, ast.Apply)
        and isinstance(e.func, ast.Ext)
        and isinstance(e.func.func, ast.Lambda)
        and isinstance(e.arg, ast.Var)
    ):
        return None
    outer_lam = e.func.func
    left_var = e.arg.name
    body = outer_lam.body
    if not (
        isinstance(body, ast.Apply)
        and isinstance(body.func, ast.Ext)
        and isinstance(body.func.func, ast.Lambda)
        and isinstance(body.arg, ast.Var)
    ):
        return None
    inner_lam = body.func.func
    right_var = body.arg.name
    if right_var in (left_var, outer_lam.var) or inner_lam.var == outer_lam.var:
        return None
    cond_body = inner_lam.body
    if not (
        isinstance(cond_body, ast.If)
        and isinstance(cond_body.cond, ast.Eq)
        and isinstance(cond_body.then, ast.Singleton)
        and isinstance(cond_body.orelse, ast.EmptySet)
    ):
        return None
    # The join body may mention the element variables and the environment,
    # but never the relation variables themselves: workers see only their
    # shards of those, so an output (or key) reading the whole relation
    # would silently shrink under sharding.
    if {left_var, right_var} & free_variables(inner_lam.body):
        return None
    a, b = cond_body.cond.left, cond_body.cond.right
    fa, fb = free_variables(a), free_variables(b)
    lv, rv = outer_lam.var, inner_lam.var
    if fa == {lv} and fb == {rv}:
        lkey, rkey = a, b
    elif fb == {lv} and fa == {rv}:
        lkey, rkey = b, a
    else:
        return None
    if arg_var is not None and left_var != arg_var:
        # A join whose left side is a free variable under a lambda would
        # need the lambda argument bound as well; keep the shapes disjoint.
        return None
    outer = "arg" if arg_var is not None else "env"
    return ShardSpec(
        kind="join",
        var=left_var,
        body=e,
        join=JoinSpec(
            outer=outer,
            left_var=left_var,
            right_var=right_var,
            left_key=ast.Lambda(lv, outer_lam.var_type, lkey),
            right_key=ast.Lambda(rv, inner_lam.var_type, rkey),
        ),
    )


def analyze(e: Expr) -> Optional[ShardSpec]:
    """The shard plan for an optimized expression, or ``None`` (fall back).

    Tried in order: a fixpoint (bare or under a top-level lambda), a
    co-partitioned equi-join, the applied argument of a top-level lambda,
    then -- for the bare templates of the query-service layer -- the
    alphabetically first free variable the expression distributes over
    (deterministic choice, so plans are stable across runs and engines).
    """
    if isinstance(e, ast.Lambda):
        fix = _match_fixpoint(e.body, e.var)
        if fix is not None:
            return fix
        join = _match_aligned_join(e.body, e.var)
        if join is not None:
            return join
        if distributes_over_union(e.body, e.var):
            return ShardSpec(kind="arg", var=e.var, body=e.body)
        return None
    if isinstance(e, ast.Ext):
        # A bare ``ext(f)`` in function position is distributive by
        # definition: name the argument and shard it.
        x = fresh_name("shard_arg")
        return ShardSpec(kind="arg", var=x, body=ast.Apply(e, ast.Var(x)))
    fix = _match_fixpoint(e, None)
    if fix is not None:
        return fix
    join = _match_aligned_join(e, None)
    if join is not None:
        return join
    for var in sorted(free_variables(e)):
        if distributes_over_union(e, var):
            return ShardSpec(kind="env", var=var, body=e)
    return None
