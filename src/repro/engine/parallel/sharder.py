"""Shard-plan analysis: which NRA queries may be evaluated shard-at-a-time.

The paper's central claim is that NRA queries are evaluable by *data-parallel
machines* (NC on a PRAM); the syntactic handle this module provides is
**union distributivity**.  A query ``q`` with ``q(A U B) = q(A) U q(B)`` can
be evaluated on a partition of its input and recombined with a union
combiner -- the partition, one contiguous run of the canonical order per
worker, is the paper's processor assignment on an ordered database, the
combiner the log-depth union tree.  Distributivity is decided on a
syntactic fragment where it is a theorem (not sampled, not approximate),
mirroring how the vectorized compiler decides semi-naive evaluation:

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

One further shape is recognised: an engine-style **applied query**
``Lambda(x, body)``, whose argument is the sharded set when ``body``
distributes over unions of ``x``.  For the query-service layer, whose
templates keep collections as *free* variables bound through the
environment, the analysis instead looks for a free variable the expression
distributes over and shards its binding.  An equi-join of two relations
shards one side and hands every worker the other whole; a fixpoint never
distributes over its input, so it runs whole on the driver's vectorized
evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...nra import ast
from ...nra.ast import Expr, free_variables, fresh_name


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
class ShardSpec:
    """How one optimized expression is executed shard-at-a-time."""

    #: ``"arg"`` -- shard the applied argument of a ``Lambda``;
    #: ``"env"`` -- shard the environment binding of a free variable.
    kind: str
    #: The sharded variable (lambda parameter or free variable).
    var: str
    #: The expression each worker evaluates with the sharded variable bound
    #: through the environment.
    body: Expr


def analyze(e: Expr) -> Optional[ShardSpec]:
    """The shard plan for an optimized expression, or ``None`` (fall back).

    Tried in order: the applied argument of a top-level lambda, a bare
    ``ext(f)``, then -- for the bare templates of the query-service layer --
    the alphabetically first free variable the expression distributes over
    (deterministic choice, so plans are stable across runs and engines).
    """
    if isinstance(e, ast.Lambda):
        if distributes_over_union(e.body, e.var):
            return ShardSpec(kind="arg", var=e.var, body=e.body)
        return None
    if isinstance(e, ast.Ext):
        # A bare ``ext(f)`` in function position is distributive by
        # definition: name the argument and shard it.
        x = fresh_name("shard_arg")
        return ShardSpec(kind="arg", var=x, body=ast.Apply(e, ast.Var(x)))
    for var in sorted(free_variables(e)):
        if distributes_over_union(e, var):
            return ShardSpec(kind="env", var=var, body=e)
    return None
