"""Bottom-up algebraic rewriting of NRA expressions.

The optimizing engine rewrites a query before evaluating it.  Every rewrite
rule is an *algebraic identity of the NRA* (Section 3 of the paper) or one of
the paper's expressiveness translations read as an optimization:

* **Structural simplifications** -- identity-composition elimination
  (``(\\x. x) e = e``, ``ext(\\x. {x}) = id``), projection/pair cancellation,
  conditional and emptiness short-circuits, union unit/idempotence laws.
  These are sound because the object language is *pure and total*: dropping or
  duplicating a subexpression can change neither the result nor termination
  (the substitution note in DESIGN.md spells this out).

* **Ext fusion** -- ``ext(f) . ext(g) = ext(ext(f) . g)`` (the monad
  associativity law of the set monad, which the paper's Section 3 presents as
  the defining equations of ``ext``), plus the unit laws
  ``ext(f)({e}) = f(e)`` and ``ext(f)({}) = {}``.

* **Cost-directed recursion rewrites** -- Proposition 2.1 exhibits the
  translations ``dcr -> esr -> sri``; read right-to-left they say that an
  insert recursion whose step has the shape ``i(x, y) = u(f(x), y)`` *is* a
  divide-and-conquer recursion whenever ``u`` is associative and commutative
  with identity ``e``.  The rewriter detects that shape syntactically and
  discharges the algebraic side conditions empirically on a finite sampled
  carrier (:mod:`repro.recursion.algebraic` explains why a complete check is
  undecidable), then replaces the ``sri``/``esr`` node by the corresponding
  ``dcr`` node.  Under the work/depth model of :mod:`repro.nra.cost` this
  takes the combining chain from depth ``Theta(n)`` to ``Theta(log n)`` --
  exactly the paper's NC-versus-PTIME contrast, applied as an optimization.

* **Selection through closure** -- ``seed-closure`` pushes a selection on one
  column of ``closure(R)`` (the repeated-squaring idiom of Example 7.1) into
  the iteration: a linear ``loop`` seeded at the selected tuples of ``R``
  derives exactly what the selection would keep.  An unconditional identity,
  cost-directed the other way round: depth ``Theta(log n)`` joins becomes
  ``Theta(n)`` rounds, work drops from the whole closure to the selected
  part.  With ``p <= 2`` processors Brent's ``W/p + D`` is all work.  The
  seeded loop reads ``R`` once, linearly, so a materialized view keeps it as
  a counted linear fixpoint (views and queries share one rule set).

Rules live in a registry (:data:`DEFAULT_RULES`); a :class:`Rewriter` runs
them bottom-up to a fixpoint and records every firing, which is what
``Engine.explain`` reports.  The syntactic analyses the rules lean on (where
a variable sits under a projection) live in :mod:`repro.engine.shapes`, the
one module that decides what shape an expression has -- including which
fixpoint steps the vectorized loop and the materialized views run
semi-naively (:func:`~repro.engine.shapes.analyze_step`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..nra import ast
from ..nra.ast import Expr, fresh_name, free_variables, map_children, substitute
from ..nra.derived import closure, let, match_closure, seeded_closure
from ..nra.errors import NRAEvalError, NRATypeError
from ..nra.externals import EMPTY_SIGMA, Signature
from ..nra.typecheck import FunType, infer
from ..objects.types import ProdType, SetType
from ..objects.values import BaseVal, BoolVal, UnitVal, Value
from ..recursion.algebraic import (
    carrier_closure,
    has_identity,
    is_associative,
    is_commutative,
)
from ..workloads.nested import random_object
from .shapes import _only_under, _replace_under


@dataclass(frozen=True)
class RuleFiring:
    """One recorded application of a rewrite rule."""

    rule: str
    before: Expr
    after: Expr

    def __str__(self) -> str:
        return f"{self.rule}: {self.before!r}  ==>  {self.after!r}"


class Rule:
    """A named local rewrite: ``apply`` returns the replacement or ``None``."""

    def __init__(
        self,
        name: str,
        apply: Callable[[Expr, "Rewriter"], Optional[Expr]],
        doc: str = "",
    ) -> None:
        self.name = name
        #: ``apply(e, rewriter)``: the replacement for ``e``, or ``None``.
        #: Stored, not wrapped: the rewriter calls it once per rule per node.
        self.apply = apply
        self.doc = doc or (apply.__doc__ or "").strip()

    def __repr__(self) -> str:
        return f"<rule {self.name}>"


def rule(name: str):
    """Decorator registering a function as a named :class:`Rule` in DEFAULT_RULES."""

    def wrap(fn: Callable[[Expr, "Rewriter"], Optional[Expr]]) -> Rule:
        r = Rule(name, fn)
        DEFAULT_RULES.append(r)
        return r

    return wrap


#: The standard rule registry, in application order.
DEFAULT_RULES: list[Rule] = []


# ---------------------------------------------------------------------------
# Structural simplifications
# ---------------------------------------------------------------------------

@rule("identity-apply")
def _identity_apply(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``(\\x. x) e = e``: eliminate application of the identity function."""
    if (
        isinstance(e, ast.Apply)
        and isinstance(e.func, ast.Lambda)
        and isinstance(e.func.body, ast.Var)
        and e.func.body.name == e.func.var
    ):
        return e.arg
    return None


@rule("beta-variable")
def _beta_variable(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``(\\x. b) y = b[y/x]`` when the argument is a variable or atomic constant.

    Restricted to arguments whose evaluation is O(1) -- variables, the unit /
    boolean / empty-set formers and atom-sized literals -- so the rewrite can
    only shrink the expression: substituting a large literal (a ``Const``
    wrapping a whole database) into many occurrences would re-intern it per
    occurrence instead of once.
    """
    if isinstance(e, ast.Apply) and isinstance(e.func, ast.Lambda):
        arg = e.arg
        atomic = isinstance(arg, (ast.Var, ast.BoolConst, ast.UnitConst, ast.EmptySet)) or (
            isinstance(arg, ast.Const)
            and isinstance(arg.value, (BaseVal, BoolVal, UnitVal))
        )
        if atomic:
            return substitute(e.func.body, e.func.var, arg)
    return None


@rule("proj-pair")
def _proj_pair(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``pi1 (e1, e2) = e1`` and ``pi2 (e1, e2) = e2``."""
    if isinstance(e, ast.Proj1) and isinstance(e.pair, ast.Pair):
        return e.pair.fst
    if isinstance(e, ast.Proj2) and isinstance(e.pair, ast.Pair):
        return e.pair.snd
    return None


@rule("if-constant")
def _if_constant(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``if true then a else b = a``; ``if false then a else b = b``."""
    if isinstance(e, ast.If) and isinstance(e.cond, ast.BoolConst):
        return e.then if e.cond.value else e.orelse
    return None


@rule("if-same")
def _if_same(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``if c then a else a = a`` (sound: the language is pure and total)."""
    if isinstance(e, ast.If) and e.then == e.orelse:
        return e.then
    return None


@rule("eq-reflexive")
def _eq_reflexive(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``e = e`` is ``true`` (evaluation is deterministic and effect-free)."""
    if isinstance(e, ast.Eq) and e.left == e.right:
        return ast.BoolConst(True)
    return None


@rule("union-empty")
def _union_empty(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``{} U e = e`` and ``e U {} = e``: the unit law of union."""
    if isinstance(e, ast.Union):
        if isinstance(e.left, ast.EmptySet):
            return e.right
        if isinstance(e.right, ast.EmptySet):
            return e.left
    return None


@rule("union-idempotent")
def _union_idempotent(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``e U e = e`` (syntactically equal operands only)."""
    if isinstance(e, ast.Union) and e.left == e.right:
        return e.left
    return None


@rule("empty-test")
def _empty_test(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``empty({}) = true``; ``empty({e}) = false``."""
    if isinstance(e, ast.IsEmpty):
        if isinstance(e.set, ast.EmptySet):
            return ast.BoolConst(True)
        if isinstance(e.set, ast.Singleton):
            return ast.BoolConst(False)
    return None


# ---------------------------------------------------------------------------
# ext laws (the set-monad identities of Section 3)
# ---------------------------------------------------------------------------

@rule("ext-identity")
def _ext_identity(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``ext(\\x. {x})(s) = s``: mapping the singleton former is the identity."""
    if isinstance(e, ast.Apply) and isinstance(e.func, ast.Ext):
        f = e.func.func
        if (
            isinstance(f, ast.Lambda)
            and isinstance(f.body, ast.Singleton)
            and isinstance(f.body.item, ast.Var)
            and f.body.item.name == f.var
        ):
            return e.arg
    return None


@rule("ext-empty")
def _ext_empty(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``ext(f)({}) = {}``.

    Needs the element type of the result, which is read off the type of ``f``;
    the rule therefore only fires when ``f`` is closed and typeable.
    """
    if (
        isinstance(e, ast.Apply)
        and isinstance(e.func, ast.Ext)
        and isinstance(e.arg, ast.EmptySet)
    ):
        result = rw.type_of(e.func.func)
        if (
            isinstance(result, FunType)
            and isinstance(result.result, SetType)
        ):
            return ast.EmptySet(result.result.elem)
    return None


@rule("ext-singleton")
def _ext_singleton(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``ext(f)({e}) = f(e)``: the unit law of the set monad."""
    if (
        isinstance(e, ast.Apply)
        and isinstance(e.func, ast.Ext)
        and isinstance(e.arg, ast.Singleton)
    ):
        return ast.Apply(e.func.func, e.arg.item)
    return None


@rule("ext-fusion")
def _ext_fusion(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """``ext(f)(ext(g)(s)) = ext(\\x. ext(f)(g(x)))(s)``: associativity of ext.

    Restricted to *map-shaped* inner functions (``g`` with a singleton body,
    i.e. ``smap``) so that fusion skips materializing the intermediate set
    without multiplying applications of ``f``: a general ``g`` may fan out or
    produce overlapping sets, where fusing would apply ``f`` once per source
    element instead of once per distinct intermediate element.  For the
    residual duplication a non-injective map can still cause, the memoizing
    evaluator shares one closure (and its cache) per ``(expression,
    environment)``, so repeated intermediate values cost a cache hit at run
    time.
    """
    if (
        isinstance(e, ast.Apply)
        and isinstance(e.func, ast.Ext)
        and isinstance(e.arg, ast.Apply)
        and isinstance(e.arg.func, ast.Ext)
        and isinstance(e.arg.func.func, ast.Lambda)
        and isinstance(e.arg.func.func.body, ast.Singleton)
    ):
        f = e.func.func
        g = e.arg.func.func
        s = e.arg.arg
        var = g.var
        body = g.body
        if var in free_variables(f):
            renamed = fresh_name(var.split("%")[0])
            body = substitute(body, var, ast.Var(renamed))
            var = renamed
        fused = ast.Lambda(var, g.var_type, ast.Apply(ast.Ext(f), body))
        return ast.Apply(ast.Ext(fused), s)
    return None


# ---------------------------------------------------------------------------
# Proposition 2.1 as a cost-directed rewrite: sri/esr -> dcr
# ---------------------------------------------------------------------------

@rule("sri-to-dcr")
def _sri_to_dcr(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """Prefer divide-and-conquer over insert recursion (Proposition 2.1).

    Matches ``sri(e, \\z. u((... pi1 z ...), pi2 z))`` / the same ``esr`` --
    the image of the Proposition 2.1 translation ``dcr(e, f, u) =
    esr(e, (x, y) -> u(f(x), y))`` -- and rewrites it back to
    ``dcr(e, \\x. f(x), u)``, *provided* the combining operation passes the
    sampled associativity/commutativity/identity check (the full check is
    undecidable; see :mod:`repro.recursion.algebraic`).  The combining chain
    drops from linear to logarithmic depth, which the cost cross-checks in
    ``tests/engine`` verify under :mod:`repro.nra.cost`.
    """
    if not isinstance(e, (ast.Sri, ast.Esr)):
        return None
    ins = e.insert
    if not (isinstance(ins, ast.Lambda) and isinstance(ins.var_type, ProdType)):
        return None
    body = ins.body
    z = ins.var
    # The step must literally be  u(item_expr, pi2 z)  with u a closed lambda.
    if not (
        isinstance(body, ast.Apply)
        and isinstance(body.func, ast.Lambda)
        and isinstance(body.arg, ast.Pair)
        and isinstance(body.arg.snd, ast.Proj2)
        and isinstance(body.arg.snd.pair, ast.Var)
        and body.arg.snd.pair.name == z
    ):
        return None
    u = body.func
    item_expr = body.arg.fst
    if z in free_variables(u):
        return None
    if not _only_under(item_expr, z, ast.Proj1):
        return None
    if not rw.combiner_is_acu(u, e.seed, ins.var_type.snd):
        return None
    x = fresh_name("d")
    item = ast.Lambda(
        x, ins.var_type.fst, _replace_under(item_expr, z, ast.Proj1, ast.Var(x))
    )
    return ast.Dcr(e.seed, item, u)


# ---------------------------------------------------------------------------
# Selection through closure: work over depth
# ---------------------------------------------------------------------------

@rule("seed-closure")
def _seed_closure(e: Expr, rw: "Rewriter") -> Optional[Expr]:
    """Push a single-column selection through the closure idiom.

    ``ext(\\w. if p then X else {})(closure(R))`` with ``p`` reading ``w`` only
    under ``pi1`` becomes the linear iterator seeded at the selection,
    ``loop(\\rr. rr U rr o R)(field_of(R), sigma_p(R))``, and only under
    ``pi2`` its mirror image ``rr U R o rr`` (:func:`seeded_closure`): every
    tuple a round derives keeps the seed's selected column, so the loop grows
    exactly the selected part of the closure and nothing else.  ``closure(R)``
    is what :func:`repro.nra.derived.closure` builds and nothing looser -- in
    particular the cardinality argument must be ``field_of(R)``, or the
    ``log_loop`` and ``loop`` round budgets would disagree.

    An unconditional identity, like the structural rules, but cost-directed
    in the direction *opposite* to ``sri-to-dcr``: it gives up the
    logarithmic depth of repeated squaring for the work of one frontier walk
    from the seed (``tests/engine/test_seed_closure.py`` pins the trade under
    :mod:`repro.nra.cost`), which is what few processors want.

    The output reuses ``p``, the select lambda and the ``field_of(R)``
    subtree of the input; for ``X = {w}`` the seeded loop is the whole
    result, otherwise the original ``ext`` runs over it.  ``Query.fix()``
    ``let``-binds a non-variable source, so the selection first moves under
    that binding (a bare non-variable ``R`` is bound the same way).
    """
    if not (isinstance(e, ast.Apply) and isinstance(e.func, ast.Ext)):
        return None
    # Cheapest test first: the rewriter offers every node to every rule.
    src = e.arg
    bound = src.func if isinstance(src, ast.Apply) else None
    loop = bound.body if isinstance(bound, ast.Lambda) else src
    if not (isinstance(loop, ast.Apply) and isinstance(loop.func, ast.LogLoop)):
        return None
    sel = e.func.func
    if not (
        isinstance(sel, ast.Lambda)
        and isinstance(sel.body, ast.If)
        and isinstance(sel.body.orelse, ast.EmptySet)
    ):
        return None
    w, p = sel.var, sel.body.cond
    if w not in free_variables(p):
        return None
    if _only_under(p, w, ast.Proj1):
        backward = False
    elif _only_under(p, w, ast.Proj2):
        backward = True
    else:
        return None
    found = match_closure(loop)
    if found is None:
        return None
    r, base = found
    if loop is not src:
        if bound.var in free_variables(sel):
            return None
        under = ast.Lambda(bound.var, bound.var_type, ast.Apply(e.func, loop))
        return ast.Apply(under, src.arg)
    if not isinstance(r, ast.Var):
        x = fresh_name("fx")
        bound_closure = closure(ast.Var(x), base)
        return let(x, SetType(sel.var_type), r, ast.Apply(e.func, bound_closure))
    keeps_row = sel.body.then == ast.Singleton(ast.Var(w))
    seed_select = e.func if keeps_row else ast.Ext(
        ast.Lambda(w, sel.var_type, ast.If(p, ast.Singleton(ast.Var(w)), sel.body.orelse))
    )
    seeded = seeded_closure(r, src.arg.fst, ast.Apply(seed_select, r), base, backward)
    return seeded if keeps_row else ast.Apply(e.func, seeded)


#: The unconditionally semantics-preserving rules: algebraic identities of
#: the pure, total object language that hold for every expression
#: (``seed-closure`` included: it is cost-directed but needs no sampled gate).
STRUCTURAL_RULES: list[Rule] = [r for r in DEFAULT_RULES if r.name != "sri-to-dcr"]

#: The Proposition 2.1 recursion rewrites: semantics-preserving exactly when
#: the recursion's own algebraic preconditions hold, which the rewriter
#: verifies on a sampled carrier (complete, not sound -- see
#: :meth:`Rewriter.combiner_is_acu`).
COST_DIRECTED_RULES: list[Rule] = [r for r in DEFAULT_RULES if r.name == "sri-to-dcr"]


# ---------------------------------------------------------------------------
# The rewriter
# ---------------------------------------------------------------------------

#: The sampled algebraic gate of the cost-directed recursion rules
#: (:meth:`Rewriter.combiner_is_acu`): the random seed of its carrier and
#: how many random values of the carrier type it draws.
ACU_SEED = 0
ACU_CARRIER_SAMPLES = 6


class Rewriter:
    """Applies a rule registry bottom-up to a fixpoint, recording firings."""

    #: Safety valve against non-terminating rule sets.
    MAX_PASSES = 25

    def __init__(
        self,
        rules: Optional[list[Rule]] = None,
        sigma: Signature = EMPTY_SIGMA,
    ) -> None:
        self.rules = list(DEFAULT_RULES) if rules is None else list(rules)
        self.sigma = sigma
        self._acu_cache: dict[tuple[Expr, Expr], bool] = {}

    # -- services used by rules ---------------------------------------------------

    def type_of(self, e: Expr):
        """Best-effort type of a closed subexpression, or ``None``."""
        if free_variables(e):
            return None
        try:
            return infer(e, {}, self.sigma)
        except (NRATypeError, NRAEvalError):
            return None

    def combiner_is_acu(self, u: Expr, seed: Expr, carrier_type) -> bool:
        """Sampled check that ``u`` is associative/commutative with identity ``seed``.

        Evaluates the closed expressions ``u`` and ``seed`` and tests the
        identities on a seeded-random carrier of ``carrier_type`` values (plus
        the seed, plus the closure of the samples under ``u`` up to a cap).

        The check is *complete* but not *sound*: instances where the
        identities genuinely hold -- the only instances for which the source
        recursion is itself well-defined -- always pass, but an adversarial
        combiner that only misbehaves on values outside the sampled carrier
        can slip through (a complete decision procedure cannot exist; see
        :mod:`repro.recursion.algebraic` on the Pi-1-1-completeness of the
        precondition).  Callers who evaluate recursions with unverified
        combiners and need bit-exact reference behaviour should use
        :data:`STRUCTURAL_RULES`, which omits the cost-directed recursion
        rewrites entirely.
        """
        cache_key = (u, seed)
        if cache_key in self._acu_cache:
            return self._acu_cache[cache_key]
        result = self._combiner_is_acu(u, seed, carrier_type)
        self._acu_cache[cache_key] = result
        return result

    def _combiner_is_acu(self, u: Expr, seed: Expr, carrier_type) -> bool:
        from ..nra.eval import evaluate, FunctionValue

        if free_variables(u) or free_variables(seed):
            return False
        try:
            u_fn = evaluate(u, {}, self.sigma)
            seed_val = evaluate(seed, {}, self.sigma)
        except NRAEvalError:
            return False
        if not isinstance(u_fn, FunctionValue) or isinstance(seed_val, FunctionValue):
            return False

        from ..objects.values import PairVal

        def op(a: Value, b: Value) -> Value:
            return u_fn(PairVal(a, b))

        rng = random.Random(ACU_SEED)
        samples: list[Value] = [seed_val]
        for _ in range(ACU_CARRIER_SAMPLES):
            try:
                samples.append(random_object(carrier_type, rng, max_set_size=3, atom_pool=5))
            except TypeError:
                return False
        try:
            # Also probe values *reachable* from the samples under u itself,
            # which catches combiners that only misbehave off the sample set.
            carrier, _ = carrier_closure(samples, op, max_size=12)
            return (
                has_identity(op, seed_val, carrier) is None
                and is_commutative(op, carrier) is None
                and is_associative(op, carrier) is None
            )
        except (NRAEvalError, TypeError):
            return False

    # -- rewriting ----------------------------------------------------------------

    def rewrite(self, e: Expr) -> tuple[Expr, list[RuleFiring]]:
        """Rewrite ``e`` bottom-up to a fixpoint; return it with the firing log."""
        firings: list[RuleFiring] = []
        current = e
        for _ in range(self.MAX_PASSES):
            rewritten = self._pass(current, firings)
            if rewritten == current:
                return rewritten, firings
            current = rewritten
        return current, firings

    def _pass(self, e: Expr, firings: list[RuleFiring]) -> Expr:
        e = map_children(e, lambda c: self._pass(c, firings))
        # Retry rules at this node until none fires (bounded by MAX_PASSES at
        # the top level; each firing strictly simplifies or changes the head).
        for _ in range(self.MAX_PASSES):
            replacement = self._apply_rules(e, firings)
            if replacement is None:
                return e
            e = replacement
        return e

    def _apply_rules(self, e: Expr, firings: list[RuleFiring]) -> Optional[Expr]:
        for r in self.rules:
            result = r.apply(e, self)
            if result is not None and result != e:
                firings.append(RuleFiring(r.name, e, result))
                return result
        return None


def rewrite(e: Expr, sigma: Signature = EMPTY_SIGMA) -> Expr:
    """Convenience: rewrite with the default registry, discarding the log."""
    return Rewriter(sigma=sigma).rewrite(e)[0]
