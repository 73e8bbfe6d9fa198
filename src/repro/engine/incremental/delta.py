"""Delta compilation: NRA view templates to maintenance plans.

Given a view template (an NRA expression whose free variables include the
names of *mutable base collections*), :func:`derive` produces a
:class:`DeltaOp` tree -- one node per maintainable operator -- that
:class:`~repro.engine.incremental.view.MaterializedView` executes against
changesets.  The discipline mirrors the sharder's
(:mod:`repro.engine.parallel.sharder`): a delta rule is accepted only where
it is a **syntactic theorem** of the pure, total object language, and
everything else degrades to an explicit ``recompute`` node rather than an
approximate rule.  The accepted shapes, and the rules they get:

``base``
    ``Var(c)`` for a mutable collection ``c``.  The changeset *is* the
    delta: ``+1`` per inserted element, ``-1`` per deleted one (sound
    because :class:`~repro.engine.incremental.changeset.Changeset` carries
    net, disjoint deltas).

``map`` / ``select`` / ``ext``
    ``ext(\\x. body)(src)`` where ``body`` mentions no mutable collection:
    ``ext`` distributes over union in its source, so each source delta
    element ``x`` contributes ``body(x)`` with the delta's sign.  The three
    kinds differ only in how the per-element set is produced (the same
    classification the vectorized compiler uses); all are **linear** rules
    over support counts.

``join``
    the equi-join nest :func:`repro.engine.shapes.match_join` recognises,
    with keys and output pure in their own side.  **Bilinear** rule
    ``delta(L >< R) = dL >< R_old  U  L_new >< dR`` over incrementally
    maintained hash indexes on both sides.

``union``
    linear in both operands; support counts make an element contributed by
    both sides survive the deletion of one.

``fixpoint``
    ``apply(loop/log_loop(step), (ctrl, base))`` where
    :func:`repro.engine.shapes.analyze_step` gives the step a shape -- the
    *same* analysis that makes the compiler's loop semi-naive, so a view is
    fixpoint-maintainable iff its loop runs semi-naively, and the node holds
    the :class:`~repro.engine.shapes.StepShape` itself.  The view builds the
    fixpoint and continues it after insertions on the compiler's own step
    runner (``resume``, the flat loop where the terms lower); deletions run
    **delete/rederive** (DRed) -- over-delete every derivation through a
    deleted element, re-prove the still-supported survivors, continue
    semi-naively (the ``ivm-dred-*`` nodes under the fixpoint in the
    rendered plan).  Whether a fixpoint is **indexed** is part of the same
    shape: ``StepShape.self_join`` is the ``(delta, acc)`` flat join spec
    when the step is strict (no loop-invariant branch) and its only other
    join term is its ``(acc, delta)`` mirror -- the bilinear self-join
    ``\\v. v U (v >< v)`` of the library's ``fix()``, with projection-chain
    keys and a pair of projection chains as output.  The plan shows it as
    ``bilinear-indexed``, and the view keeps counted two-sided indexes over
    the fixpoint on dense ids, so both DRed passes cost the derivation cone,
    never a full re-join.  Every other accepted step -- and an indexed node
    that meets a value outside the pair domain at run time -- runs DRed over
    the generic frontier terms.  Both are sound for exactly the accepted
    grammar, which is why no *extra* analysis gates them: a shape that
    compiles to ``fixpoint`` is deletion-maintainable, and a shape that does
    not never reaches DRed.

``static``
    any subexpression mentioning no mutable collection: evaluated once,
    never re-derived.

``recompute``
    everything else (difference/intersection bodies, correlated inner
    sources, steps that fail the inflationary analysis, keys that mix
    sides, ...): the plan marks where the rules run out.  A plan with
    any ``recompute`` node is not :meth:`~DeltaOp.maintainable`, and the
    view maintains it in whole-view recompute mode -- re-evaluate the
    template on every relevant commit and emit the diff -- so one awkward
    operator costs the whole view its delta rules.

:func:`maintenance_plan` renders the same tree as a
:class:`~repro.engine.vectorized.plan.PlanNode` (ops ``ivm-*``) for
``Engine.explain_plan(backend="incremental")`` and the strategy-selection
tests.  Compilation is pure analysis: no state is allocated here (that is
:mod:`repro.engine.incremental.view`'s job) and nothing is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...nra import ast
from ...nra.ast import Expr, free_variables, substitute
from ..shapes import StepShape, analyze_step, match_join
from ..vectorized.plan import PlanNode, node

#: The maintenance-rule vocabulary (``DeltaOp.kind`` ranges over these).
DELTA_KINDS = (
    "static", "base", "map", "select", "ext", "join", "union",
    "fixpoint", "recompute",
)


@dataclass(frozen=True)
class DeltaOp:
    """One node of a compiled maintenance plan (pure description, no state)."""

    kind: str
    expr: Expr
    children: tuple["DeltaOp", ...] = ()
    #: ``base``: the collection name.
    source: str = ""
    #: ``map``/``select``/``ext``: the bound element variable and set-valued body.
    var: str = ""
    body: Optional[Expr] = None
    #: ``join``: bound variables, key expressions, output expression.
    rvar: str = ""
    lkey: Optional[Expr] = None
    rkey: Optional[Expr] = None
    out: Optional[Expr] = None
    #: ``fixpoint``: the step lambda and its shape (frontier variable and
    #: terms, flat specs, and the self-join spec of an indexed fixpoint).
    step: Optional[ast.Lambda] = None
    shape: Optional[StepShape] = None

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def kinds(self) -> set[str]:
        """Every rule kind occurring in the plan (for strategy assertions)."""
        return {op.kind for op in self.walk()}

    def maintainable(self) -> bool:
        """True iff no node of the plan is a ``recompute`` fallback."""
        return "recompute" not in self.kinds()


def _bases_in(e: Expr, bases: frozenset[str]) -> frozenset[str]:
    return free_variables(e) & bases


def derive(e: Expr, bases: frozenset[str]) -> DeltaOp:
    """Compile the delta-maintenance plan for ``e`` over mutable ``bases``."""
    if not _bases_in(e, bases):
        return DeltaOp("static", e)
    if isinstance(e, ast.Var):
        return DeltaOp("base", e, source=e.name)
    if isinstance(e, ast.Union):
        return DeltaOp("union", e, (derive(e.left, bases), derive(e.right, bases)))
    if isinstance(e, ast.Apply):
        if isinstance(e.func, ast.Lambda):
            # A let-binding: inline it.  Duplicated occurrences are analysed
            # (and maintained) per occurrence, which is correct -- support
            # counts are per-node -- just not shared.
            return derive(substitute(e.func.body, e.func.var, e.arg), bases)
        if isinstance(e.func, ast.Ext) and isinstance(e.func.func, ast.Lambda):
            return _derive_ext(e, bases)
        if isinstance(e.func, (ast.Loop, ast.LogLoop)) and isinstance(e.arg, ast.Pair):
            fix = _derive_fixpoint(e, bases)
            if fix is not None:
                return fix
    return DeltaOp("recompute", e)


def _derive_ext(e: ast.Apply, bases: frozenset[str]) -> DeltaOp:
    f: ast.Lambda = e.func.func  # type: ignore[union-attr]
    src = e.arg
    var, body = f.var, f.body

    join = match_join(var, body)
    if join is not None:
        rvar, lkey, rkey, out, inner_src = join
        side_pure = (
            not ((free_variables(lkey) - {var}) & bases)
            and not ((free_variables(rkey) - {rvar}) & bases)
            and not ((free_variables(out) - {var, rvar}) & bases)
        )
        if side_pure:
            return DeltaOp(
                "join",
                e,
                (derive(src, bases), derive(inner_src, bases)),
                var=var,
                rvar=rvar,
                lkey=lkey,
                rkey=rkey,
                out=out,
            )
        return DeltaOp("recompute", e)

    if (free_variables(body) - {var}) & bases:
        # The body itself reads a mutable collection: per-element
        # contributions are no longer a pure function of the element.
        return DeltaOp("recompute", e)
    if isinstance(body, ast.Singleton):
        kind = "map"
    elif (
        isinstance(body, ast.If)
        and (
            (isinstance(body.then, ast.Singleton) and isinstance(body.orelse, ast.EmptySet))
            or (isinstance(body.orelse, ast.Singleton) and isinstance(body.then, ast.EmptySet))
        )
    ):
        kind = "select"
    else:
        kind = "ext"
    return DeltaOp(kind, e, (derive(src, bases),), var=var, body=body)


def _derive_fixpoint(e: ast.Apply, bases: frozenset[str]) -> Optional[DeltaOp]:
    step = e.func.step  # type: ignore[union-attr]
    ctrl, base_expr = e.arg.fst, e.arg.snd  # type: ignore[union-attr]
    if not isinstance(step, ast.Lambda):
        return None
    if (free_variables(step.body) - {step.var}) & bases:
        # The step reads a mutable collection beyond the accumulator: a
        # commit would change the step function itself, not just the seed.
        return None
    if _bases_in(ctrl, bases) != _bases_in(base_expr, bases):
        # The iteration budget must read exactly the collections the seed
        # reads.  A budget over extra collections could change without the
        # continuation seeing it; a budget over *fewer* (e.g. a constant
        # control set) stays fixed while the data grows, so a cold run's
        # round count can stop short of the fixpoint the continuation
        # reaches -- the build-time verification would pass on small data
        # and diverge later.  The library's ``fix()`` shape (control =
        # field of the seed relation) satisfies this exactly.
        return None
    shape = analyze_step(step)
    if shape is None:
        return None
    return DeltaOp("fixpoint", e, (derive(base_expr, bases),), step=step, shape=shape)


# ---------------------------------------------------------------------------
# Explain rendering
# ---------------------------------------------------------------------------

def _plan_of(op: DeltaOp) -> PlanNode:
    detail = ""
    annotations: tuple[str, ...] = ()
    children = [_plan_of(c) for c in op.children]
    if op.kind == "base":
        detail = op.source
    elif op.kind in ("map", "select", "ext"):
        detail = op.var
        annotations = ("counted",)
    elif op.kind == "join":
        detail = f"{op.var} x {op.rvar}"
        annotations = ("bilinear", "indexed")
    elif op.kind == "union":
        annotations = ("counted",)
    elif op.kind == "fixpoint":
        n_terms = len(op.shape.terms)
        detail = f"{n_terms} frontier terms"
        annotations = ("semi-naive continuation", "delete-rederive")
        # The deletion strategy, rendered as explicit sub-steps.  An indexed
        # fixpoint (fix()'s self-join over projection chains) keeps counted
        # two-sided indexes over the fixpoint itself: the over-deletion
        # sweep walks the derivation cone by index probes and rederivation
        # reads the remaining support counts.  Other accepted steps reuse
        # the continuation's frontier terms for the sweep and re-prove
        # survivors' one-step consequences with the step body.
        if op.shape.self_join is not None:
            annotations += ("bilinear-indexed",)
            children.append(node("ivm-dred-overdelete",
                                 "indexed derivation cone, counts decremented",
                                 annotations=("derivation-cone", "indexed")))
            children.append(node("ivm-dred-rederive",
                                 "surviving support counts + seed, then continuation",
                                 annotations=("semi-naive continuation",)))
        else:
            children.append(node("ivm-dred-overdelete",
                                 f"{n_terms} frontier terms over old fixpoint",
                                 annotations=("derivation-cone",)))
            children.append(node("ivm-dred-rederive",
                                 "seed + one-step support, then continuation",
                                 annotations=("semi-naive continuation",)))
    elif op.kind == "recompute":
        annotations = ("fallback",)
    return node(f"ivm-{op.kind}", detail, *children, annotations=annotations)


def maintenance_plan(e: Expr, bases: Optional[frozenset[str]] = None) -> PlanNode:
    """The maintenance-plan tree for ``e`` (``ivm-*`` ops, for explain/tests).

    ``bases`` defaults to every free variable of the expression -- the
    pessimistic view in which any named collection may be mutated, which is
    what ``Engine.explain_plan(backend="incremental")`` shows.
    """
    if bases is None:
        bases = free_variables(e)
    return _plan_of(derive(e, frozenset(bases)))
