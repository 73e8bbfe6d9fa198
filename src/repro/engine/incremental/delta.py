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

``compose``
    :func:`~repro.nra.derived.compose`, ``L o R`` over one base type, in
    either stream direction (:func:`~repro.nra.derived.match_compose`):
    the two-hop join inside Example 7.1's closure.  The **bilinear** rule
    below on packed pair codes, the linear fixpoint's own probe: ``L``
    indexed on its ``snd``, ``R`` on its ``fst``, support counts over
    ``L x R`` -- no compiled key or output closure and no pair per
    derivation.  Rendered as ``ivm-join [compose]``.

``join``
    any other equi-join nest :func:`repro.engine.shapes.match_join`
    recognises (a correlated ``flat_map``, ``Q.join`` on other keys), with
    keys and output pure in their own side.  **Bilinear** rule
    ``delta(L >< R) = dL >< R_old  U  L_new >< dR`` over incrementally
    maintained hash indexes on both sides.

``union``
    linear in both operands; support counts make an element contributed by
    both sides survive the deletion of one.

``fixpoint``
    :func:`~repro.nra.derived.seeded_closure` over its relation's own field,
    ``loop(\\rr. rr U rr o R)(field_of(R), seed)`` or ``rr U R o rr``, with
    ``R`` reading a mutable collection
    (:func:`~repro.nra.derived.match_seeded_closure`).  The node maintains
    the *least* fixpoint and the template means the loop's bounded rounds,
    so they are one value only where the budget is a theorem at every
    database state; nothing checks it at build.  This one is:
    ``|field_of(R)|`` rounds reach every simple path of ``R`` from every
    seed.  The seed is the node's first child and ``R`` its second, each
    maintained like any other.  The view keeps support counts over
    accumulator x ``R`` with the accumulator indexed on its join key and
    ``R`` on its own, on dense ids -- a new tuple probes ``R``'s index, a
    change to ``R`` is one more delta term that probes the accumulator's --
    and deletions run **delete/rederive** (DRed) over them: over-delete
    every derivation through a deleted element, re-prove the
    still-supported survivors, continue (the ``ivm-dred-*`` nodes under the
    fixpoint in the rendered plan).  This is counting/DRed for linear
    recursion (Gupta, Mumick and Subrahmanian, SIGMOD 1993).  ``closure(R)``
    -- Example 7.1's repeated squaring, the library's ``fix()`` -- is
    maintained as the equal linear ``seeded_closure(R, field_of(R), R)``:
    squaring buys logarithmic depth with extra work, and a commit pays only
    the work (each closure tuple has one derivation per in-edge instead of
    one per intermediate node).  Every other loop -- a squaring ``closure``
    does not match, a step reading a constant, another join, a map over the
    accumulator, another budget -- is ``recompute``: a budget fixed while
    the data grows, or one over a collection that shrinks, can stop short
    of the fixpoint the passes reach.

``static``
    any subexpression mentioning no mutable collection: evaluated once,
    never re-derived.

``recompute``
    everything else (difference/intersection bodies, correlated inner
    sources, loops other than the seeded closure, keys that mix sides,
    ...): the plan marks where the rules run out.  A plan with
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
from ...nra.derived import (
    field_of, match_closure, match_compose, match_seeded_closure, seeded_closure,
)
from ..shapes import match_join
from ..vectorized.plan import PlanNode, node

#: The maintenance-rule vocabulary (``DeltaOp.kind`` ranges over these).
DELTA_KINDS = (
    "static", "base", "map", "select", "ext", "compose", "join", "union",
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
    #: ``fixpoint``: the step is ``rr U R o rr`` rather than ``rr U rr o R``.
    backward: bool = False

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


def derive(e: Expr, bases: frozenset[str]) -> DeltaOp:
    """Compile the delta-maintenance plan for ``e`` over mutable ``bases``."""
    if not free_variables(e) & bases:
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
        found = match_closure(e)
        if found is not None:
            r, base = found
            e = seeded_closure(r, field_of(r, base, base), r, base)
        fix = match_seeded_closure(e)
        # R reads a mutable collection: a commit to it is the pass's second term.
        if fix is not None and free_variables(fix[0]) & bases:
            r, seed, _, backward = fix
            return DeltaOp("fixpoint", e, (derive(seed, bases), derive(r, bases)),
                           backward=backward)
    return DeltaOp("recompute", e)


def _derive_ext(e: ast.Apply, bases: frozenset[str]) -> DeltaOp:
    f: ast.Lambda = e.func.func  # type: ignore[union-attr]
    src = e.arg
    var, body = f.var, f.body

    found = match_compose(e)
    if found is not None:
        r1, r2, _, _ = found
        return DeltaOp("compose", e, (derive(r1, bases), derive(r2, bases)))
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


# ---------------------------------------------------------------------------
# Explain rendering
# ---------------------------------------------------------------------------

def plan_of(op: DeltaOp) -> PlanNode:
    """A compiled maintenance plan rendered as ``ivm-*`` plan nodes."""
    detail = ""
    annotations: tuple[str, ...] = ()
    children = [plan_of(c) for c in op.children]
    if op.kind == "base":
        detail = op.source
    elif op.kind in ("map", "select", "ext"):
        detail = op.var
        annotations = ("counted",)
    elif op.kind == "join":
        detail = f"{op.var} x {op.rvar}"
        annotations = ("bilinear", "indexed")
    elif op.kind == "compose":
        # A join in the plan vocabulary, counted on pair codes.
        return node("ivm-join", "compose", *children,
                    annotations=("bilinear", "linear-indexed"))
    elif op.kind == "union":
        annotations = ("counted",)
    elif op.kind == "fixpoint":
        detail = "rr U R o rr" if op.backward else "rr U rr o R"
        # The deletion strategy, rendered as explicit sub-steps: the node
        # counts its derivations over accumulator x base on dense ids, the
        # over-deletion walks the derivation cone by index probes and
        # rederivation reads the remaining support counts.
        annotations = ("semi-naive continuation", "delete-rederive", "linear-indexed")
        children.append(node("ivm-dred-overdelete",
                             "indexed derivation cone, counts decremented",
                             annotations=("derivation-cone", "indexed")))
        children.append(node("ivm-dred-rederive",
                             "surviving support counts + seed, base delta, continuation",
                             annotations=("counted continuation",)))
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
    return plan_of(derive(e, frozenset(bases)))
