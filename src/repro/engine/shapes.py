"""Shape analysis: what an NRA expression is, syntactically.

The one module that decides which shape a subexpression has, for every
layer that acts on the answer: the rewriter's recursion rules, the
vectorized compiler's kernels and frontier loop, the router's join-order
rewrite and the incremental view's delta rules.  It reads expressions and
nothing else, so it imports only :mod:`repro.nra`, :mod:`repro.objects` and
the standard library, and any layer may import it without a cycle.

The central decision is :func:`analyze_step`: a fixpoint step ``\\v. v U
F(v)`` with ``F`` union-distributive only ever grows its accumulator, so
each round needs to re-derive only from the previous round's new elements
(the frontier).  Its :class:`StepShape` -- frontier terms, ``strict``, flat
join specs -- is what the compiler's loop runs.  A view does not read it:
the one fixpoint a view maintains is
:func:`~repro.nra.derived.seeded_closure`'s loop, which
:func:`~repro.nra.derived.match_seeded_closure` recognises whole.  Every
proof here is syntactic: no sampled algebraic gate is involved, so unlike
the cost-directed rewrite rules these analyses never mis-fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..nra import ast
from ..nra.ast import Expr, fresh_name, free_variables, map_children
from ..objects.types import ProdType, Type


# ---------------------------------------------------------------------------
# Variable placement
# ---------------------------------------------------------------------------

def _only_under(e: Expr, name: str, proj: type) -> bool:
    """True iff every occurrence of ``Var(name)`` in ``e`` sits under ``proj``
    (:class:`~repro.nra.ast.Proj1` or :class:`~repro.nra.ast.Proj2`)."""
    if isinstance(e, proj) and isinstance(e.pair, ast.Var) and e.pair.name == name:
        return True
    if isinstance(e, ast.Var):
        return e.name != name
    if isinstance(e, ast.Lambda) and e.var == name:
        return True
    return all(_only_under(c, name, proj) for c in e.children())


def _replace_under(e: Expr, name: str, proj: type, replacement: Expr) -> Expr:
    """Rewrite ``proj(Var(name))`` to ``replacement`` everywhere in ``e``."""
    if isinstance(e, proj) and isinstance(e.pair, ast.Var) and e.pair.name == name:
        return replacement
    if isinstance(e, ast.Lambda) and e.var == name:
        return e
    return map_children(e, lambda c: _replace_under(c, name, proj, replacement))


def union_operands(e: Expr) -> list[Expr]:
    """Flatten a ``Union`` tree into its operand list, in syntactic order."""
    if isinstance(e, ast.Union):
        return union_operands(e.left) + union_operands(e.right)
    return [e]


def is_inflationary_step(step: Expr) -> bool:
    """True iff ``step`` is syntactically ``\\v. v U ...``: a union tree with
    the loop variable itself as one operand, so ``step(v)`` is a superset of
    ``v`` for every set ``v``.  Inflationary steps form monotone iteration
    sequences, the precondition for frontier (semi-naive) evaluation."""
    if not isinstance(step, ast.Lambda):
        return False
    return any(
        isinstance(op, ast.Var) and op.name == step.var
        for op in union_operands(step.body)
    )


def insert_as_step(insert: Expr) -> Optional[ast.Lambda]:
    """View an ``sri``/``esr`` insert function as a pure iteration step.

    An insert ``\\z^(s x t). body`` that never looks at the inserted element
    (every occurrence of ``z`` is under ``pi2``) computes the same value for
    every element, so ``sri(e, i)(s)`` degenerates to iterating
    ``\\acc. body[pi2 z := acc]`` exactly ``|s|`` times -- the shape the
    paper's Proposition 6.6 PTIME queries take (e.g. transitive closure by
    ``sri``), and the entry point for the loop strategies of the vectorized
    backend.  Returns the step lambda, or ``None`` if the insert inspects the
    element (in which case only element-by-element evaluation is faithful).
    """
    if not (isinstance(insert, ast.Lambda) and isinstance(insert.var_type, ProdType)):
        return None
    if not _only_under(insert.body, insert.var, ast.Proj2):
        return None
    acc = fresh_name("acc")
    body = _replace_under(insert.body, insert.var, ast.Proj2, ast.Var(acc))
    return ast.Lambda(acc, insert.var_type.snd, body)


# ---------------------------------------------------------------------------
# Equi-joins
# ---------------------------------------------------------------------------

def match_join(lvar: str, body: Expr) -> Optional[tuple[str, Expr, Expr, Expr, Expr]]:
    """Recognise the equi-join ``ext`` body shape.

    Given the outer bound variable ``lvar`` and the outer ``ext`` body,
    returns ``(rvar, lkey, rkey, out, right_source)`` when the body is the
    nested ``ext(\\rvar. if lkey = rkey then {out} else {})(right)`` shape
    with an uncorrelated right source and side-pure keys -- the shape the
    vectorized backend hash-joins and the incremental subsystem maintains
    bilinearly -- or ``None``.
    """
    if not (
        isinstance(body, ast.Apply)
        and isinstance(body.func, ast.Ext)
        and isinstance(body.func.func, ast.Lambda)
    ):
        return None
    g = body.func.func
    inner_src = body.arg
    if lvar in free_variables(inner_src):
        return None  # correlated inner source: not a join
    inner = g.body
    rvar = g.var
    if rvar == lvar:
        return None
    if not (
        isinstance(inner, ast.If)
        and isinstance(inner.cond, ast.Eq)
        and isinstance(inner.then, ast.Singleton)
        and isinstance(inner.orelse, ast.EmptySet)
    ):
        return None
    a, b = inner.cond.left, inner.cond.right
    fa, fb = free_variables(a), free_variables(b)
    if rvar not in fa and lvar not in fb:
        lkey, rkey = a, b
    elif rvar not in fb and lvar not in fa:
        lkey, rkey = b, a
    else:
        return None  # a key mixes both sides: no hash index applies
    return (rvar, lkey, rkey, inner.then.item, inner_src)


@dataclass(frozen=True)
class JoinShape:
    """A whole equi-join application, decomposed (public analysis).

    ``Apply(Ext(\\lvar. Apply(Ext(\\rvar. if lkey = rkey then {out} else {}),
    right_source)), left_source)`` -- the shape :func:`match_join` recognises,
    lifted to the outer ``Apply`` so callers that reason about *both* sides
    (the backend router's join-order rewrite) see the sources and binder types
    together.  The compiler streams the left source and builds the hash index
    on the right source, so side choice is a performance decision the router
    owns; :meth:`swapped` rebuilds the same join with the sides exchanged.
    """

    lvar: str
    lvar_type: Type
    rvar: str
    rvar_type: Type
    lkey: Expr
    rkey: Expr
    out: Expr
    empty: Expr  # the typed EmptySet node of the non-matching branch
    left_source: Expr
    right_source: Expr

    def swapped(self) -> Expr:
        """The same join with streamed and indexed sides exchanged."""
        inner = ast.If(
            ast.Eq(self.rkey, self.lkey), ast.Singleton(self.out), self.empty
        )
        return ast.Apply(
            ast.Ext(
                ast.Lambda(
                    self.rvar,
                    self.rvar_type,
                    ast.Apply(
                        ast.Ext(ast.Lambda(self.lvar, self.lvar_type, inner)),
                        self.left_source,
                    ),
                )
            ),
            self.right_source,
        )


def match_join_apply(e: Expr) -> Optional[JoinShape]:
    """Decompose a full equi-join application, or return ``None``.

    Sides may only be exchanged without capture when neither binder occurs
    free in the *other* side's source; ``match_join`` already guarantees the
    right source is uncorrelated (no free ``lvar``), and this helper refuses
    the mirror case (a free variable merely *named* ``rvar`` in the left
    source would be captured by the swap).
    """
    if not (
        isinstance(e, ast.Apply)
        and isinstance(e.func, ast.Ext)
        and isinstance(e.func.func, ast.Lambda)
    ):
        return None
    f = e.func.func
    m = match_join(f.var, f.body)
    if m is None:
        return None
    rvar, lkey, rkey, out, right_source = m
    if rvar in free_variables(e.arg):
        return None
    inner_lambda = f.body.func.func  # the Ext's Lambda; shape checked by match_join
    return JoinShape(
        lvar=f.var,
        lvar_type=f.var_type,
        rvar=rvar,
        rvar_type=inner_lambda.var_type,
        lkey=lkey,
        rkey=rkey,
        out=out,
        empty=inner_lambda.body.orelse,
        left_source=e.arg,
        right_source=right_source,
    )


# ---------------------------------------------------------------------------
# Accessor paths: projection chains as column walks
# ---------------------------------------------------------------------------

def accessor_path(e: Expr, var: str) -> Optional[tuple[str, ...]]:
    """``e`` as a projection chain over ``Var(var)``, as column steps.

    ``pi2(pi1(x))`` becomes ``('f', 's')`` -- steps apply left to right from
    the element (``'f'`` = first, ``'s'`` = second).  Returns ``None`` when
    ``e`` is not a pure projection chain over ``var``.
    """
    steps: list[str] = []
    while isinstance(e, (ast.Proj1, ast.Proj2)):
        steps.append("f" if isinstance(e, ast.Proj1) else "s")
        e = e.pair
    if isinstance(e, ast.Var) and e.name == var:
        return tuple(reversed(steps))
    return None


def join_paths(lvar: str, rvar: str, lkey: Expr, rkey: Expr, out: Expr) -> Optional[tuple]:
    """A join's keys and output as accessor paths: ``(lpath, rpath, out_spec)``.

    The key paths run over each side's element; ``out_spec`` is
    ``("one", side, path)`` for an output that is one projection chain and
    ``("pair", (side, path), (side, path))`` for a syntactic ``Pair`` of
    them, ``side`` being ``'l'`` or ``'r'`` -- what the flat join kernel
    takes.  ``None`` unless both keys are paths over their own side and the
    output is one of those two shapes.
    """
    lp, rp = accessor_path(lkey, lvar), accessor_path(rkey, rvar)
    if lp is None or rp is None:
        return None

    def comp(e: Expr) -> Optional[tuple[str, tuple[str, ...]]]:
        p = accessor_path(e, lvar)
        if p is not None:
            return ("l", p)
        p = accessor_path(e, rvar)
        return None if p is None else ("r", p)

    c = comp(out)
    if c is not None:
        return lp, rp, ("one", *c)
    if isinstance(out, ast.Pair):
        ca, cb = comp(out.fst), comp(out.snd)
        if ca is not None and cb is not None:
            return lp, rp, ("pair", ca, cb)
    return None


def flat_out_spec(e: Expr, var: str) -> Optional[tuple]:
    """Lower a single-source kernel output to id columns, or ``None``."""
    p = accessor_path(e, var)
    if p is not None:
        return ("one", "l", p)
    if isinstance(e, ast.Pair):
        pa = accessor_path(e.fst, var)
        pb = accessor_path(e.snd, var)
        if pa is not None and pb is not None:
            return ("pair", ("l", pa), ("l", pb))
    return None


def flat_group_spec(item: Expr, var: str) -> Optional[tuple]:
    """Lower a grouped map's output ``(k(x), ext(\\y. if l(y) = k(x) then
    {o(y)} else {})(T))`` -- ``nest``, and any select per key of an outer
    set -- to ``(kpath, T, lpath, opath)``, or ``None``."""
    if not isinstance(item, ast.Pair):
        return None
    kpath = accessor_path(item.fst, var)
    join = match_join(var, item.snd) if kpath is not None else None
    if join is None:
        return None
    rvar, lkey, rkey, out, inner_src = join
    lpath, opath = accessor_path(rkey, rvar), accessor_path(out, rvar)
    if accessor_path(lkey, var) != kpath or lpath is None or opath is None:
        return None
    return kpath, inner_src, lpath, opath


def flat_unnest_spec(body: Expr, var: str) -> Optional[tuple]:
    """Lower an unnest's body ``ext(\\y. {(a, b)})(s(x))`` to ``(spath,
    apath, bpath)`` -- a component is a path of ``x``, or ``None`` for
    ``y`` itself -- or ``None``."""
    if not (
        isinstance(body, ast.Apply)
        and isinstance(body.func, ast.Ext)
        and isinstance(body.func.func, ast.Lambda)
    ):
        return None
    g, spath = body.func.func, accessor_path(body.arg, var)
    item = g.body.item if isinstance(g.body, ast.Singleton) else None
    if spath is None or g.var == var or not isinstance(item, ast.Pair):
        return None
    comps = (item.fst, item.snd)
    paths = [accessor_path(c, var) for c in comps]  # None: not a path of x
    if any(p is None and c != ast.Var(g.var) for p, c in zip(paths, comps)):
        return None
    return (spath, *paths)


# ---------------------------------------------------------------------------
# Fixpoint steps: frontier terms
# ---------------------------------------------------------------------------

def _delta_terms(e: Expr, v: str, dv: str) -> Optional[tuple[list[Expr], bool]]:
    """Decompose ``e`` as a union-distributive function of ``Var(v)``.

    Returns ``(terms, strict)``: expressions whose union, evaluated with ``v``
    bound to the current accumulator and ``dv`` to the frontier, covers every
    element ``e`` newly derives -- the semi-naive round.  The grammar accepted
    is exactly the fragment where distributivity ``e(a U b) = e(a) U e(b)`` is
    a syntactic theorem: the variable itself, unions, and ``ext`` applications
    whose source and/or parameter body are themselves distributive.  Returns
    ``None`` anywhere else (the loop then falls back to full iteration).

    ``strict`` says no branch was loop-invariant: every branch reads ``v``, so
    ``e({}) = {}``, and the terms evaluated with ``dv`` and ``v`` both bound to
    one set ``s`` compute all of ``e(s)`` -- round one is a frontier round.
    """
    if v not in free_variables(e):
        return [], False  # loop-invariant: derives nothing new after round one
    if isinstance(e, ast.Var) and e.name == v:
        return [ast.Var(dv)], True
    if isinstance(e, ast.Union):
        lhs = _delta_terms(e.left, v, dv)
        if lhs is None:
            return None
        rhs = _delta_terms(e.right, v, dv)
        if rhs is None:
            return None
        return lhs[0] + rhs[0], lhs[1] and rhs[1]
    if isinstance(e, ast.Apply) and isinstance(e.func, ast.Ext):
        f, src = e.func.func, e.arg
        terms: list[Expr] = []
        strict = True
        if v in free_variables(src):
            inner = _delta_terms(src, v, dv)
            if inner is None:
                return None
            terms.extend(ast.Apply(e.func, t) for t in inner[0])
            strict = inner[1]
        if v in free_variables(e.func):
            # The parameter mentions the accumulator (e.g. squaring
            # ``v o v``): decompose its body too, keeping the source at the
            # full accumulator -- together with the branch above this yields
            # the classical  J(delta, acc) U J(acc, delta)  bilinear rounds.
            if not (isinstance(f, ast.Lambda) and f.var != v):
                return None
            body_terms = _delta_terms(f.body, v, dv)
            if body_terms is None:
                return None
            terms.extend(
                ast.Apply(ast.Ext(ast.Lambda(f.var, f.var_type, t)), src)
                for t in body_terms[0]
            )
            strict = strict and body_terms[1]
        return terms, strict
    return None


# ---------------------------------------------------------------------------
# Fixpoint steps: frontier terms as flat joins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatTermSpec:
    """One frontier term lowered to a flat join (or the literal copy term).

    ``left``/``right`` classify the sources: ``'delta'`` (the frontier),
    ``'acc'`` (the accumulator), or ``'inv'`` (loop-invariant, carrying the
    source expression).  Keys and output components are accessor paths;
    output components carry their side (``'l'``/``'r'``).  Paths over the
    ``delta``/``acc`` sides are required non-empty: those rows exist only as
    ``(fst, snd)`` id pairs, never as interned elements.
    """

    left: str
    right: str
    left_src: Optional[Expr]
    right_src: Optional[Expr]
    lkey: tuple[str, ...]
    rkey: tuple[str, ...]
    out_a: tuple[str, tuple[str, ...]]  # (side, path)
    out_b: tuple[str, tuple[str, ...]]

    @cached_property
    def probe(self) -> tuple:
        """The static half of the term's probe plan, resolved once per spec.

        ``(a_left, b_left, lk, rk, oa, ob)``: whether the left row supplies
        each output component, then the left key, right key and output
        paths, each split into its head step (does it pick the row's fst:
        free) and the part walk left (rare).  An invariant side may carry an
        empty path; its rows are element ids, resolved by full-path walks
        when a loop is set up.
        """
        return (self.out_a[0] == "l", self.out_b[0] == "l",
                _head_rest(self.lkey), _head_rest(self.rkey),
                _head_rest(self.out_a[1]), _head_rest(self.out_b[1]))


def _head_rest(path: tuple[str, ...]) -> tuple[bool, tuple[str, ...]]:
    """A row-side path as (its head step picks ``fst``, the part walk left)."""
    return path[:1] == ("f",), path[1:]


def _classify_source(src: Expr, var: str, dv: str) -> tuple[Optional[str], Optional[Expr]]:
    if isinstance(src, ast.Var):
        if src.name == dv:
            return "delta", None
        if src.name == var:
            return "acc", None
    fv = free_variables(src)
    if var in fv or dv in fv:
        return None, None
    return "inv", src


def analyze_flat_terms(terms: list[Expr], var: str, dv: str) -> Optional[list]:
    """Lower semi-naive frontier terms to flat join specs, or ``None``.

    Accepts exactly: the copy term ``Var(dv)`` (represented as the string
    ``"copy"`` -- skippable, since the frontier is already in the
    accumulator), and equi-join terms whose keys are accessor paths, whose
    output is a syntactic ``Pair`` of per-side accessor paths, and whose
    sources are the frontier, the accumulator, or loop-invariant.  Anything
    else returns ``None`` and the loop runs the object semi-naive path.
    """
    specs: list = []
    for t in terms:
        if isinstance(t, ast.Var) and t.name == dv:
            specs.append("copy")
            continue
        if not (
            isinstance(t, ast.Apply)
            and isinstance(t.func, ast.Ext)
            and isinstance(t.func.func, ast.Lambda)
        ):
            return None
        f = t.func.func
        m = match_join(f.var, f.body)
        if m is None:
            return None
        rvar, lkey, rkey, out, rsrc = m
        lkind, lsrc = _classify_source(t.arg, var, dv)
        rkind, rsrc_expr = _classify_source(rsrc, var, dv)
        if lkind is None or rkind is None:
            return None
        paths = join_paths(f.var, rvar, lkey, rkey, out)
        if paths is None or paths[2][0] != "pair":
            return None
        lp, rp, (_, oa, ob) = paths
        # Rows of the delta/acc sides are (fst, snd) id pairs without an id
        # of their own: every path rooted there must project at least once.
        for kind, path in (
            (lkind, lp),
            (rkind, rp),
            (lkind if oa[0] == "l" else rkind, oa[1]),
            (lkind if ob[0] == "l" else rkind, ob[1]),
        ):
            if kind != "inv" and not path:
                return None
        specs.append(
            FlatTermSpec(lkind, rkind, lsrc, rsrc_expr, lp, rp, oa, ob)
        )
    if not any(isinstance(s, FlatTermSpec) for s in specs):
        return None  # nothing but copies: the flat loop would do no work
    return specs


# ---------------------------------------------------------------------------
# Fixpoint steps: the one decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepShape:
    """A fixpoint step that runs semi-naively, analysed once.

    ``terms``, evaluated with ``var`` bound to the accumulator and
    ``delta_var`` to the frontier, derive every element a round adds;
    ``strict`` says round one is a frontier round too (no loop-invariant
    branch).  ``flat`` lowers the terms to flat join specs (``"copy"`` or a
    :class:`FlatTermSpec` per term) when every term allows it, else
    ``None``.
    """

    var: str
    delta_var: str
    terms: tuple[Expr, ...]
    strict: bool
    flat: Optional[tuple] = None


def analyze_step(step: Expr) -> Optional[StepShape]:
    """The shape of a fixpoint step, or ``None`` when it is not semi-naive.

    A step runs semi-naively when it is inflationary (``\\v. v U ...``) and
    its body decomposes into frontier terms (:func:`_delta_terms`).  Each
    call names a fresh frontier variable.
    """
    if not (isinstance(step, ast.Lambda) and is_inflationary_step(step)):
        return None
    dv = fresh_name("delta")
    decomposed = _delta_terms(step.body, step.var, dv)
    if decomposed is None:
        return None
    terms, strict = decomposed
    flat = analyze_flat_terms(terms, step.var, dv)
    flat = None if flat is None else tuple(flat)
    return StepShape(step.var, dv, tuple(terms), strict, flat)
