"""Abstract syntax of the nested relational algebra NRA (Section 3).

The paper presents NRA as a simply-typed combinator calculus over complex
object types, with the following constructs (we keep the paper's names where
reasonable):

====================  =======================================================
construct             meaning
====================  =======================================================
``EmptySet``          the empty set ``{} : {t}``
``Singleton(e)``      the singleton set ``{e}``
``Union(e1, e2)``     set union
``UnitConst``         the empty tuple ``() : unit``
``Pair(e1, e2)``      pair formation
``Proj1(e)``/...      the projections ``pi1``, ``pi2``
``BoolConst(b)``      ``true`` / ``false``
``Eq(e1, e2)``        equality (primitive at base type; the evaluator accepts
                      it at all types, as the paper notes equality at all
                      types is definable)
``IsEmpty(e)``        the ``empty(e)`` test
``If(c, e1, e2)``     conditional
``Var``, ``Lambda``,  variables, abstraction and application (functions are
``Apply``             second class: they may not appear inside sets)
``Ext(f)``            ``ext(f)({x1, ..., xn}) = f(x1) U ... U f(xn)``
``ExternalCall``      application of a named external function from a
                      signature ``Sigma`` (e.g. the order ``<=``)
``Const(v)``          literal embedding of a complex object value
====================  =======================================================

plus the recursion and iteration constructs of Sections 2 and 7.1:
``Dcr``, ``Sru``, ``Sri``, ``Esr``, their bounded versions ``Bdcr`` and
``Bsri``, and the iterators ``Loop``, ``LogLoop``, ``Bloop``, ``BlogLoop``.

Each node is an immutable dataclass.  Variables are identified by name;
``Lambda`` stores the declared type of its variable, as in the paper's
``\\x^s. e``.  All node classes carry ``slots=True``: expressions are interned
into engine-side caches (plan cache, compile cache, the rewriter's ACU cache) and
slotted frozen dataclasses both shrink the nodes and keep attribute access on
the hot evaluator dispatch paths cheap; each node computes its structural
hash once, on first use, so a cache lookup by a tree already seen never
re-walks it.  The helpers at the bottom
(:func:`free_variables`, :func:`subexpressions`, :func:`substitute`,
:func:`expr_size`) are what the type checker, the depth analysis, the
evaluators and the compiler build on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import is_
from typing import Iterator, Optional

from ..objects.types import Type
from ..objects.values import Value


class Expr:
    """Base class of NRA expressions."""

    # The structural hash, filled in by the first ``__hash__``.  A slot, not
    # a field: ``==``, ``fields()``, ``repr`` and pickled state never see it.
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        # The hash a frozen dataclass would compute, once per node: nodes are
        # immutable, and the generated hash re-walks the whole tree on every
        # plan-cache or compile-cache lookup.
        try:
            return self._hash
        except AttributeError:
            names = self.__dataclass_fields__  # type: ignore[attr-defined]
            h = hash(tuple([getattr(self, name) for name in names]))
            object.__setattr__(self, "_hash", h)
            return h

    def children(self) -> Iterator["Expr"]:
        """Yield the immediate subexpressions, in syntactic order."""
        # The class's own field table, not ``dataclasses.fields`` (which
        # filters and copies it per call): every traversal comes through here.
        for name in self.__dataclass_fields__:  # type: ignore[attr-defined]
            v = getattr(self, name)
            if isinstance(v, Expr):
                yield v

    def __repr__(self) -> str:
        from .pretty import pretty

        return pretty(self)


#: Each node class's fields in declaration order, as ``(name, is_child)``:
#: the table flat walks dispatch on instead of ``isinstance`` chains.
NODE_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = {}


def _node(cls: type) -> type:
    """Declare an expression node: a frozen, slotted dataclass hashed once."""
    cls = dataclass(frozen=True, repr=False, slots=True)(cls)
    cls.__hash__ = Expr.__hash__  # not the generated, recursive one
    NODE_FIELDS[cls] = tuple((f.name, f.type == "Expr") for f in fields(cls))
    return cls


# ---------------------------------------------------------------------------
# Core constructs
# ---------------------------------------------------------------------------

@_node
class Const(Expr):
    """A literal complex object value, with its type."""

    value: Value
    type: Type


@_node
class EmptySet(Expr):
    """The empty set at element type ``elem_type``: ``{} : {elem_type}``."""

    elem_type: Type


@_node
class Singleton(Expr):
    """The singleton set ``{e}``."""

    item: Expr


@_node
class Union(Expr):
    """Set union ``e1 U e2``."""

    left: Expr
    right: Expr


@_node
class UnitConst(Expr):
    """The empty tuple ``()`` of type ``unit``."""


@_node
class Pair(Expr):
    """Pair formation ``(e1, e2)``."""

    fst: Expr
    snd: Expr


@_node
class Proj1(Expr):
    """First projection ``pi1 e``."""

    pair: Expr


@_node
class Proj2(Expr):
    """Second projection ``pi2 e``."""

    pair: Expr


@_node
class BoolConst(Expr):
    """A boolean constant ``true`` or ``false``."""

    value: bool


@_node
class Eq(Expr):
    """Equality test ``e1 = e2``.

    The paper's grammar gives equality at the base type ``D`` only and notes
    that equality at all types is then expressible; for convenience the
    evaluator accepts ``Eq`` at every type (structural equality of canonical
    values), and the type checker only requires both sides to have the same
    type.
    """

    left: Expr
    right: Expr


@_node
class IsEmpty(Expr):
    """The emptiness test ``empty(e) : B``."""

    set: Expr


@_node
class If(Expr):
    """Conditional ``if c then e1 else e2``."""

    cond: Expr
    then: Expr
    orelse: Expr


@_node
class Var(Expr):
    """A variable occurrence.  The type is attached by ``Lambda`` binders."""

    name: str


@_node
class Lambda(Expr):
    """Function abstraction ``\\x^s. body`` with declared argument type ``s``."""

    var: str
    var_type: Type
    body: Expr


@_node
class Apply(Expr):
    """Function application ``f(e)``."""

    func: Expr
    arg: Expr


@_node
class Ext(Expr):
    """The ``ext(f)`` construct: map ``f`` over a set and union the results.

    ``ext(f)({x1, ..., xn}) = f(x1) U ... U f(xn)``.  The paper keeps this as
    a primitive (rather than defining it with ``sru``) precisely because it is
    a *single* parallel step: all ``f(xi)`` are independent.
    """

    func: Expr


@_node
class ExternalCall(Expr):
    """Application of a named external function to an argument expression.

    External functions come from a signature ``Sigma`` (see
    :mod:`repro.nra.externals`); the distinguished order predicate ``<=`` of
    the ordered languages ``NRA(<=)`` is one of them.
    """

    name: str
    arg: Expr


# ---------------------------------------------------------------------------
# Recursion on sets and iterators
# ---------------------------------------------------------------------------

@_node
class Dcr(Expr):
    """Divide and conquer recursion ``dcr(e, f, u)`` as a function ``{s} -> t``.

    ``seed`` is the value at the empty set, ``item`` the function applied to
    singletons, ``combine`` the binary combination.  The node itself denotes a
    *function*; apply it to a set with :class:`Apply`.
    """

    seed: Expr
    item: Expr
    combine: Expr


@_node
class Sru(Expr):
    """Structural recursion on the union presentation, ``sru(e, f, u)``."""

    seed: Expr
    item: Expr
    combine: Expr


@_node
class Sri(Expr):
    """Structural recursion on the insert presentation, ``sri(e, i)``."""

    seed: Expr
    insert: Expr


@_node
class Esr(Expr):
    """Element-step recursion ``esr(e, i)``."""

    seed: Expr
    insert: Expr


@_node
class Bdcr(Expr):
    """Bounded divide and conquer recursion ``bdcr(e, f, u, b)``."""

    seed: Expr
    item: Expr
    combine: Expr
    bound: Expr


@_node
class Bsri(Expr):
    """Bounded insert recursion ``bsri(e, i, b)``."""

    seed: Expr
    insert: Expr
    bound: Expr


@_node
class LogLoop(Expr):
    """The logarithmic iterator ``log_loop(f) : {s} x t -> t`` (Section 7.1).

    ``set_elem_type`` is the element type ``s`` of the set whose cardinality
    controls the number of iterations; the paper leaves it implicit, but the
    combinator typing needs it spelled out.
    """

    step: Expr
    set_elem_type: Type


@_node
class Loop(Expr):
    """The linear iterator ``loop(f) : {s} x t -> t``."""

    step: Expr
    set_elem_type: Type


@_node
class BlogLoop(Expr):
    """The bounded logarithmic iterator ``blog_loop(f, b)``."""

    step: Expr
    bound: Expr
    set_elem_type: Type


@_node
class Bloop(Expr):
    """The bounded linear iterator ``bloop(f, b)``."""

    step: Expr
    bound: Expr
    set_elem_type: Type


#: Nodes that denote one of the recursion-on-sets constructs (used by the
#: depth analysis and the sublanguage restrictions).
RECURSION_NODES = (Dcr, Sru, Sri, Esr, Bdcr, Bsri)
#: Nodes that denote one of the iterators.
ITERATOR_NODES = (LogLoop, Loop, BlogLoop, Bloop)


# ---------------------------------------------------------------------------
# Generic helpers
# ---------------------------------------------------------------------------

def subexpressions(e: Expr) -> Iterator[Expr]:
    """Yield ``e`` and all of its subexpressions, preorder."""
    yield e
    for child in e.children():
        yield from subexpressions(child)


def expr_size(e: Expr) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in subexpressions(e))


def free_variables(e: Expr) -> frozenset[str]:
    """The free variables of an expression."""
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, Lambda):
        return free_variables(e.body) - {e.var}
    result: frozenset[str] = frozenset()
    for child in e.children():
        result |= free_variables(child)
    return result


def map_children(e: Expr, fn) -> Expr:
    """Apply ``fn`` to each immediate subexpression and rebuild the node.

    Non-``Expr`` fields are preserved; a node none of whose children changed
    is returned as it is.
    """
    old = [getattr(e, name) for name in e.__dataclass_fields__]  # type: ignore[attr-defined]
    new = [fn(v) if isinstance(v, Expr) else v for v in old]
    return e if all(map(is_, old, new)) else type(e)(*new)


_FRESH_COUNTER = [0]


def fresh_name(base: str = "x") -> str:
    """Generate a variable name not used before in this process.

    Never a bare ``%N``: those are the canonical binders of query templates
    (whose base, when one is renamed, is empty).
    """
    _FRESH_COUNTER[0] += 1
    return f"{base or 'v'}%{_FRESH_COUNTER[0]}"


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Capture-avoiding substitution of ``replacement`` for ``Var(name)`` in ``e``."""
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Lambda):
        if e.var == name:
            return e
        if e.var in free_variables(replacement):
            renamed = fresh_name(e.var.split("%")[0])
            body = substitute(e.body, e.var, Var(renamed))
            return Lambda(renamed, e.var_type, substitute(body, name, replacement))
        return Lambda(e.var, e.var_type, substitute(e.body, name, replacement))
    return map_children(e, lambda c: substitute(c, name, replacement))


def alpha_equal(a: Expr, b: Expr) -> bool:
    """Structural equality up to consistent renaming of bound variables.

    ``==`` on expressions compares binder names too, and every derived-form
    builder draws its binders from :func:`fresh_name`; this is the comparison
    under which two calls of the same builder agree.
    """
    return _alpha_equal(a, b, {}, {}, 0)


def _alpha_equal(a: Expr, b: Expr, abound: dict, bbound: dict, depth: int) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        # Bound occurrences must point at the same binder (numbered by
        # nesting depth); free ones must carry the same name.
        la, lb = abound.get(a.name), bbound.get(b.name)
        return la == lb and (la is not None or a.name == b.name)
    if isinstance(a, Lambda):
        return a.var_type == b.var_type and _alpha_equal(
            a.body, b.body, {**abound, a.var: depth}, {**bbound, b.var: depth}, depth + 1
        )
    for f in fields(a):  # type: ignore[arg-type]
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, Expr):
            if not (isinstance(y, Expr) and _alpha_equal(x, y, abound, bbound, depth)):
                return False
        elif x != y:
            return False
    return True


def lam(var: str, var_type: Type, body: Expr) -> Lambda:
    """Convenience constructor for :class:`Lambda`."""
    return Lambda(var, var_type, body)


def lam2(x: str, x_type: Type, y: str, y_type: Type, body: Expr) -> Lambda:
    """The paper's ``\\(x, y). e`` sugar: a unary lambda over a pair.

    ``lam2(x, sx, y, sy, e)`` builds ``\\z^(sx x sy). e[pi1 z / x, pi2 z / y]``.
    """
    from ..objects.types import ProdType

    z = fresh_name("p")
    body2 = substitute(body, x, Proj1(Var(z)))
    body2 = substitute(body2, y, Proj2(Var(z)))
    return Lambda(z, ProdType(x_type, y_type), body2)
