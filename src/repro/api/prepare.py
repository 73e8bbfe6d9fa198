"""Templates: the shape of a query, split from the data it mentions.

In the paper a query is a *term* of NRA, identified up to renaming of bound
variables, and the literals it mentions are data like any other input.  The
engine's plan cache and the vectorized compile cache key on ``==`` of the
expression, which compares binder names (drawn from the process-wide
``fresh_name`` counter) and every spliced ``Const`` -- so two elaborations of
the same ``Q`` builder, or one query re-issued with another literal, are
different keys.  :func:`canonical_template` maps a term to the one
representative of its shape:

* a **template**: every ``Const`` is read from a free variable ``$cN`` in the
  reserved ``$`` namespace, and every ``Lambda`` binder is renamed to a name
  that is a function of the subterm it binds in alone;
* **slots**: name -> declared type, bound at execute time through the
  evaluation environment (exactly how collections already flow in), with the
  lifted literal kept as each slot's *default* binding.

A shape is recognized in one flat pass.  :func:`shape_key` walks the term
once and writes it as a token tuple in de Bruijn's nameless form: bound
variables become indices, constants become slot numbers, so alpha-equal
terms that differ only in their literals have ``==`` keys; the same pass
collects the literals.  The template is *built from the key*, so there is
one definition of a shape.  :func:`recognize` memoizes the build on the key
(at most :data:`MAX_SHAPES` shapes, safe across threads): a shape seen
before costs the walk and one dict lookup, and yields the *identical*
template object, whose hash ``Expr`` computed once -- the plan-cache lookup
downstream is then a hit by identity.

Everything a :class:`~repro.api.session.Session` or a
:class:`~repro.service.client.RemoteSession` runs that is not already a
:class:`PreparedStatement` goes through :func:`recognize`, so N executions of
one shape -- prepared or not, in process or over the wire, whatever their
literals -- cost one rewrite and one compile, then N environment lookups.
``Query.elaborate`` and ``Engine.run`` deliberately do not canonicalize: they
return and evaluate the literal term.  DESIGN.md ("Template keying") has the
naming scheme and why the obvious ones are wrong.
"""

from __future__ import annotations

import threading
from itertools import count
from sys import intern
from typing import Optional

from ..engine.engine import Engine
from ..nra.ast import NODE_FIELDS, Const, Expr, Lambda, Var
from ..objects.types import Type
from ..objects.values import Value
from .cursor import Cursor
from .query import param_var

#: The most shapes :func:`recognize` remembers: as many as an engine keeps
#: plans for.  Past it the oldest shape is forgotten (and rebuilt if seen again).
MAX_SHAPES = Engine.MAX_CACHED_PLANS

#: What a shape key denotes: (template, slot names, slot types).
Shape = tuple[Expr, tuple[str, ...], tuple[Type, ...]]

#: shape key -> shape, oldest first.
_shapes: dict[tuple, Shape] = {}
_shapes_lock = threading.Lock()


def shape_key(e: Expr) -> tuple[tuple, list[Value], set[str]]:
    """``e``'s shape as a flat token tuple, its literals, and its free names.

    One preorder walk.  A node contributes its class and its non-``Expr``
    fields, with its children inlined in field order, except that a bound
    ``Var`` is its de Bruijn index (an ``int``, 1 for the innermost binder;
    a free one keeps its name), a ``Lambda`` is its class, binder height and
    declared type (the binder's name is dropped), and a ``Const`` is its
    class, slot number -- the first occurrence of an equal ``(value, type)``
    -- and type.  The literals come back in slot order.  Two terms have
    ``==`` keys exactly when they are alpha-equal up to which values their
    constants hold (constants equal in one are equal in the other).
    """
    tokens: list = []
    emit = tokens.append
    consts: list[Value] = []
    slots: dict[tuple, int] = {}
    free: set[str] = set()
    bound: dict[str, int] = {}  # binder name -> the depth it was bound at

    def walk(x: Expr, depth: int) -> int:
        """Emit ``x``; return its binder height (its deepest lambda nesting)."""
        cls = x.__class__
        if cls is Var:
            level = bound.get(x.name)
            if level is None:
                free.add(x.name)
                emit(x.name)
            else:
                emit(depth - level)
            return 0
        if cls is Const:
            slot = slots.setdefault((x.value, x.type), len(slots))
            if slot == len(consts):
                consts.append(x.value)
            emit(Const)
            emit(slot)
            emit(x.type)
            return 0
        if cls is Lambda:
            emit(Lambda)
            at = len(tokens)
            emit(0)  # the height, known once the body is walked
            emit(x.var_type)
            outer = bound.get(x.var)
            bound[x.var] = depth
            h = tokens[at] = walk(x.body, depth + 1) + 1
            if outer is None:
                del bound[x.var]
            else:
                bound[x.var] = outer
            return h
        emit(cls)
        h = 0
        for name, child in NODE_FIELDS[cls]:
            if child:
                hc = walk(getattr(x, name), depth)
                if hc > h:
                    h = hc
            else:
                emit(getattr(x, name))
        return h

    walk(e, 0)
    return tuple(tokens), consts, free


def _build(key: tuple, free: set[str]) -> Shape:
    """The shape a :func:`shape_key` denotes.

    Binders are named ``%h`` after the height the key records; slots are
    named ``cN`` in order of first occurrence, skipping names ``free`` has.
    """
    tokens = iter(key)
    binders: list[str] = []  # innermost last: de Bruijn index i is binders[-i]
    names: list[str] = []
    types: list[Type] = []
    unused = (n for n in map("c{}".format, count()) if param_var(n) not in free)

    def build() -> Expr:
        tok = next(tokens)
        kind = tok.__class__
        if kind is int:
            return Var(binders[-tok])
        if kind is str:
            return Var(tok)
        if tok is Const:
            slot, typ = next(tokens), next(tokens)
            if slot == len(names):
                names.append(next(unused))
                types.append(typ)
            return Var(param_var(names[slot]))
        if tok is Lambda:
            # Interned: binders of one height share compiled ``Var`` closures,
            # whose environment lookups then hit by identity.
            name = intern(f"%{next(tokens)}")
            var_type = next(tokens)
            binders.append(name)
            body = build()
            binders.pop()
            return Lambda(name, var_type, body)
        return tok(*[build() if child else next(tokens) for _, child in NODE_FIELDS[tok]])

    return build(), tuple(names), tuple(types)


def _split(shape: Shape, consts: list[Value]) -> tuple[Expr, dict[str, Type], dict[str, Value]]:
    template, names, types = shape
    return template, dict(zip(names, types)), dict(zip(names, consts))


def canonical_template(e: Expr) -> tuple[Expr, dict[str, Type], dict[str, Value]]:
    """The canonical representative of ``e``'s shape, and the data it mentioned.

    Returns ``(template, slot_types, defaults)``.  The template reads each
    ``Const`` of ``e`` from the free variable ``$cN`` (``defaults`` maps the
    slot names back to the original values; structurally equal constants
    share one slot, and names free in ``e`` are skipped).
    ``BoolConst`` / ``EmptySet`` / ``UnitConst`` leaves are *not* lifted:
    they are language syntax, not data.

    Binders are renamed to ``%h``, ``h`` the *binder height*: 1 + the largest
    height among the lambdas inside the body.  Heights strictly decrease
    along every path, so no reference is captured; a subterm has the same
    names wherever it occurs (the compile cache and once-cells keep sharing
    the two ``r`` of ``nest(r)``, the second of which sits under the first's
    binder); and ``%h`` cannot collide with ``fresh_name``'s ``base%N``.  The
    function is idempotent, and alpha-equal terms that differ only in which
    values their constants hold have ``==`` templates.  It is
    :func:`shape_key`, then the build from the key; :func:`recognize` is the
    same with the build memoized.
    """
    key, consts, free = shape_key(e)
    return _split(_build(key, free), consts)


def recognize(e: Expr) -> tuple[Expr, dict[str, Type], dict[str, Value]]:
    """:func:`canonical_template`, built once per shape.

    A shape seen before returns the identical template object; the slot
    types and the defaults (this term's literals) are fresh dicts.
    """
    key, consts, free = shape_key(e)
    shape = _shapes.get(key)
    if shape is None:
        shape = _build(key, free)
        with _shapes_lock:
            if key not in _shapes:
                while len(_shapes) >= MAX_SHAPES:
                    del _shapes[next(iter(_shapes))]
                _shapes[key] = shape
            shape = _shapes[key]
    return _split(shape, consts)


class PreparedStatement:
    """A query prepared against one session: bound once, executed many times."""

    __slots__ = ("session", "template", "param_types", "defaults", "label")

    def __init__(
        self,
        session,
        template: Expr,
        param_types: dict[str, Type],
        defaults: Optional[dict[str, Value]] = None,
        label: str = "prepared",
    ) -> None:
        self.session = session
        self.template = template
        self.param_types = dict(param_types)
        self.defaults = dict(defaults or {})
        self.label = label

    @property
    def param_names(self) -> list[str]:
        return sorted(self.param_types)

    def execute(self, params: Optional[dict] = None, **named) -> Cursor:
        """Run the template with these bindings; plan caches hit by design."""
        bindings = dict(params or {})
        bindings.update(named)
        return self.session._execute_prepared(self, bindings)

    def executemany(self, bindings: list) -> list[Cursor]:
        """One cursor per binding (see :meth:`Session.executemany`)."""
        return self.session.executemany(self, bindings)

    def __repr__(self) -> str:
        ps = ", ".join(self.param_names)
        return f"<PreparedStatement {self.label} params=[{ps}]>"
