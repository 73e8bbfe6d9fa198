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

Everything a :class:`~repro.api.session.Session` or a
:class:`~repro.service.client.RemoteSession` runs that is not already a
:class:`PreparedStatement` goes through this one function, so N executions of
one shape -- prepared or not, in process or over the wire, whatever their
literals -- cost one rewrite and one compile, then N environment lookups.
``Query.elaborate`` and ``Engine.run`` deliberately do not canonicalize: they
return and evaluate the literal term.  DESIGN.md ("Template keying") has the
naming scheme and why the obvious ones are wrong.
"""

from __future__ import annotations

from itertools import count
from sys import intern
from typing import Optional

from ..nra import ast
from ..nra.ast import Expr, Lambda, Var, map_children
from ..objects.types import Type
from ..objects.values import Value
from .cursor import Cursor
from .query import param_var


def canonical_template(e: Expr) -> tuple[Expr, dict[str, Type], dict[str, Value]]:
    """The canonical representative of ``e``'s shape, and the data it mentioned.

    Returns ``(template, slot_types, defaults)``.  The template reads each
    ``Const`` of ``e`` from the free variable ``$cN`` (``defaults`` maps the
    slot names back to the original values; structurally equal constants
    share one slot, and names already free in ``e`` are skipped).
    ``BoolConst`` / ``EmptySet`` / ``UnitConst`` leaves are *not* lifted:
    they are language syntax, not data.

    Binders are renamed to ``%h``, ``h`` the *binder height*: 1 + the largest
    height among the lambdas inside the body.  Heights strictly decrease
    along every path, so no reference is captured; a subterm has the same
    names wherever it occurs (the compile cache and once-cells keep sharing
    the two ``r`` of ``nest(r)``, the second of which sits under the first's
    binder); and ``%h`` cannot collide with ``fresh_name``'s ``base%N``.  The
    function is idempotent, and alpha-equal terms that differ only in which
    values their constants hold have ``==`` templates.
    """
    heights: dict[int, int] = {}  # id(Lambda) -> binder height
    mentioned: set[str] = set()  # every variable name, free or bound

    def measure(x: Expr) -> int:
        if isinstance(x, Var):
            mentioned.add(x.name)
            return 0
        h = max(map(measure, x.children()), default=0)
        if isinstance(x, Lambda):
            h = heights[id(x)] = h + 1
        return h

    measure(e)
    unused = (n for n in map("c{}".format, count()) if param_var(n) not in mentioned)
    slots: dict[tuple, str] = {}
    types: dict[str, Type] = {}
    defaults: dict[str, Value] = {}

    def walk(x: Expr, bound: dict[str, str]) -> Expr:
        if isinstance(x, Var):
            return Var(bound[x.name]) if x.name in bound else x
        if isinstance(x, ast.Const):
            key = (x.value, x.type)
            name = slots.get(key)
            if name is None:
                name = slots[key] = next(unused)
                types[name] = x.type
                defaults[name] = x.value
            return Var(param_var(name))
        if isinstance(x, Lambda):
            # Interned: binders of one height share compiled ``Var`` closures,
            # whose environment lookups then hit by identity.
            name = intern(f"%{heights[id(x)]}")
            return Lambda(name, x.var_type, walk(x.body, {**bound, x.var: name}))
        return map_children(x, lambda c: walk(c, bound))

    return walk(e, {}), types, defaults


class PreparedStatement:
    """A query prepared against one session: bound once, executed many times."""

    __slots__ = ("session", "template", "param_types", "defaults", "label", "backend")

    def __init__(
        self,
        session,
        template: Expr,
        param_types: dict[str, Type],
        defaults: Optional[dict[str, Value]] = None,
        label: str = "prepared",
        backend: Optional[str] = None,
    ) -> None:
        self.session = session
        self.template = template
        self.param_types = dict(param_types)
        self.defaults = dict(defaults or {})
        self.label = label
        self.backend = backend

    @property
    def param_names(self) -> list[str]:
        return sorted(self.param_types)

    def execute(self, params: Optional[dict] = None, **named) -> Cursor:
        """Run the template with these bindings; plan caches hit by design."""
        bindings = dict(params or {})
        bindings.update(named)
        return self.session._execute_prepared(self, bindings)

    def executemany(self, bindings: list) -> list[Cursor]:
        """One cursor per binding, all through the session's batch path."""
        return self.session.executemany(self, bindings)

    def __repr__(self) -> str:
        ps = ", ".join(self.param_names)
        return f"<PreparedStatement {self.label} params=[{ps}]>"
