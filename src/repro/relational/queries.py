"""A library of NRA queries from the paper, in several evaluation styles.

Every query in the paper's narrative is provided as a ready-made NRA
expression (a :class:`repro.nra.ast.Lambda` from the input relation to the
result), in up to three styles:

* the **dcr** style (divide and conquer; Section 1) -- logarithmic combining
  depth, the NC witness;
* the **log_loop** style (Example 7.1) -- repeated squaring, also logarithmic;
* the **sri / esr** style -- element-by-element, the PTIME flavour of
  Proposition 6.6 used as the sequential baseline.

The builders return plain expressions, so they can be type checked, evaluated
by either evaluator, compiled to circuits, or pretty printed.  The helpers at
the bottom run a query against a :class:`repro.relational.relation.Relation`
and hand back plain Python data, which is what the examples and benchmarks
use.

For the query-service API (:mod:`repro.api`) the same library is exposed a
second time as fluent :class:`~repro.api.query.Query` values over named
collections -- see :func:`query_library` and the ``*_query`` builders at the
bottom: ``session.execute(transitive_closure_query())`` runs the paper's
Section 1 construction against the session's ``"edges"`` collection without
the caller ever touching an AST node.
"""

from __future__ import annotations

from ..objects.types import BASE, BOOL, ProdType, SetType
from ..objects.values import SetVal, Value, to_python
from ..nra.ast import (
    Apply,
    BoolConst,
    Dcr,
    EmptySet,
    Eq,
    Esr,
    Expr,
    If,
    Lambda,
    Pair,
    Proj1,
    Proj2,
    Sri,
    Union,
    Var,
    lam2,
)
from ..nra.derived import closure, compose, field_of
from ..nra.eval import run
from .relation import Relation

#: The type ``D x D`` of graph edges.
EDGE_T = ProdType(BASE, BASE)
#: The type ``{D x D}`` of binary relations (graphs).
REL_T = SetType(EDGE_T)
#: The type ``D x B`` of boolean-tagged elements used by the parity queries.
TAGGED_BOOL_T = ProdType(BASE, BOOL)


# ---------------------------------------------------------------------------
# Boolean XOR (the combining operation of parity)
# ---------------------------------------------------------------------------

def xor_lambda() -> Lambda:
    """``\\(v1, v2). v1 xor v2`` as an NRA function ``B x B -> B``."""
    return lam2(
        "v1", BOOL, "v2", BOOL,
        If(Eq(Var("v1"), Var("v2")), BoolConst(False), BoolConst(True)),
    )


# ---------------------------------------------------------------------------
# Parity (Section 1)
# ---------------------------------------------------------------------------

def parity_dcr() -> Lambda:
    """Parity of a set of tagged booleans, by divide and conquer.

    Input type ``{D x B}``; the paper's instance ``dcr(false, \\y. pi2 y, xor)``.
    The tag (first component) keeps equal booleans distinct inside the set.
    """
    phi = Dcr(
        BoolConst(False),
        Lambda("y", TAGGED_BOOL_T, Proj2(Var("y"))),
        xor_lambda(),
    )
    return Lambda("s", SetType(TAGGED_BOOL_T), Apply(phi, Var("s")))


def parity_esr() -> Lambda:
    """Parity by element-step recursion (the sequential baseline)."""
    phi = Esr(
        BoolConst(False),
        lam2("y", TAGGED_BOOL_T, "acc", BOOL,
             If(Eq(Proj2(Var("y")), Var("acc")), BoolConst(False), BoolConst(True))),
    )
    return Lambda("s", SetType(TAGGED_BOOL_T), Apply(phi, Var("s")))


def parity_esr_translated() -> Lambda:
    """Parity as the *image* of the Proposition 2.1 translation.

    ``dcr(e, f, u)`` translates to ``esr(e, (x, y) -> u(f(x), y))``; this
    builder writes parity in exactly that translated shape,
    ``esr(false, \\z. xor((\\y. pi2 y)(pi1 z), pi2 z))``.  Evaluated directly
    it exhibits the linear dependent chain of the insert recursions; the
    optimizing engine's ``sri-to-dcr`` rule recognises the shape, re-checks
    the algebraic side conditions, and rewrites it back to the logarithmic
    ``dcr`` form -- see :mod:`repro.engine.rewrite`.
    """
    z = "z"
    f = Lambda("y", TAGGED_BOOL_T, Proj2(Var("y")))
    step = Lambda(
        z,
        ProdType(TAGGED_BOOL_T, BOOL),
        Apply(xor_lambda(), Pair(Apply(f, Proj1(Var(z))), Proj2(Var(z)))),
    )
    phi = Esr(BoolConst(False), step)
    return Lambda("s", SetType(TAGGED_BOOL_T), Apply(phi, Var("s")))


def cardinality_parity_dcr() -> Lambda:
    """Parity of the *cardinality* of a set of atoms, ``{D} -> B``.

    ``dcr(false, \\x. true, xor)``: each element contributes ``true``; the
    combining tree XORs them, yielding ``|s| mod 2``.  This is the query
    first-order logic (without order/BIT) famously cannot express, while a
    single unnested ``dcr`` does.
    """
    phi = Dcr(
        BoolConst(False),
        Lambda("x", BASE, BoolConst(True)),
        xor_lambda(),
    )
    return Lambda("s", SetType(BASE), Apply(phi, Var("s")))


# ---------------------------------------------------------------------------
# Transitive closure (Section 1 and Example 7.1)
# ---------------------------------------------------------------------------

def tc_combine_lambda() -> Lambda:
    """``\\(r1, r2). r1 U r2 U (r1 o r2)``: the combining operation of TC-by-dcr."""
    return lam2(
        "r1", REL_T, "r2", REL_T,
        Union(Union(Var("r1"), Var("r2")), compose(Var("r1"), Var("r2"), BASE)),
    )


def transitive_closure_dcr() -> Lambda:
    """Transitive closure by divide and conquer (the Section 1 construction).

    ``phi = dcr(emptyset, \\y. r, \\(r1, r2). r1 U r2 U r1 o r2)`` applied to
    ``Pi1(r) U Pi2(r)``: the recursion runs over the *nodes*, so the combining
    tree has depth ``ceil(log2 n)`` and each level extends path lengths
    multiplicatively, covering all paths of the n-node graph.
    """
    r = Var("r")
    phi = Dcr(
        EmptySet(EDGE_T),
        Lambda("y", BASE, r),
        tc_combine_lambda(),
    )
    body = Apply(phi, field_of(r, BASE, BASE))
    return Lambda("r", REL_T, body)


def transitive_closure_logloop() -> Lambda:
    """Transitive closure by repeated squaring with ``log_loop`` (Example 7.1).

    ``v = Pi1(r) U Pi2(r)``; repeat ``ceil(log(n+1))`` times
    ``rr <- rr U rr o rr`` starting from ``r``.
    """
    return Lambda("r", REL_T, closure(Var("r"), BASE))


def transitive_closure_sri() -> Lambda:
    """Transitive closure by element-by-element recursion (the PTIME style).

    ``sri`` over the node set; each inserted node extends the accumulated
    closure by one composition with the base relation:
    ``i(x, acc) = acc U acc o r``.  The dependent chain has length ``n``
    (one round per node), the hallmark of the PTIME evaluation strategy.
    """
    r = Var("r")
    insert = lam2(
        "x", BASE, "acc", REL_T,
        Union(Var("acc"), compose(Var("acc"), r, BASE)),
    )
    phi = Sri(r, insert)
    body = Apply(phi, field_of(r, BASE, BASE))
    return Lambda("r", REL_T, body)


# ---------------------------------------------------------------------------
# Derived graph queries
# ---------------------------------------------------------------------------

def reachable_pairs_query(style: str = "dcr") -> Lambda:
    """The reachability (transitive closure) query in the requested style."""
    builders = {
        "dcr": transitive_closure_dcr,
        "logloop": transitive_closure_logloop,
        "sri": transitive_closure_sri,
    }
    if style not in builders:
        raise ValueError(f"unknown style {style!r}; expected one of {sorted(builders)}")
    return builders[style]()


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def run_on_relation(query: Expr, relation: Relation) -> Value:
    """Apply a unary NRA query to the value of a flat relation."""
    return run(query, relation.value())


def run_tc(query: Expr, relation: Relation) -> frozenset:
    """Run a transitive closure query and return plain Python pairs."""
    result = run_on_relation(query, relation)
    assert isinstance(result, SetVal)
    return frozenset(to_python(result))


def tagged_boolean_set(bits: list[bool]) -> SetVal:
    """Build the ``{D x B}`` input of the parity queries from a list of bits."""
    from ..objects.values import BaseVal, BoolVal, PairVal

    return SetVal(PairVal(BaseVal(i), BoolVal(b)) for i, b in enumerate(bits))


# ---------------------------------------------------------------------------
# The library as fluent Query values (the repro.api surface)
# ---------------------------------------------------------------------------
#
# Imports of repro.api stay inside the builders: repro.engine imports this
# package's sibling `relation` module at import time, and repro.api imports
# repro.engine, so a module-level import here would be circular.

def transitive_closure_query(source: str = "edges", style: str = "dcr"):
    """Transitive closure over the ``source`` collection, as a ``Query``.

    ``style="logloop"`` uses the builder-native ``fix`` (repeated squaring,
    the semi-naive fast path of the vectorized backend); every other style
    pipes the collection through the corresponding paper expression.
    """
    from ..api import Q

    base = Q.coll(source, REL_T)
    if style == "logloop":
        return base.fix()
    return base.pipe(reachable_pairs_query(style))


def parity_query(source: str = "bits", style: str = "dcr"):
    """Parity of a collection of tagged booleans, as a boolean ``Query``."""
    from ..api import Q

    builders = {
        "dcr": parity_dcr,
        "esr": parity_esr,
        "esr_translated": parity_esr_translated,
    }
    if style not in builders:
        raise ValueError(f"unknown style {style!r}; expected one of {sorted(builders)}")
    return Q.coll(source, SetType(TAGGED_BOOL_T)).pipe(builders[style]())


def reachable_from_query(source: str = "edges", param: str = "src"):
    """All nodes reachable from the parameter node: the prepared-statement demo.

    ``fix`` then a parametrized selection on the first component --
    ``session.prepare(...)`` turns the per-constant recompile into a per-call
    environment lookup.
    """
    from ..api import Q

    return (
        transitive_closure_query(source, style="logloop")
        .where(lambda e: e.fst == _param(param))
        .map(lambda e: e.snd)
    )


def _param(name: str):
    from ..api import Q

    return Q.param(name)


def query_library(source: str = "edges") -> dict:
    """The paper's named queries as ready ``Query`` values over ``source``.

    Keys mirror the expression builders above; every value cross-checks
    against its expression form in ``tests/api/test_query_builder.py``.
    """
    return {
        "tc_dcr": transitive_closure_query(source, "dcr"),
        "tc_logloop": transitive_closure_query(source, "logloop"),
        "tc_sri": transitive_closure_query(source, "sri"),
        "two_hop": _two_hop(source),
        "reachable_from": reachable_from_query(source),
    }


def _two_hop(source: str):
    from ..api import Q

    edges = Q.coll(source, REL_T)
    return edges.compose(edges)
