"""Per-rule checks: every rewrite preserves values and never costs more.

For each rule in the registry we keep at least one closed expression on which
the rule fires, and assert that

* reference evaluation of the original and the rewritten expression agree
  (rewrites are semantics-preserving), and
* under the work/depth model of :mod:`repro.nra.cost` the rewritten
  expression needs no more work and no more depth than the original (rewrites
  are cost-directed) -- the engine acceptance criterion.  The one rule that
  *trades* (``seed-closure``: less work, more depth) must win Brent's bound
  on the processor counts this repo runs on instead.
"""

import pytest

from repro.engine.rewrite import DEFAULT_RULES, Rewriter
from repro.nra.ast import (
    Apply,
    BoolConst,
    EmptySet,
    Eq,
    Esr,
    Ext,
    If,
    IsEmpty,
    Lambda,
    Pair,
    Proj1,
    Proj2,
    Singleton,
    Union,
    Var,
)
from repro.nra.ast import Const
from repro.nra.cost import cost_run
from repro.nra.derived import closure
from repro.nra.eval import run
from repro.objects.types import BASE, BOOL, ProdType, SetType
from repro.objects.values import from_python
from repro.relational.queries import (
    EDGE_T,
    REL_T,
    TAGGED_BOOL_T,
    parity_esr_translated,
    tagged_boolean_set,
    xor_lambda,
)

SET_135 = Const(from_python({1, 3, 5}), SetType(BASE))
SET_24 = Const(from_python({2, 4}), SetType(BASE))
ATOM_7 = Const(from_python(7), BASE)


def _ident(t):
    return Lambda("x", t, Var("x"))


def _tag_pair():
    """g : D -> {D x D}, injective on singletons (fusion-friendly)."""
    return Lambda("x", BASE, Singleton(Pair(Var("x"), Var("x"))))


def _first_of_pair():
    return Lambda("p", ProdType(BASE, BASE), Singleton(Proj1(Var("p"))))


def _reach_from(node, pairs):
    """``sigma_{fst = node}(closure(r))`` with ``r`` bound to a literal graph."""
    keep = Lambda(
        "w", EDGE_T,
        If(Eq(Proj1(Var("w")), Const(from_python(node), BASE)),
           Singleton(Var("w")), EmptySet(EDGE_T)),
    )
    reach = Lambda("r", REL_T, Apply(Ext(keep), closure(Var("r"), BASE)))
    return Apply(reach, Const(from_python(set(pairs)), REL_T))


#: Rules that buy work with depth: held to Brent's bound, not to "no deeper".
WORK_FOR_DEPTH = {"seed-closure"}

#: rule name -> closed expression on which the rule (at least) fires.
RULE_CASES = {
    "identity-apply": Apply(_ident(SetType(BASE)), SET_135),
    "beta-variable": Apply(Lambda("x", BASE, Pair(Var("x"), Var("x"))), ATOM_7),
    "proj-pair": Proj1(Pair(SET_135, SET_24)),
    "if-constant": If(BoolConst(True), SET_135, SET_24),
    "if-same": If(Eq(SET_135, SET_24), ATOM_7, ATOM_7),
    "eq-reflexive": Eq(SET_135, SET_135),
    "union-empty": Union(EmptySet(BASE), SET_135),
    "union-idempotent": Union(SET_135, SET_135),
    "empty-test": IsEmpty(Singleton(ATOM_7)),
    "ext-identity": Apply(Ext(Lambda("x", BASE, Singleton(Var("x")))), SET_135),
    "ext-empty": Apply(Ext(_tag_pair()), EmptySet(BASE)),
    "ext-singleton": Apply(Ext(_tag_pair()), Singleton(ATOM_7)),
    "ext-fusion": Apply(Ext(_first_of_pair()), Apply(Ext(_tag_pair()), SET_135)),
    "sri-to-dcr": Apply(
        parity_esr_translated(),
        Const(tagged_boolean_set([True, False, True, True, False, False, True]),
              SetType(TAGGED_BOOL_T)),
    ),
    "seed-closure": _reach_from(1, [(i, i + 1) for i in range(6)] + [(3, 1)]),
}


def test_every_rule_has_a_case():
    assert set(RULE_CASES) == {r.name for r in DEFAULT_RULES}


@pytest.mark.parametrize("rule_name", sorted(RULE_CASES))
def test_rule_fires_preserves_value_and_never_costs_more(rule_name):
    expr = RULE_CASES[rule_name]
    rewritten, firings = Rewriter().rewrite(expr)
    assert rule_name in [f.rule for f in firings], f"{rule_name} did not fire"

    assert run(expr) == run(rewritten)

    _, c_orig = cost_run(expr)
    _, c_new = cost_run(rewritten)
    assert c_new.work <= c_orig.work, f"{rule_name}: work {c_orig} -> {c_new}"
    if rule_name in WORK_FOR_DEPTH:
        # T_p <= W/p + D on the p <= 2 processors the benchmark box has.
        for p in (1, 2):
            assert c_new.work / p + c_new.depth < c_orig.work / p + c_orig.depth
    else:
        assert c_new.depth <= c_orig.depth, f"{rule_name}: depth {c_orig} -> {c_new}"


def test_sri_to_dcr_is_logarithmic():
    """The Prop 2.1 rewrite turns the linear chain into a log-depth tree."""
    bits = [i % 3 == 0 for i in range(32)]
    q = parity_esr_translated()
    inp = tagged_boolean_set(bits)
    rewritten, firings = Rewriter().rewrite(q)
    assert "sri-to-dcr" in [f.rule for f in firings]
    _, c_esr = cost_run(q, inp)
    _, c_dcr = cost_run(rewritten, inp)
    assert run(q, inp) == run(rewritten, inp)
    # linear versus logarithmic combining depth, with real headroom
    assert c_dcr.depth * 2 < c_esr.depth
    assert c_dcr.work <= c_esr.work


def test_sri_to_dcr_requires_the_algebraic_gate():
    """A non-commutative combiner must not be rewritten.

    ``u(a, b) = a`` (left projection) is associative but not commutative and
    has no two-sided identity; the sampled gate rejects it and the esr stays.
    """
    first = Lambda("q", ProdType(BOOL, BOOL), Proj1(Var("q")))
    f = Lambda("y", TAGGED_BOOL_T, Proj2(Var("y")))
    step = Lambda(
        "z",
        ProdType(TAGGED_BOOL_T, BOOL),
        Apply(first, Pair(Apply(f, Proj1(Var("z"))), Proj2(Var("z")))),
    )
    expr = Esr(BoolConst(False), step)
    rewritten, firings = Rewriter().rewrite(expr)
    assert "sri-to-dcr" not in [f.rule for f in firings]


def test_rewriter_reaches_a_fixpoint_and_logs():
    expr = Union(EmptySet(BASE), Union(SET_135, SET_135))
    rewritten, firings = Rewriter().rewrite(expr)
    assert rewritten == SET_135
    names = [f.rule for f in firings]
    assert "union-empty" in names and "union-idempotent" in names
    again, more = Rewriter().rewrite(rewritten)
    assert again == rewritten and more == []


def test_nested_simplification_cascade():
    """Rules enable each other across passes (fusion exposes the unit law)."""
    expr = Apply(Ext(_first_of_pair()), Apply(Ext(_tag_pair()), SET_135))
    rewritten, firings = Rewriter().rewrite(expr)
    names = [f.rule for f in firings]
    assert "ext-fusion" in names and "ext-singleton" in names
    assert run(expr) == run(rewritten)


def test_xor_passes_the_acu_gate():
    rw = Rewriter()
    assert rw.combiner_is_acu(xor_lambda(), BoolConst(False), BOOL)
    assert not rw.combiner_is_acu(
        Lambda("q", ProdType(BOOL, BOOL), Proj1(Var("q"))), BoolConst(False), BOOL
    )
