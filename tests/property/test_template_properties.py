"""Properties of ``canonical_template``: one representative per query shape.

Terms come from the PR-1 generator (closed sets, pairs, conditionals, ``ext``
shapes, ``dcr``/``esr`` recursions) and, so that references cross binders,
from the derived operators over a generated relation: ``nest`` (one subterm
at two binder depths), ``difference`` of a ``compose`` (three nested
binders), ``closure`` (a fixed-name binder over fresh ones).  Building a
seed twice draws fresh binder names from the process-wide counter each time;
shifting the second copy's literals by an injective map gives "the same
query with other constants".  The last section holds ``recognize`` -- the
same function memoized on the alpha-invariant shape key -- to a fresh build.
"""

import random
import re
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_properties import _random_expr, _random_set

from repro.api import Q, canonical_template, prepare
from repro.api.prepare import recognize
from repro.api.query import param_var
from repro.nra import ast
from repro.nra.ast import Const, Lambda, Var, alpha_equal, free_variables, subexpressions
from repro.nra.derived import cartesian, closure, compose, difference, nest
from repro.nra.eval import run
from repro.nra.parser import parse
from repro.nra.pretty import pretty
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import from_python, to_python

EDGE_T = ProdType(BASE, BASE)
SEEDS = st.integers(min_value=0, max_value=10**6)
CANONICAL = re.compile(r"%[1-9]\d*")


def _term(seed: int):
    """A well-typed term over no free variables but ``atoms``; fresh binders per call."""
    rng = random.Random(seed)
    kind = rng.randrange(5)
    if kind == 0:
        return _random_expr(seed)
    r = cartesian(_random_set(rng, 2), ast.Union(Var("atoms"), _random_set(rng, 2)), BASE, BASE)
    if kind == 1:
        return nest(r, BASE, BASE)
    if kind == 2:
        return difference(compose(r, r, BASE), r, EDGE_T)
    if kind == 3:
        return closure(r, BASE)
    return ast.Pair(nest(r, BASE, BASE), _random_expr(seed + 1))


ENV = {"atoms": from_python({1, 9})}


def _shift(v):
    """An injective map on python data: every atom moves by 100."""
    if isinstance(v, frozenset):
        return frozenset(map(_shift, v))
    if isinstance(v, tuple):
        return tuple(map(_shift, v))
    return v + 100


def _other_literals(e):
    if isinstance(e, Const):
        return Const(from_python(_shift(to_python(e.value))), e.type)
    return ast.map_children(e, _other_literals)


def _with_defaults(template, types, defaults):
    for name, value in defaults.items():
        template = ast.substitute(template, param_var(name), Const(value, types[name]))
    return template


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_canonicalizing_is_idempotent_and_survives_the_wire(seed):
    template, _, _ = canonical_template(_term(seed))
    assert canonical_template(template) == (template, {}, {})
    assert parse(pretty(template)) == template


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_rebuilt_copies_with_other_literals_share_the_template(seed):
    first, second = _term(seed), _other_literals(_term(seed))
    if any(isinstance(x, Lambda) for x in subexpressions(first)):
        assert first != second  # fresh binders: ``==`` tells the copies apart
    t1, types1, defaults1 = canonical_template(first)
    t2, types2, defaults2 = canonical_template(second)
    assert t1 == t2
    assert types1 == types2
    assert {n: _shift(to_python(v)) for n, v in defaults1.items()} == {
        n: to_python(v) for n, v in defaults2.items()
    }


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_defaults_substituted_back_give_the_original(seed):
    original = _term(seed)
    template, types, defaults = canonical_template(original)
    assert not any(isinstance(x, Const) for x in subexpressions(template))
    assert alpha_equal(_with_defaults(template, types, defaults), original)


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_template_under_its_defaults_evaluates_like_the_original(seed):
    original = _term(seed)
    template, _, defaults = canonical_template(original)
    env = {**ENV, **{param_var(n): v for n, v in defaults.items()}}
    assert run(template, env=env) == run(original, env=ENV)


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_canonical_names_are_bound_and_decrease_inwards(seed):
    original = _term(seed)
    template, types, _ = canonical_template(original)
    assert free_variables(template) == free_variables(original) | set(map(param_var, types))
    for lam in (x for x in subexpressions(template) if isinstance(x, Lambda)):
        assert CANONICAL.fullmatch(lam.var)
        inner = [y.var for y in subexpressions(lam.body) if isinstance(y, Lambda)]
        # Strictly smaller inside: no reference to ``lam.var`` is captured.
        assert all(int(v[1:]) < int(lam.var[1:]) for v in inner)
        assert int(lam.var[1:]) == 1 + max((int(v[1:]) for v in inner), default=0)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_one_subterm_at_two_binder_depths_stays_one_subterm(seed):
    """``nest(r)`` mentions ``r`` twice, the second time under the first's
    binder: numbering binders in pre-order or by nesting depth would name
    the lambdas inside the two occurrences differently."""
    rng = random.Random(seed)
    r = cartesian(_random_set(rng, 3), _random_set(rng, 3), BASE, BASE)
    template, _, _ = canonical_template(nest(r, BASE, BASE))
    outer = template.arg
    inner = template.func.func.body.item.snd.arg
    assert any(isinstance(x, Lambda) for x in subexpressions(outer))
    assert outer == inner == canonical_template(r)[0]


def test_slot_names_skip_names_the_term_already_uses():
    e = ast.Pair(Var("$c0"), ast.Pair(Const(from_python(1), BASE), Const(from_python(2), BASE)))
    template, types, defaults = canonical_template(e)
    assert sorted(types) == ["c1", "c2"]
    assert template == ast.Pair(Var("$c0"), ast.Pair(Var("$c1"), Var("$c2")))
    assert to_python(defaults["c1"]) == 1 and to_python(defaults["c2"]) == 2


def test_shadowed_and_already_canonical_looking_binders_are_not_captured():
    # \%1. \%2. %1 -- names from the canonical namespace, used the other way
    # round -- and \x. \x. x, where the inner binder shadows the outer.
    swapped = Lambda("%1", BASE, Lambda("%2", BASE, Var("%1")))
    assert canonical_template(swapped)[0] == Lambda("%2", BASE, Lambda("%1", BASE, Var("%2")))
    shadow = Lambda("x", BASE, Lambda("x", BASE, Var("x")))
    assert canonical_template(shadow)[0] == Lambda("%2", BASE, Lambda("%1", BASE, Var("%1")))


def test_a_dollar_named_binder_reserves_no_slot_name():
    """Regression: every mentioned name, bound ones too, used to be reserved,
    so renaming a binder to ``$c0`` moved the literal to slot ``c1``."""
    five = Const(from_python(5), BASE)

    def body(x):
        return ast.Singleton(ast.Pair(Var(x), five))

    plain = canonical_template(Lambda("x", BASE, body("x")))
    dollar = canonical_template(Lambda("$c0", BASE, body("$c0")))
    assert plain == dollar
    assert plain[1] == {"c0": BASE}
    # Free, the same name is the term's own and the literal moves aside.
    assert canonical_template(body("$c0"))[1] == {"c1": BASE}


# -- the memo: ``recognize`` is ``canonical_template`` built once per shape ------

def D(v):
    return Const(from_python(v), BASE)


def _coinciding(seed: int, same: bool):
    """A generated term beside two literals that are equal, or not."""
    k = 1000 + seed % 7
    return ast.Pair(_term(seed), ast.Pair(D(k), D(k if same else k + 1)))


def _shadowing(seed: int, outer: str, inner: str):
    """``(\\outer. (outer, (\\inner. (inner, t)) 2)) 1``: with ``outer ==
    inner`` the inner binder shadows the outer one."""
    rng = random.Random(seed)
    t = _random_set(rng, 2)
    inner_fn = Lambda(inner, BASE, ast.Pair(Var(inner), t))
    outer_fn = Lambda(outer, BASE, ast.Pair(Var(outer), ast.Apply(inner_fn, D(2))))
    return ast.Apply(outer_fn, D(1))


def _dollar_free(seed: int):
    """A generated term beside free ``$c0`` / ``$c1`` and two literals."""
    return ast.Pair(ast.Pair(Var(param_var("c0")), Var(param_var("c1"))),
                    ast.Pair(_term(seed), D(seed % 11)))


def _same_as_fresh(e):
    got, fresh = recognize(e), canonical_template(e)
    assert got == fresh  # template, slot types and defaults
    return got


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_memoized_templates_equal_a_fresh_build(seed):
    first = _same_as_fresh(_term(seed))
    second = _same_as_fresh(_other_literals(_term(seed)))
    assert second[0] is first[0]  # one shape, one template object
    same = _same_as_fresh(_coinciding(seed, same=True))
    apart = _same_as_fresh(_coinciding(seed, same=False))
    assert len(apart[1]) == len(same[1]) + 1 and same[0] != apart[0]
    shadowed = _same_as_fresh(_shadowing(seed, "x", "x"))
    assert _same_as_fresh(_shadowing(seed, "y", "z"))[0] is shadowed[0]
    assert _same_as_fresh(_shadowing(seed, "x", "y"))[0] is shadowed[0]
    dollar = _same_as_fresh(_dollar_free(seed))
    assert not {"c0", "c1"} & set(dollar[1])


def test_shadowing_is_not_confused_with_an_outer_reference():
    # \x. \x. x  and  \x. \y. x  are different shapes.
    inner = recognize(Lambda("x", BASE, Lambda("x", BASE, Var("x"))))[0]
    outer = recognize(Lambda("x", BASE, Lambda("y", BASE, Var("x"))))[0]
    assert inner != outer
    assert outer == Lambda("%2", BASE, Lambda("%1", BASE, Var("%2")))


def test_two_elaborations_of_one_q_shape_return_the_same_template_object():
    schema = {"edges": SetType(EDGE_T)}

    def query(k):
        return Q.coll("edges").fix().where(lambda e: e.fst == k).map(lambda e: e.snd)

    a, b = query(3).elaborate(schema).expr, query(8).elaborate(schema).expr
    assert a != b  # fresh binders and another literal
    (ta, _, da), (tb, _, db) = recognize(a), recognize(b)
    assert ta is tb
    assert [to_python(v) for v in da.values()] == [3]
    assert [to_python(v) for v in db.values()] == [8]


def test_the_memo_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(prepare, "MAX_SHAPES", 8)
    for seed in range(60):
        # Distinct shapes: a chain of ``seed`` pairs.
        e = D(seed)
        for _ in range(seed):
            e = ast.Pair(e, D(seed))
        _same_as_fresh(e)
        assert len(prepare._shapes) <= 8
    # The oldest shapes are forgotten; the next sight rebuilds an equal one.
    assert _same_as_fresh(D(0))[0] == Var(param_var("c0"))


def test_threads_recognizing_distinct_shapes_at_once(monkeypatch):
    # More threads than cores, a short switch interval, and a small bound so
    # the threads also evict each other's shapes mid-insert.
    monkeypatch.setattr(prepare, "MAX_SHAPES", 16)
    terms = [[_term(1000 * side + seed) for seed in range(40)] for side in range(4)]
    wanted = [[canonical_template(e) for e in side] for side in terms]
    start, wrong = threading.Barrier(len(terms)), []

    def recognize_all(side):
        start.wait()
        for _ in range(5):
            for e, want in zip(terms[side], wanted[side]):
                if recognize(e) != want:
                    wrong.append(e)

    threads = [threading.Thread(target=recognize_all, args=(side,)) for side in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(prepare._shapes) <= 16
