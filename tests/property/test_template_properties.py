"""Properties of ``canonical_template``: one representative per query shape.

Terms come from the PR-1 generator (closed sets, pairs, conditionals, ``ext``
shapes, ``dcr``/``esr`` recursions) and, so that references cross binders,
from the derived operators over a generated relation: ``nest`` (one subterm
at two binder depths), ``difference`` of a ``compose`` (three nested
binders), ``closure`` (a fixed-name binder over fresh ones).  Building a
seed twice draws fresh binder names from the process-wide counter each time;
shifting the second copy's literals by an injective map gives "the same
query with other constants".
"""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_properties import _random_expr, _random_set

from repro.api import canonical_template
from repro.api.query import param_var
from repro.nra import ast
from repro.nra.ast import Const, Lambda, Var, alpha_equal, free_variables, subexpressions
from repro.nra.derived import cartesian, closure, compose, difference, nest
from repro.nra.eval import run
from repro.nra.parser import parse
from repro.nra.pretty import pretty
from repro.objects.types import BASE, ProdType
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
