"""Key-equality selects bisect the canonical order or probe the ``(set, path)`` index.

``ext(\\q. if path(q) = k then {out} else {})(s)`` with ``k`` free of ``q``
is a key lookup.  On a path of ``fst`` steps the kept rows are one run of
``s``'s canonical order, found by two bisections of its cached element keys
(:meth:`InternTable.fst_run`).  On any other path the flat select scans the
first time ``s`` is selected from and probes the index
:meth:`BatchContext.flat_probe_index` keeps for the joins from then on.  The same select under the binder of an outer set is a
*grouped map* (``nest`` is one), and ``unnest`` a flattening pass: one
kernel each over id columns.  Every case below is run twice on one engine
(so both the scan and the probe answer it) and on ``Engine(flat=False)``,
and held to the reference interpreter ``repro.nra.eval.run``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, Q, connect
from repro.engine import Engine
from repro.nra.ast import (
    Apply,
    EmptySet,
    Eq,
    Ext,
    If,
    Lambda,
    Pair,
    Proj1,
    Proj2,
    Singleton,
    Var,
)
from repro.nra.derived import compose, difference, intersection, member, nest, unnest
from repro.nra.errors import NRAEvalError
from repro.nra.eval import run as reference_run
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, BoolVal, PairVal, SetVal, from_python
from repro.relational.queries import REL_T
from repro.workloads.nested_graphs import ADJ_T

pytestmark = pytest.mark.columnar

PAIR_T = ProdType(BASE, BASE)
ATOMS = st.integers(min_value=0, max_value=5)
FLAT = st.frozensets(st.tuples(ATOMS, ATOMS), max_size=12)              # {D x D}
NESTED = st.frozensets(st.tuples(ATOMS, st.frozensets(ATOMS, max_size=3)), max_size=8)  # {D x {D}}


def select(elem_t, key_side, key, out, source, negate=False):
    """``ext(\\q. if key_side(q) = key then {out(q)} else {})(source)``."""
    q = Var("q")
    keep, drop = Singleton(out(q)), EmptySet(out_type(elem_t, out))
    body = If(Eq(key_side(q), key), drop, keep) if negate else If(Eq(key_side(q), key), keep, drop)
    return Apply(Ext(Lambda("q", elem_t, body)), source)


def out_type(elem_t, out):
    return {whole: elem_t, Proj1: elem_t.fst, Proj2: elem_t.snd, swap: ProdType(elem_t.snd, elem_t.fst)}[out]


def whole(q):
    return q


def swap(q):
    return Pair(Proj2(q), Proj1(q))


def per_key(elem_t, select_expr, keys=Var("ks")):
    """``ext(\\k. {(k, select)})(keys)``: the same set selected from per key."""
    out = Singleton(Pair(Var("k"), select_expr))
    return Apply(Ext(Lambda("k", BASE, out)), keys)


def agree(expr, env):
    """Scan (first run) and probe (second run) both equal the reference."""
    want = reference_run(expr, env=env)
    engine = Engine(backend="vectorized")
    for e in (engine, Engine(backend="vectorized", flat=False)):
        for _ in range(2):
            assert e.run(expr, env=env, optimize=False) == want
            assert e.last_stats.flat_fallbacks == 0
    return engine


def same_error(expr, env, match):
    """Both settings, twice each, raise the reference's error, one message."""
    messages = []
    for flat in (True, False):
        engine = Engine(backend="vectorized", flat=flat)
        for _ in range(2):
            with pytest.raises(NRAEvalError, match=match) as err:
                engine.run(expr, env=env, optimize=False)
            messages.append(str(err.value))
    assert len(set(messages)) == 1
    with pytest.raises(NRAEvalError, match=match):
        reference_run(expr, env=env)


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(FLAT, st.frozensets(ATOMS, max_size=6), st.sampled_from([whole, Proj1, Proj2, swap]))
def test_bound_variable_key_on_flat_pairs(rel, keys, out):
    env = {"r": from_python(set(rel)), "ks": from_python(set(keys))}
    for side in (Proj1, Proj2):
        agree(per_key(PAIR_T, select(PAIR_T, side, Var("k"), out, Var("r"))), env)


@settings(max_examples=40, deadline=None)
@given(FLAT, FLAT)
def test_computed_key_under_an_outer_binder(rel, probes):
    # nest's shape: the key is pi2 of the *outer* element, a computed value.
    env = {"r": from_python(set(rel)), "ps": from_python(set(probes))}
    inner = select(PAIR_T, Proj1, Proj2(Var("p")), Proj2, Var("r"))
    expr = Apply(Ext(Lambda("p", PAIR_T, Singleton(Pair(Var("p"), inner)))), Var("ps"))
    agree(expr, env)


@settings(max_examples=40, deadline=None)
@given(NESTED, st.frozensets(ATOMS, max_size=3))
def test_set_valued_key_on_nested_records(adj, succ):
    # {D x {D}}: select the records whose successor *set* equals a computed one.
    env = {"adj": from_python(set(adj)), "s": from_python(set(succ)), "ks": from_python({0, 1})}
    key = Apply(Ext(Lambda("z", BASE, Singleton(Var("z")))), Var("s"))  # = s, computed
    agree(per_key(ADJ_T, select(ADJ_T, Proj2, key, Proj1, Var("adj"))), env)
    agree(per_key(ADJ_T, select(ADJ_T, Proj1, Var("k"), whole, Var("adj"))), env)


@settings(max_examples=40, deadline=None)
@given(FLAT, FLAT)
def test_whole_element_key_is_member(rel, probes):
    env = {"r": from_python(set(rel)), "ps": from_python(set(probes))}
    tagged = Lambda("p", PAIR_T, Singleton(Pair(Var("p"), member(Var("p"), Var("r"), PAIR_T))))
    agree(Apply(Ext(tagged), Var("ps")), env)


@settings(max_examples=40, deadline=None)
@given(FLAT, FLAT)
def test_derived_operators_over_computed_sides(a, b):
    env = {"a": from_python(set(a)), "b": from_python(set(b))}
    two_hop = compose(Var("a"), Var("b"), BASE)
    for expr in (
        nest(two_hop, BASE, BASE),
        difference(Var("a"), two_hop, PAIR_T),
        intersection(two_hop, Var("b"), PAIR_T),
        difference(two_hop, two_hop, PAIR_T),
    ):
        want = reference_run(expr, env=env)
        engine = Engine(backend="vectorized")
        assert engine.run(expr, env=env) == want          # rewritten
        assert engine.run(expr, env=env, optimize=False) == want


@settings(max_examples=40, deadline=None)
@given(FLAT, FLAT)
def test_q_builders_agree_with_the_reference(a, b):
    db = Database("d").register("a", from_python(set(a)), type=REL_T)
    db.register("b", from_python(set(b)), type=REL_T)
    qa, qb = Q.coll("a"), Q.coll("b")
    with connect(db) as session:
        for query in (qa.compose(qb).nest(), qa - qa.compose(qb), qa.compose(qb) & qb,
                      (qa | qb).nest()):
            template = query.elaborate(db.schema()).expr
            want = reference_run(template, env=db.environment())
            assert session.execute(query).value == want
            assert session.execute(query).value == want


@settings(max_examples=40, deadline=None)
@given(FLAT, FLAT, st.sampled_from([Proj1, Proj2]), st.sampled_from([Proj1, Proj2]),
       st.sampled_from([whole, Proj1, Proj2]))
def test_grouped_map_with_keys_from_a_second_collection(s, t, key, lkey, out):
    # Keys are a column of ``s``; ``t`` lacks some of them (empty groups).
    env = {"s": from_python(set(s)), "t": from_python(set(t))}
    group = select(PAIR_T, lkey, key(Var("p")), out, Var("t"))
    expr = Apply(Ext(Lambda("p", PAIR_T, Singleton(Pair(key(Var("p")), group)))), Var("s"))
    engine = agree(expr, env)
    assert engine.explain_plan(expr, optimize=False).annotations == ("flat-columns", "grouped")
    assert engine.last_stats.bulk_selects == 0


@settings(max_examples=40, deadline=None)
@given(FLAT, NESTED)
def test_nest_and_unnest_are_one_kernel_each(rel, adj):
    # Duplicate keys in ``rel``; empty inner sets in ``adj``.
    env = {"r": from_python(set(rel)), "adj": from_python(set(adj))}
    nested = agree(nest(Var("r"), BASE, BASE), env).last_stats
    assert (nested.bulk_maps, nested.bulk_selects) == (min(1, len(rel)), 0)
    assert nested.flat_dedups == len({a for a, _ in rel})
    flat = agree(unnest(Var("adj"), BASE, BASE), env).last_stats
    assert (flat.bulk_maps, flat.elementwise_exts, flat.flat_dedups) == (1, 0, 1)


@settings(max_examples=40, deadline=None)
@given(FLAT, NESTED)
def test_nest_and_unnest_are_inverse(rel, adj):
    r = from_python(set(rel))
    back = unnest(nest(Var("r"), BASE, BASE), BASE, BASE)
    agree(back, {"r": r})
    assert reference_run(back, env={"r": r}) == r
    # nest . unnest is the identity on unique keys and no empty group.
    groups = from_python({(a, g) for a, g in dict(adj).items() if g})
    forth = nest(unnest(Var("R"), BASE, BASE), BASE, BASE)
    agree(forth, {"R": groups})
    assert reference_run(forth, env={"R": groups}) == groups


# ---------------------------------------------------------------------------
# A key select on fst steps is a bisection of the canonical order
# ---------------------------------------------------------------------------

MIXED = st.one_of(st.integers(min_value=0, max_value=4), st.sampled_from(["a", "b", "c"]))
MIXED_FLAT = st.frozensets(st.tuples(MIXED, MIXED), max_size=12)                 # {D x D}
NEST_T = ProdType(PAIR_T, BASE)
MIXED_NESTED = st.frozensets(st.tuples(st.tuples(MIXED, MIXED), MIXED), max_size=12)  # {(D x D) x D}
SET_FST_T = ProdType(SetType(BASE), BASE)
SET_FST = st.frozensets(st.tuples(st.frozensets(MIXED, max_size=2), MIXED), max_size=8)  # {{D} x D}
OUTS = st.sampled_from([whole, Proj1, Proj2, swap])


def fst_fst(q):
    return Proj1(Proj1(q))


def bisected(elem_t, key_side, key, out, env):
    """``agree`` on ``select(...)`` from ``r``, and on the flat engine no index
    built or probed; an identity output makes no record of ``r`` either."""
    engine = agree(select(elem_t, key_side, key, out, Var("r")), env)
    assert (engine.last_stats.index_builds, engine.last_stats.index_hits) == (0, 0)
    ev = engine._vec()
    if out is whole:
        assert id(ev.interner.intern(env["r"])) not in ev.ctx._records


@settings(max_examples=60, deadline=None)
@given(MIXED_FLAT, MIXED, OUTS, st.sampled_from([None, 7, "z", ()]))
def test_a_fst_select_over_ints_and_strings_agrees(rel, key, out, stray):
    # Keys absent from the set and the empty set included; a stray non-pair
    # element sorts before or after every pair and takes the scan's error.
    env = {"r": from_python(set(rel)), "k": from_python(key)}
    if stray is None:
        bisected(PAIR_T, Proj1, Var("k"), out, env)
    else:
        env["r"] = from_python(set(rel) | {stray})
        same_error(select(PAIR_T, Proj1, Var("k"), out, Var("r")), env, "pi1: expected a pair")


@settings(max_examples=60, deadline=None)
@given(MIXED_NESTED, st.tuples(MIXED, MIXED), OUTS)
def test_a_select_on_one_and_two_fst_steps_of_nested_pairs_agrees(rel, key, out):
    env = {"r": from_python(set(rel)), "k": from_python(key), "a": from_python(key[0])}
    bisected(NEST_T, Proj1, Var("k"), out, env)
    bisected(NEST_T, fst_fst, Var("a"), out, env)


@settings(max_examples=60, deadline=None)
@given(SET_FST, st.frozensets(MIXED, max_size=2), OUTS)
def test_a_select_on_a_set_valued_fst_agrees(rel, key, out):
    env = {"r": from_python(set(rel)), "k": from_python(set(key))}
    bisected(SET_FST_T, Proj1, Var("k"), out, env)


def test_a_fst_that_is_not_a_pair_under_two_steps_takes_the_scans_error():
    # (3, 4)'s fst is no pair: it sorts first, so the bisection declines.
    env = {"r": from_python({((0, 1), 2), (3, 4), ((5, 6), 7)}), "a": from_python(0)}
    same_error(select(NEST_T, fst_fst, Var("a"), whole, Var("r")), env, "pi1: expected a pair")
    env["r"] = from_python({((0, 1), 2), ((5, 6), 7), (frozenset({3}), 4)})  # sorts last
    same_error(select(NEST_T, fst_fst, Var("a"), whole, Var("r")), env, "pi1: expected a pair")


def test_distinct_interned_values_have_distinct_cached_keys():
    # The bisection's soundness: equal keys are one interned value, so a
    # run of equal key prefixes is exactly the rows of one dense id.  True
    # and 1 cannot share a typed set (B against D), but they can share an
    # untyped one, and there too they are two keys.
    engine = Engine(backend="vectorized")
    mixed = SetVal([PairVal(BoolVal(True), BaseVal(0)), PairVal(BaseVal(1), BaseVal(0)),
                    PairVal(BaseVal("1"), BaseVal(0)), PairVal(BoolVal(False), BaseVal(0))])
    for key, want in ((BaseVal(1), 1), (BoolVal(True), 1), (BaseVal("1"), 1), (BaseVal(0), 0)):
        expr = select(PAIR_T, Proj1, Var("k"), whole, Var("r"))
        got = engine.run(expr, env={"r": mixed, "k": key}, optimize=False)
        assert got == reference_run(expr, env={"r": mixed, "k": key})
        assert len(got.elements) == want
    for v in (True, False, 0, 1, "0", "1", (), (1, 2), (True, 2), ((1, 2), 3), (1, (2, 3)),
              frozenset(), frozenset({1}), frozenset({"1"}), frozenset({True}),
              (frozenset({1}), 1), frozenset({(1, 2)})):
        engine.intern(from_python(v))
    it = engine.interner
    values = it._by_dense
    assert len({it.sort_key_of(v) for v in values}) == len(values) == len(set(map(id, values)))


# ---------------------------------------------------------------------------
# What must stay a scan, and what the probe may not change
# ---------------------------------------------------------------------------

REL = {(0, 1), (0, 2), (1, 2), (3, 0)}
NOT_A_SET = "ext: expected a set|ext applied to non-set"  # the engine's wording | the reference's


def test_probe_starts_at_the_second_select_and_shares_the_join_index():
    env = {"r": from_python(REL), "ks": from_python({0, 1, 2, 3, 4})}
    one = select(PAIR_T, Proj1, Var("k"), Proj2, Var("r"))
    expr = per_key(PAIR_T, one)
    engine = agree(expr, env)
    plan = engine.explain_plan(expr, optimize=False)
    assert "indexed" in next(n for n in plan.walk() if n.op == "select").annotations
    # Re-pinned: the select per key of an outer set is a grouped map now, one
    # index build for all five keys and no probe per key (was (1, 3), (0, 5)).
    assert plan.annotations == ("flat-columns", "grouped")
    fresh = Engine(backend="vectorized")
    fresh.run(expr, env=env, optimize=False)
    assert (fresh.last_stats.index_builds, fresh.last_stats.index_hits) == (1, 0)
    fresh.run(expr, env=env, optimize=False)
    assert (fresh.last_stats.index_builds, fresh.last_stats.index_hits) == (0, 1)
    assert fresh.last_stats.flat_dedups == 5  # one per distinct key, the empty groups of 2 and 4 too
    # The scan-first, probe-second rule still serves a select whose key is
    # bound from outside ($param selects) on a path with a ``snd`` step:
    # successive bindings on one engine.
    by_snd = select(PAIR_T, Proj2, Var("k"), Proj1, Var("r"))
    bound = Engine(backend="vectorized")
    counts = []
    for k in range(4):
        bound.run(by_snd, env={**env, "k": from_python(k)}, optimize=False)
        counts.append((bound.last_stats.index_builds, bound.last_stats.index_hits))
    assert counts == [(0, 0), (1, 0), (0, 1), (0, 1)]  # scan, build, probe, probe
    # Re-pinned: on ``fst`` the kept rows are one run of the canonical order,
    # two bisections, so no binding builds or probes an index (was the
    # snd sequence above).
    by_fst = Engine(backend="vectorized")
    counts = []
    for k in range(4):
        by_fst.run(one, env={**env, "k": from_python(k)}, optimize=False)
        counts.append((by_fst.last_stats.index_builds, by_fst.last_stats.index_hits))
    assert counts == [(0, 0)] * 4
    # A join on the same (set, path) leaves an index the very first select finds.
    p, q = Var("p"), Var("q")
    same_snd = If(Eq(Proj2(p), Proj2(q)), Singleton(Pair(Proj1(p), Proj1(q))), EmptySet(PAIR_T))
    joined = Engine(backend="vectorized")
    joined.run(Apply(Ext(Lambda("p", PAIR_T, Apply(Ext(Lambda("q", PAIR_T, same_snd)), Var("r")))),
                     Var("r")), env=env, optimize=False)
    assert joined.last_stats.flat_joins == 1
    joined.run(select(PAIR_T, Proj2, Var("k"), whole, Var("r")),
               env={**env, "k": from_python(0)}, optimize=False)
    assert (joined.last_stats.index_builds, joined.last_stats.index_hits) == (0, 1)


# A 128-row column beside the narrow one: the scan is the same at any width.
WIDE_REL = {(i % 5, i) for i in range(128)}


@pytest.mark.parametrize("rel", [REL, WIDE_REL], ids=["narrow", "wide"])
def test_negated_predicate_remains_a_scan(rel):
    env = {"r": from_python(rel), "ks": from_python({0, 1, 2, 3, 4})}
    expr = per_key(PAIR_T, select(PAIR_T, Proj1, Var("k"), Proj2, Var("r"), negate=True))
    engine = agree(expr, env)
    plan_select = next(
        n for n in engine.explain_plan(expr, optimize=False).walk() if n.op == "select"
    )
    assert plan_select.annotations == ("flat-columns",)
    assert (engine.last_stats.index_builds, engine.last_stats.index_hits) == (0, 0)


def test_non_pair_elements_raise_the_object_kernels_error():
    env = {"r": from_python({1, 2, 3}), "ks": from_python({1, 2})}
    expr = per_key(PAIR_T, select(PAIR_T, Proj1, Var("k"), whole, Var("r")))
    same_error(expr, env, "pi1: expected a pair")


def test_heterogeneous_inputs_raise_the_object_kernels_error():
    mixed = from_python({(0, 1), (1, 2), 7})  # a non-pair among pairs
    good = from_python(REL)
    # A non-pair in S, after a well-formed first element; then one in T.
    same_error(nest(Var("r"), BASE, BASE), {"r": mixed}, "pi1: expected a pair")
    group = select(PAIR_T, Proj1, Proj1(Var("p")), Proj2, Var("t"))
    grouped = Apply(Ext(Lambda("p", PAIR_T, Singleton(Pair(Proj1(Var("p")), group)))), Var("s"))
    same_error(grouped, {"s": mixed, "t": good}, "pi1: expected a pair")
    same_error(grouped, {"s": good, "t": mixed}, "pi1: expected a pair")
    # The malformed outer element is the reference's error even when T raises too.
    same_error(grouped, {"s": from_python({7}), "t": from_python(3)}, "pi1: expected a pair")
    same_error(grouped, {"s": good, "t": from_python(3)}, NOT_A_SET)
    # A non-set under the unnested path, and a non-pair beside it.
    same_error(unnest(Var("adj"), BASE, BASE), {"adj": from_python({(0, frozenset({1})), (1, 2)})},
               NOT_A_SET)
    same_error(unnest(Var("adj"), BASE, BASE), {"adj": from_python({(0, frozenset({1})), 5})},
               "pi2: expected a pair")


def test_unevaluable_key_falls_back_to_the_scan():
    # An unbound key: an error over a non-empty set, nothing over an empty one.
    expr = select(PAIR_T, Proj1, Var("nowhere"), whole, Var("r"))
    engine = Engine(backend="vectorized")
    for _ in range(2):
        assert engine.run(expr, env={"r": from_python(set())}, optimize=False) == from_python(set())
        with pytest.raises(NRAEvalError, match="unbound variable 'nowhere'"):
            engine.run(expr, env={"r": from_python(REL)}, optimize=False)


def test_key_absent_from_the_set_or_never_interned_selects_nothing():
    engine = Engine(backend="vectorized")
    expr = select(PAIR_T, Proj1, Var("k"), whole, Var("r"))
    r = from_python(REL)
    for _ in range(3):
        assert engine.run(expr, env={"r": r, "k": from_python(99)}, optimize=False) == from_python(set())
    # Bypass intern_env: the key object is structurally 0 but not the interned 0.
    ev = engine._vec()
    env = {"r": ev.interner.intern(r), "k": from_python(0)}
    for flat_engine in (ev, Engine(backend="vectorized", flat=False)._vec()):
        env["r"] = flat_engine.interner.intern(r)
        for _ in range(2):
            assert len(flat_engine.compile(expr).fn(dict(env)).elements) == 0
