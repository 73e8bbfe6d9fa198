"""Unit suite for the incremental view-maintenance subsystem (PRs 5-6).

Covers the delta rules per operator shape (map / select / join / union /
general ext / fixpoint), support counting under deletions, delete/rederive
(DRed) over counted fixpoints -- alternative-derivation rederivation, cyclic
self-support, mixed batches, the honesty boundary where unhandleable loop
shapes still degrade to whole-view recompute -- the conservative recompute
fallbacks, mutable-database changeset normalization, view invalidation
ordering and staleness, the session/stats wiring, and the ``ivm-*``
maintenance-plan trees (including the ``ivm-dred-*`` sub-steps).  The
cross-backend *oracle* (maintained == recomputed over random update
sequences, incl. deletion-heavy streams) lives in
``tests/property/test_backend_differential.py``; a seeded in-file deletion
oracle rides in the fast matrix here.
"""

import sys
import threading

import pytest

from repro.api import Changeset, Database, MaterializedView, Q, connect
from repro.engine import Engine
from repro.engine.incremental.delta import derive, maintenance_plan
from repro.nra import ast
from repro.nra.ast import Lambda, Singleton, Var
from repro.nra.derived import compose, ext_apply, field_of, seeded_closure, select
from repro.nra.errors import NRAEvalError
from repro.nra.externals import ExternalFunction, Signature
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import BaseVal, from_python
from repro.relational.queries import REL_T
from repro.workloads.databases import graph_database, nested_graph_database
from repro.workloads.graphs import path_graph, random_graph
from repro.workloads.streams import (
    alternating_update_stream,
    deletion_update_stream,
    graph_update_stream,
    mixed_update_stream,
    nested_update_stream,
    stream_graph_database,
    stream_nested_database,
)

pytestmark = pytest.mark.ivm

EDGE_T = ProdType(BASE, BASE)


def fresh_graph_db(n=8, kind="path", **kw):
    return graph_database(n, kind, mutable=True, **kw)


def assert_matches_cold(session, view, query):
    assert view.value == session.execute(query).value


# ---------------------------------------------------------------------------
# Changesets and mutable databases
# ---------------------------------------------------------------------------

class TestMutableDatabase:
    def test_insert_returns_net_changeset_and_updates_contents(self):
        db = fresh_graph_db(4)
        cs = db.insert("edges", [(0, 3), (0, 1)])  # (0, 1) already present
        assert cs.collections() == ["edges"]
        assert [str(v) for v in cs["edges"].inserts] == ["(0, 3)"]
        assert not cs["edges"].deletes
        assert from_python((0, 3)) in db["edges"]

    def test_delete_drops_absent_rows_from_the_changeset(self):
        db = fresh_graph_db(4)
        cs = db.delete("edges", [(0, 1), (9, 9)])
        assert len(cs["edges"].deletes) == 1
        assert from_python((0, 1)) not in db["edges"]

    def test_noop_commit_is_empty_and_does_not_bump_the_version(self):
        db = fresh_graph_db(4)
        v0 = db.version
        cs = db.insert("edges", [(0, 1)])
        assert not cs and db.version == v0

    def test_delete_and_reinsert_in_one_commit_cancel(self):
        db = fresh_graph_db(4)
        cs = db.apply(Changeset.of(edges=([(0, 1)], [(0, 1)])))
        assert not cs
        assert from_python((0, 1)) in db["edges"]

    def test_insert_validates_against_the_element_type(self):
        db = fresh_graph_db(4)
        with pytest.raises(TypeError, match="element"):
            db.insert("edges", [7])

    def test_unknown_collection_raises_and_commits_nothing(self):
        db = fresh_graph_db(4)
        v0 = db.version
        with pytest.raises(KeyError):
            db.apply(Changeset.of(nowhere=([(1, 2)], [])))
        assert db.version == v0

    def test_frozen_database_refuses_mutation(self):
        db = graph_database(4, "path")  # builders freeze by default
        assert not db.mutable
        with pytest.raises(RuntimeError, match="frozen"):
            db.insert("edges", [(2, 0)])

    def test_version_bump_refreshes_attached_sessions(self):
        db = fresh_graph_db(4)
        session = connect(db)
        before = session.execute(Q.coll("edges")).value
        db.insert("edges", [(3, 0)])
        after = session.execute(Q.coll("edges")).value
        assert len(after.elements) == len(before.elements) + 1

    def test_multi_collection_changeset_applies_atomically(self):
        db = nested_graph_database(6, 0.3, seed=1, mutable=True)
        cs = db.apply(Changeset.of(edges=([(0, 5)], []), adj=([], [])))
        assert cs.collections() == ["edges"]
        assert cs.rows_touched() == 1


# ---------------------------------------------------------------------------
# Delta rules per operator
# ---------------------------------------------------------------------------

class TestDeltaRules:
    def check(self, db, query, batches):
        """Materialize, replay batches, compare with cold recompute each time."""
        session = connect(db)
        view = session.materialize(query)
        for ins, dels in batches:
            db.apply(Changeset.of(edges=(ins, dels)))
            assert_matches_cold(session, view, query)
        return view

    def test_map_rule(self):
        view = self.check(
            fresh_graph_db(6),
            Q.coll("edges").map(lambda e: e.snd),
            [([(0, 4), (2, 5)], []), ([], [(0, 1), (2, 5)])],
        )
        assert view.maintenance_plan().ops() == {"ivm-map", "ivm-base"}
        assert view.stats.fallback_recomputes == 0

    def test_select_rule(self):
        view = self.check(
            fresh_graph_db(6),
            Q.coll("edges").where(lambda e: e.fst == 2),
            [([(2, 0), (2, 5)], []), ([], [(2, 3), (2, 0)])],
        )
        assert view.maintenance_plan().ops() == {"ivm-select", "ivm-base"}
        assert view.stats.fallback_recomputes == 0

    def test_join_rule_both_sides(self):
        view = self.check(
            fresh_graph_db(8),
            Q.coll("edges").compose(Q.coll("edges")),
            [([(0, 5), (5, 2)], []), ([(7, 0)], [(1, 2)]), ([], [(5, 2)])],
        )
        assert view.maintenance_plan().ops() == {"ivm-join", "ivm-base"}
        assert view.stats.fallback_recomputes == 0

    def test_union_rule_with_overlap(self):
        q = (Q.coll("edges").where(lambda e: e.fst == 1)
             | Q.coll("edges").where(lambda e: e.snd == 2))
        view = self.check(
            fresh_graph_db(6), q,
            [([(1, 5)], []), ([], [(1, 2)])],  # (1, 2) satisfied both arms
        )
        assert "ivm-union" in view.maintenance_plan().ops()
        assert view.stats.fallback_recomputes == 0

    def test_general_ext_rule_via_unnest(self):
        db = stream_nested_database(8, 0.3, seed=2)
        session = connect(db)
        query = Q.coll("adj").unnest()
        view = session.materialize(query)
        assert view.maintenance_plan().ops() == {"ivm-ext", "ivm-base"}
        for cs in nested_update_stream(db, churn=0.3, seed=3).run(4):
            assert_matches_cold(session, view, query)
        assert view.stats.fallback_recomputes == 0

    def test_fixpoint_rule_insert_only(self):
        db = fresh_graph_db(10)
        session = connect(db)
        query = Q.coll("edges").fix()
        view = session.materialize(query)
        assert view.maintenance_plan().ops() == {
            "ivm-fixpoint", "ivm-base", "ivm-dred-overdelete", "ivm-dred-rederive"
        }
        db.insert("edges", [(9, 0)])  # closes the cycle: closure becomes total
        assert_matches_cold(session, view, query)
        assert len(view.value.elements) == 100
        assert view.stats.fallback_recomputes == 0
        assert view.stats.seminaive_rounds > 0

    def test_fixpoint_with_a_budget_not_reading_the_seed_degrades(self):
        # A loop whose iteration budget is a *constant* control set stays
        # fixed while the data grows: a cold run's round count can stop
        # short of the fixpoint a semi-naive continuation reaches.  The
        # delta compiler must reject the shape (the view then serves the
        # exact cold value through recompute mode).
        from repro.nra.derived import compose as compose_expr

        step = Lambda("rr", REL_T,
                      ast.Union(Var("rr"), compose_expr(Var("rr"), Var("rr"), BASE)))
        budget = ast.Const(from_python({0, 1}), SetType(BASE))  # 2 rounds, forever
        expr = ast.Apply(ast.Loop(step, BASE), ast.Pair(budget, Var("edges")))
        db = Database("g", mutable=True).register(
            "edges", from_python({(0, 1), (1, 2)}), type=REL_T
        )
        session = connect(db)
        view = session.materialize(expr)
        assert "ivm-recompute" in view.maintenance_plan().ops()
        db.insert("edges", [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)])
        assert_matches_cold(session, view, expr)

    def test_fixpoint_deletion_maintains_by_delete_rederive(self):
        # PR 5 fell back to whole-view recompute here; the DRed pass now
        # over-deletes the derivation cone of the lost edge and re-proves
        # survivors -- no fallback, and on a path graph nothing rederives.
        db = fresh_graph_db(10)
        session = connect(db)
        query = Q.coll("edges").fix()
        view = session.materialize(query)
        db.delete("edges", [(4, 5)])
        assert_matches_cold(session, view, query)
        assert view.stats.fallback_recomputes == 0
        assert view.stats.dred_applies == 1
        assert view.stats.dred_overdeletes == 25  # pairs (i, j), i <= 4 < 5 <= j
        assert view.stats.dred_rederives == 0  # a path has no alternative proofs

    def test_fixpoint_over_a_maintained_join_base(self):
        # fix() over two-hop edges: the fixpoint child is itself a join node.
        db = fresh_graph_db(12, "cycle")
        session = connect(db)
        query = Q.coll("edges").compose(Q.coll("edges")).fix()
        view = session.materialize(query)
        assert view.maintenance_plan().ops() == {
            "ivm-fixpoint", "ivm-join", "ivm-base",
            "ivm-dred-overdelete", "ivm-dred-rederive",
        }
        db.insert("edges", [(3, 11), (11, 6)])
        assert_matches_cold(session, view, query)
        assert view.stats.fallback_recomputes == 0


class TestSupportCounting:
    def test_join_output_survives_losing_one_of_two_derivations(self):
        db = Database("g", mutable=True).register(
            "edges", from_python({(0, 1), (1, 2), (0, 3), (3, 2)}), type=REL_T
        )
        session = connect(db)
        q = Q.coll("edges").compose(Q.coll("edges"))
        view = session.materialize(q)
        assert (0, 2) in view.rows()  # derived via 1 and via 3
        db.delete("edges", [(1, 2)])
        assert (0, 2) in view.rows()  # still derived via 3
        assert_matches_cold(session, view, q)
        db.delete("edges", [(3, 2)])
        assert (0, 2) not in view.rows()  # last derivation gone
        assert_matches_cold(session, view, q)
        assert view.stats.fallback_recomputes == 0

    def test_union_output_survives_losing_one_arm(self):
        db = Database("g", mutable=True).register(
            "edges", from_python({(1, 1), (2, 1)}), type=REL_T
        )
        session = connect(db)
        q = (Q.coll("edges").where(lambda e: e.fst == 1)
             | Q.coll("edges").where(lambda e: e.snd == 1))
        view = session.materialize(q)
        # (1, 1) is produced by both arms; delete nothing, shrink one arm.
        db.insert("edges", [(1, 3)])
        db.delete("edges", [(2, 1)])
        assert (1, 1) in view.rows()
        assert_matches_cold(session, view, q)


# ---------------------------------------------------------------------------
# Delete/rederive over counted fixpoints (the PR 6 tentpole)
# ---------------------------------------------------------------------------

class TestDRed:
    pytestmark = pytest.mark.dred

    def test_alternative_derivation_is_rederived(self):
        # Diamond 0->1->3, 0->2->3: deleting (1, 3) strands (0, 3)'s
        # through-1 derivation, but rederivation re-proves it via 2.
        db = Database("g", mutable=True).register(
            "edges", from_python({(0, 1), (1, 3), (0, 2), (2, 3)}), type=REL_T
        )
        session = connect(db)
        q = Q.coll("edges").fix()
        view = session.materialize(q)
        db.delete("edges", [(1, 3)])
        assert (0, 3) in view.rows()
        assert_matches_cold(session, view, q)
        assert view.stats.dred_applies == 1
        assert view.stats.dred_overdeletes == 2  # (1, 3) and (0, 3)
        assert view.stats.dred_rederives == 1  # (0, 3), via the other path
        assert view.stats.fallback_recomputes == 0

    def test_cyclic_self_support_does_not_keep_tuples_alive(self):
        # On a cycle every closure pair "supports itself" around the loop;
        # counted maintenance alone would never drop them.  Over-deletion
        # deliberately breaks cyclic support, rederivation restores exactly
        # the pairs the broken graph still proves.
        db = fresh_graph_db(8, "cycle")
        session = connect(db)
        q = Q.coll("edges").fix()
        view = session.materialize(q)
        assert len(view.value.elements) == 64  # total closure on the cycle
        db.delete("edges", [(3, 4)])
        assert_matches_cold(session, view, q)
        assert len(view.value.elements) == 28  # the surviving 7-path's pairs
        assert view.stats.fallback_recomputes == 0
        assert view.stats.dred_applies == 1

    def test_mixed_insert_delete_batch_is_one_dred_pass(self):
        db = fresh_graph_db(10)
        session = connect(db)
        q = Q.coll("edges").fix()
        view = session.materialize(q)
        db.apply(Changeset.of(edges=([(9, 0), (4, 6)], [(4, 5)])))
        assert_matches_cold(session, view, q)
        assert view.stats.fallback_recomputes == 0
        assert view.stats.dred_applies == 1

    def test_deletion_through_a_maintained_join_base(self):
        # fix() over two-hop edges: base deletes reach the fixpoint as the
        # join node's bilinear output deltas, and DRed consumes them.
        db = fresh_graph_db(12, "cycle")
        session = connect(db)
        q = Q.coll("edges").compose(Q.coll("edges")).fix()
        view = session.materialize(q)
        db.delete("edges", [(2, 3)])
        assert_matches_cold(session, view, q)
        db.apply(Changeset.of(edges=([(2, 3)], [(7, 8), (8, 9)])))
        assert_matches_cold(session, view, q)
        assert view.stats.fallback_recomputes == 0
        assert view.stats.dred_applies == 2

    def test_a_map_over_the_accumulator_recomputes(self):
        # Symmetric closure: the step maps over the accumulator instead of
        # joining it, so no budget proof covers it and the view recomputes.
        swap = Lambda(
            "p", EDGE_T,
            Singleton(ast.Pair(ast.Proj2(Var("p")), ast.Proj1(Var("p")))),
        )
        step = Lambda("rr", REL_T,
                      ast.Union(Var("rr"), ext_apply(swap, Var("rr"))))
        expr = ast.Apply(ast.Loop(step, BASE), ast.Pair(Var("edges"), Var("edges")))
        db = Database("g", mutable=True).register(
            "edges", from_python({(0, 1), (1, 2), (2, 3)}), type=REL_T
        )
        session = connect(db)
        view = session.materialize(expr)
        assert "ivm-recompute" in view.maintenance_plan().ops()
        db.delete("edges", [(1, 2)])
        assert_matches_cold(session, view, expr)
        assert view.rows() == {(0, 1), (1, 0), (2, 3), (3, 2)}
        assert view.stats.dred_applies == 0
        assert view.stats.fallback_recomputes == 1

    def test_self_join_off_projection_chains_recomputes(self):
        # fix()'s self-join, but keyed on a constructed pair: no squaring
        # and no seeded closure, so no budget proof covers it and every
        # commit -- inserts and deletes -- recomputes the view.
        p, q = Var("p"), Var("q")
        join = ext_apply(Lambda("p", EDGE_T, ext_apply(Lambda("q", EDGE_T, ast.If(
            ast.Eq(ast.Pair(ast.Proj2(p), ast.Proj2(p)), ast.Pair(ast.Proj1(q), ast.Proj1(q))),
            Singleton(ast.Pair(ast.Proj1(p), ast.Proj2(q))),
            ast.EmptySet(EDGE_T),
        )), Var("rr"))), Var("rr"))
        step = Lambda("rr", REL_T, ast.Union(Var("rr"), join))
        expr = ast.Apply(ast.Loop(step, BASE), ast.Pair(Var("edges"), Var("edges")))
        db = fresh_graph_db(8, "cycle")
        session = connect(db)
        view = session.materialize(expr)
        assert "ivm-recompute" in view.maintenance_plan().ops()
        assert len(view.value.elements) == 64
        db.delete("edges", [(3, 4)])
        assert_matches_cold(session, view, expr)
        db.insert("edges", [(3, 4), (0, 5)])
        assert_matches_cold(session, view, expr)
        db.apply(Changeset.of(edges=([(1, 6)], [(5, 6), (0, 5)])))
        assert_matches_cold(session, view, expr)
        assert view.stats.dred_applies == 0
        assert view.stats.flat_index_applies == 0
        assert view.stats.fallback_recomputes == 3

    def test_repeated_deletions_converge_to_the_empty_closure(self):
        db = fresh_graph_db(6)
        session = connect(db)
        q = Q.coll("edges").fix()
        view = session.materialize(q)
        for edge in [(2, 3), (0, 1), (4, 5), (1, 2), (3, 4)]:
            db.delete("edges", [edge])
            assert_matches_cold(session, view, q)
        assert view.rows() == frozenset()
        assert view.stats.fallback_recomputes == 0
        assert view.stats.dred_applies == 5


def _join_fixpoint(cond=None, out=None, inner="q", right=None, invariant=None):
    """``loop(\\rr. rr U J(rr, right))(edges, edges)`` for the equi-join
    ``J`` of ``p`` over ``rr`` and ``inner`` over ``right`` (default ``rr``):
    ``fix()``'s squaring step unless an argument says otherwise.  An
    ``invariant`` relation joins the union as a loop-invariant branch."""
    p, q = Var("p"), Var(inner)
    cond = ast.Eq(ast.Proj2(p), ast.Proj1(q)) if cond is None else cond
    out = ast.Pair(ast.Proj1(p), ast.Proj2(q)) if out is None else out
    join = ext_apply(Lambda("p", EDGE_T, ext_apply(Lambda(inner, EDGE_T, ast.If(
        cond, Singleton(out), ast.EmptySet(EDGE_T),
    )), Var("rr") if right is None else right)), Var("rr"))
    acc = Var("rr") if invariant is None else ast.Union(Var("rr"), invariant)
    step = Lambda("rr", REL_T, ast.Union(acc, join))
    return ast.Apply(ast.Loop(step, BASE), ast.Pair(Var("edges"), Var("edges")))


def _with_constant_branch():
    """``fix()``'s squaring step with a constant branch ``C`` of two edges a
    path graph has: not strict, since ``C`` does not read the accumulator."""
    return _join_fixpoint(invariant=ast.Const(from_python({(2, 3), (3, 4)}), REL_T))


def _symmetric_closure():
    swap = Lambda("p", EDGE_T,
                  Singleton(ast.Pair(ast.Proj2(Var("p")), ast.Proj1(Var("p")))))
    step = Lambda("rr", REL_T, ast.Union(Var("rr"), ext_apply(swap, Var("rr"))))
    return ast.Apply(ast.Loop(step, BASE), ast.Pair(Var("edges"), Var("edges")))


def _squaring(log=False, stream_right=False):
    """``loop(\\rr. rr U rr o rr)(field_of(edges), edges)`` -- or a ``log_loop``,
    or the other side streamed: Example 7.1's squaring, written out."""
    step = Lambda("rr", REL_T, ast.Union(Var("rr"), compose(
        Var("rr"), Var("rr"), BASE, stream_right=stream_right)))
    it = (ast.LogLoop if log else ast.Loop)(step, BASE)
    return ast.Apply(it, ast.Pair(field_of(Var("edges"), BASE, BASE), Var("edges")))


def _linear_closure(backward=False, log=False, budget=None, acc="rr"):
    """``loop(\\rr. rr U rr o edges)(field_of(edges), edges)`` -- or
    ``edges o rr``, a ``log_loop``, another round budget or another name for
    the accumulator -- written out."""
    grown = compose(Var("edges"), Var(acc), BASE, stream_right=True) if backward else compose(
        Var(acc), Var("edges"), BASE)
    step = Lambda(acc, REL_T, ast.Union(Var(acc), grown))
    it = (ast.LogLoop if log else ast.Loop)(step, BASE)
    ctrl = field_of(Var("edges"), BASE, BASE) if budget is None else budget
    return ast.Apply(it, ast.Pair(ctrl, Var("edges")))


def _closure_of_a_map_binding_rr():
    """``seeded_closure`` over ``ext(\\rr. {rr})(edges)``: the relation binds
    the accumulator's name, and the binder is its own, not the step's."""
    r = ext_apply(Lambda("rr", EDGE_T, Singleton(Var("rr"))), Var("edges"))
    return seeded_closure(r, field_of(r, BASE, BASE), Var("edges"), BASE)


#: (case, the fixpoint, engine options or None for the bare plan, whether it
#: is maintained as a linear fixpoint; every other case recomputes).
LINEAR_CASES = [
    ("fix", lambda: Q.coll("edges").fix(), {}, True),
    ("fix-object-kernels", lambda: Q.coll("edges").fix(), {"flat": False}, True),
    ("rr-o-edges", _linear_closure, {}, True),
    ("edges-o-rr", lambda: _linear_closure(backward=True), {}, True),
    ("renamed-accumulator", lambda: _linear_closure(acc="reach"), {}, True),
    ("a-relation-binding-the-accumulator-name", _closure_of_a_map_binding_rr, {}, True),
    ("budget-over-another-relation", lambda: _linear_closure(
        budget=field_of(Var("other"), BASE, BASE)), None, False),
    ("squaring", _squaring, None, False),
    ("squaring-log-loop-streamed-right", lambda: _squaring(log=True, stream_right=True),
     None, False),
    ("against-a-constant", lambda: _join_fixpoint(
        right=ast.Const(from_python({(1, 2), (2, 3)}), REL_T)), None, False),
    ("squaring-over-its-seed", _join_fixpoint, None, False),
    ("keys-right-to-left", lambda: _join_fixpoint(
        cond=ast.Eq(ast.Proj1(Var("q")), ast.Proj2(Var("p")))), None, False),
    ("symmetric-closure", _symmetric_closure, None, False),
    ("keys-on-constructed-pairs", lambda: _join_fixpoint(cond=ast.Eq(
        ast.Pair(ast.Proj2(Var("p")), ast.Proj2(Var("p"))),
        ast.Pair(ast.Proj1(Var("q")), ast.Proj1(Var("q"))))), None, False),
    ("one-component-output", lambda: _join_fixpoint(out=ast.Proj1(Var("p"))),
     None, False),
    ("binder-shadows-the-accumulator", lambda: _join_fixpoint(inner="rr"),
     None, False),
    ("a-loop-invariant-branch", _with_constant_branch, None, False),
]


@pytest.mark.parametrize(
    "make, engine_options, linear",
    [case[1:] for case in LINEAR_CASES],
    ids=[case[0] for case in LINEAR_CASES],
)
def test_which_fixpoint_steps_are_linear_indexed(make, engine_options, linear):
    # Only a budget proof keeps a fixpoint in delta mode: seeded_closure's
    # own loop, counted.  Every other loop -- the squaring written out, one
    # over its seed rather than its field, one reading a constant --
    # recomputes.
    if engine_options is None:
        plan = maintenance_plan(make(), frozenset({"edges"}))
    else:
        session = connect(fresh_graph_db(6), engine=Engine(**engine_options))
        view = session.materialize(make())
        plan = view.maintenance_plan()
        session.db.insert("edges", [(5, 0)])
        # The counts serve the commit whatever kernels the engine runs.
        assert view.stats.flat_index_applies == 1
        assert_matches_cold(session, view, make())
    if not linear:
        assert plan.ops() == {"ivm-recompute"}
        return
    fix = next(n for n in plan.walk() if n.op == "ivm-fixpoint")
    assert "linear-indexed" in fix.annotations


def _swapped_join_over_edges():
    """A linear join against the edges that is no compose: ``(snd q, fst p)``."""
    step = _join_fixpoint(out=ast.Pair(ast.Proj2(Var("q")), ast.Proj1(Var("p"))),
                          right=Var("edges")).func.step
    return ast.Apply(ast.Loop(step, BASE),
                     ast.Pair(field_of(Var("edges"), BASE, BASE), Var("edges")))


@pytest.mark.parametrize("make", [
    lambda: _linear_closure(log=True),
    lambda: _linear_closure(budget=Var("edges")),
    _swapped_join_over_edges,
], ids=["log-loop", "budget-not-field-of", "not-a-compose"])
def test_a_linear_step_over_a_base_needs_a_loop_over_its_field(make):
    # The step reads the edges: only seeded_closure's ``loop`` over
    # ``field_of(edges)`` is proven to reach the least fixpoint whatever a
    # commit does.
    assert "ivm-recompute" in maintenance_plan(make(), frozenset({"edges"})).ops()


def test_a_non_pair_in_the_counted_pass_raises_what_a_cold_run_raises():
    # Typed rows never leave the pair domain, so the views here are built by
    # hand over a seed typed as a set of atoms: the template is ill-typed,
    # and the counted pass meets the atom a cold run projects.
    engine = Engine()
    template = seeded_closure(Var("edges"), field_of(Var("edges"), BASE, BASE),
                              Var("seed"), BASE)
    bases = frozenset({"edges", "seed"})

    def database(seed):
        return Database("g").register("edges", {(0, 1), (1, 2)}).register(
            "seed", from_python(seed), type=SetType(BASE))

    def cold(db):
        return engine.run(template, env=db.environment())

    db = database({5})
    with pytest.raises(NRAEvalError, match="pi2: expected a pair"):
        cold(db)
    with pytest.raises(NRAEvalError, match="pi2: expected a pair"):
        MaterializedView(engine, template, dict(db.snapshot(engine).env), bases)

    db = database(set())
    view = MaterializedView(engine, template, dict(db.snapshot(engine).env), bases)
    db.add_view(view)
    view.bind_registry(db)
    assert "ivm-fixpoint" in view.maintenance_plan().ops()
    with pytest.raises(NRAEvalError, match="pi2: expected a pair"):
        db.insert("seed", [5])
    # The view stays usable: the next read rebuilds, and raises what a cold
    # run raises while the atom is there.
    assert view._rebuild_due
    with pytest.raises(NRAEvalError, match="pi2: expected a pair"):
        view.value
    db.delete("seed", [5])
    assert not view._rebuild_due and view.value == cold(db)
    db.insert("edges", [(2, 3)])
    assert view.value == cold(db) and view.stats.flat_index_applies == 1


@pytest.mark.dred
def test_a_self_join_with_an_invariant_branch_keeps_what_the_branch_adds():
    # Deleting an edge the constant branch also holds must keep it, and what
    # it derives, in the view: a cold run re-adds it every round.  The step
    # reads a constant, so the view recomputes.
    session = connect(fresh_graph_db(8))
    view = session.materialize(_with_constant_branch())
    assert_matches_cold(session, view, _with_constant_branch())
    session.db.delete("edges", [(3, 4)])
    assert_matches_cold(session, view, _with_constant_branch())
    session.db.apply(Changeset.of(edges=([(7, 0)], [(2, 3)])))
    assert_matches_cold(session, view, _with_constant_branch())
    assert view.recompute_only and view.stats.fallback_recomputes == 2


@pytest.mark.dred
def test_the_squaring_written_out_recomputes():
    # The squaring over its own field: its budget covers every path, but the
    # step is no linear join, so the view recomputes -- on the flat loop a
    # query runs -- and keeps the cold run's value.
    expr = _squaring()
    db = fresh_graph_db(10)
    session = connect(db)
    view = session.materialize(expr)
    assert view.maintenance_plan().ops() == {"ivm-recompute"}
    assert_matches_cold(session, view, expr)
    stats = session.engine._vec().stats
    before = stats.flat_fixpoints
    db.insert("edges", [(9, 10), (10, 11)])
    assert stats.flat_fixpoints > before
    assert_matches_cold(session, view, expr)
    db.delete("edges", [(4, 5)])
    assert_matches_cold(session, view, expr)
    db.apply(Changeset.of(edges=([(4, 5), (11, 0)], [(9, 10)])))
    assert_matches_cold(session, view, expr)
    assert view.stats.dred_applies == 0
    assert view.stats.flat_index_applies == 0
    assert view.stats.fallback_recomputes == 3


@pytest.mark.dred
def test_squaring_written_twice_recomputes():
    # The squaring's join written twice, the second time with its sides
    # swapped, under a loop over its seed: no budget proof names the shape,
    # so the view recomputes, and keeps the cold run's value.
    p, q = Var("p"), Var("q")
    twice = ext_apply(Lambda("q", EDGE_T, ext_apply(Lambda("p", EDGE_T, ast.If(
        ast.Eq(ast.Proj1(q), ast.Proj2(p)),
        Singleton(ast.Pair(ast.Proj1(p), ast.Proj2(q))), ast.EmptySet(EDGE_T),
    )), Var("rr"))), Var("rr"))
    step = _join_fixpoint().func.step
    step = Lambda("rr", REL_T, ast.Union(step.body, twice))
    expr = ast.Apply(ast.Loop(step, BASE), ast.Pair(Var("edges"), Var("edges")))
    db = fresh_graph_db(10)
    session = connect(db)
    view = session.materialize(expr)
    assert view.maintenance_plan().ops() == {"ivm-recompute"}
    assert_matches_cold(session, view, expr)
    db.insert("edges", [(9, 10), (10, 11)])
    assert_matches_cold(session, view, expr)
    db.delete("edges", [(4, 5)])
    assert_matches_cold(session, view, expr)
    db.apply(Changeset.of(edges=([(4, 5), (11, 0)], [(9, 10)])))
    assert_matches_cold(session, view, expr)
    assert view.stats.dred_applies == 0
    assert view.stats.fallback_recomputes == 3


#: A constant relation sharing the edges (1, 2) and (4, 5) of the path graph.
CONST_REL = {(1, 2), (2, 7), (4, 5), (5, 0), (9, 3)}

#: Insert, delete, then a mixed batch, on the 8-node path graph.
THREE_COMMITS = (
    Changeset.of(edges=([(2, 1), (5, 4), (7, 2)], [])),
    Changeset.of(edges=([], [(1, 2), (3, 4)])),
    Changeset.of(edges=([(1, 2), (0, 5)], [(2, 1), (4, 5)])),
)


@pytest.mark.dred
@pytest.mark.parametrize("make", [
    lambda edges, const: edges.compose(const),
    lambda edges, const: edges | const,
], ids=["compose", "union"])
def test_joins_and_unions_against_a_constant_relation_are_maintained(make):
    # The build feeds the static side through the node's one pass; every
    # later batch moves the base side alone.
    query = make(Q.coll("edges"), Q.const(CONST_REL, REL_T))
    db = fresh_graph_db(8)
    session = connect(db)
    view = session.materialize(query)
    assert "ivm-static" in {n.op for n in view.maintenance_plan().walk()}
    assert view.rows() == session.execute(query).rows()
    for cs in THREE_COMMITS:
        db.apply(cs)
        assert view.rows() == session.execute(query).rows()
    assert view.stats.delta_applies == 3
    assert view.stats.fallback_recomputes == 0


def _recorded(view) -> list:
    """Each later commit's ViewDelta, as sets plus its DRed counts."""
    log: list = []
    view.add_listener(lambda _view, d, _fallback: log.append((
        frozenset(d.inserted), frozenset(d.deleted),
        d.dred_overdeleted, d.dred_rederived,
    )))
    return log


@pytest.mark.dred
@pytest.mark.parametrize("make", [
    lambda: Q.coll("edges").fix(),
    lambda: Q.coll("edges").compose(Q.coll("edges")),
    lambda: _standing_queries()["select-over-fix"],
], ids=["fix", "compose", "select-over-fix"])
def test_a_built_view_and_a_grown_view_agree(make):
    # A build is a commit from empty: a view built on D and one built on an
    # empty collection that then absorbs D in one commit hold the same state,
    # so every later commit moves them identically.
    graph = fresh_graph_db(8)["edges"]
    built_db = Database("g").register("edges", graph, type=REL_T)
    grown_db = Database("g").register("edges", [], type=REL_T)
    built, grown = connect(built_db), connect(grown_db)
    views = [s.materialize(make()) for s in (built, grown)]
    grown_db.apply(Changeset.of(edges=(list(graph.elements), [])))
    logs = [_recorded(v) for v in views]
    for cs in THREE_COMMITS:
        for session, view in zip((built, grown), views):
            session.db.apply(cs)
            assert view.rows() == session.execute(make()).rows()
    assert logs[0] == logs[1]
    assert len(logs[0]) == len(THREE_COMMITS)
    assert all(v.stats.fallback_recomputes == 0 for v in views)


class TestDRedHonestyBoundary:
    """Loop shapes the delta compiler rejects still recompute on deletion.

    DRed is gated by the same grammar as the semi-naive continuation: a view
    that compiles to ``ivm-fixpoint`` is deletion-maintainable, and one that
    does not must keep taking the whole-view recompute path -- visibly, via
    ``fallback_recomputes`` -- rather than an unsound delta.
    """

    pytestmark = pytest.mark.dred

    def _materialize(self, expr, edges):
        db = Database("g", mutable=True).register(
            "edges", from_python(edges), type=REL_T
        )
        session = connect(db)
        return db, session, session.materialize(expr)

    def test_constant_budget_loop_recomputes_on_delete(self):
        step = Lambda("rr", REL_T,
                      ast.Union(Var("rr"), compose(Var("rr"), Var("rr"), BASE)))
        budget = ast.Const(from_python({0, 1}), SetType(BASE))
        expr = ast.Apply(ast.Loop(step, BASE), ast.Pair(budget, Var("edges")))
        db, session, view = self._materialize(
            expr, {(0, 1), (1, 2), (2, 3), (3, 4)}
        )
        assert "ivm-recompute" in view.maintenance_plan().ops()
        db.delete("edges", [(1, 2)])
        assert_matches_cold(session, view, expr)
        assert view.stats.fallback_recomputes == 1
        assert view.stats.dred_applies == 0

    def test_step_reading_a_mutable_collection_recomputes_on_delete(self):
        # The step body reads "edges" beyond the accumulator: a commit
        # changes the step function itself, so no frontier algebra applies.
        step = Lambda("rr", REL_T,
                      ast.Union(Var("rr"), compose(Var("rr"), Var("edges"), BASE)))
        expr = ast.Apply(ast.Loop(step, BASE), ast.Pair(Var("edges"), Var("edges")))
        db, session, view = self._materialize(
            expr, {(0, 1), (1, 2), (2, 3), (3, 4)}
        )
        assert "ivm-recompute" in view.maintenance_plan().ops()
        db.delete("edges", [(2, 3)])
        assert_matches_cold(session, view, expr)
        db.apply(Changeset.of(edges=([(2, 3)], [(0, 1)])))
        assert_matches_cold(session, view, expr)
        assert view.stats.fallback_recomputes == 2
        assert view.stats.dred_applies == 0

    def test_difference_over_a_fixpoint_recomputes_on_delete(self):
        # Difference is outside the counted grammar even when one operand
        # is a maintainable fixpoint: the whole view degrades, honestly.
        q = Q.coll("edges").fix() - Q.coll("edges")
        db = fresh_graph_db(8)
        session = connect(db)
        view = session.materialize(q)
        assert view.recompute_only
        db.delete("edges", [(3, 4)])
        assert_matches_cold(session, view, q)
        assert view.stats.fallback_recomputes == 1
        assert view.stats.dred_applies == 0


    def test_a_loop_against_a_constant_follows_its_shrinking_budget(self):
        # loop(\\rr. rr U rr o C)(field_of(edges), edges), C the constant
        # chain 0 -> 1 -> ... -> 30.  Built on (0, 1) plus 40 disjoint edges,
        # the 82 rounds walk the whole chain; once the 40 go, the budget is 2
        # rounds, and the cold run stops at (0, 3).  The least fixpoint the
        # passes would reach keeps all 30 rows: the step reads a constant,
        # so no budget proof covers it and the view recomputes.
        from repro.nra.eval import run as reference_run
        from repro.objects.values import to_python

        chain = ast.Const(from_python({(i, i + 1) for i in range(30)}), REL_T)
        step = Lambda("rr", REL_T, ast.Union(Var("rr"), compose(Var("rr"), chain, BASE)))
        expr = ast.Apply(ast.Loop(step, BASE), ast.Pair(
            field_of(Var("edges"), BASE, BASE), Var("edges")))
        extra = [(100 + 2 * i, 101 + 2 * i) for i in range(40)]
        db, session, view = self._materialize(expr, {(0, 1), *extra})
        assert view.maintenance_plan().ops() == {"ivm-recompute"}
        assert len(view) == 30 + 40
        db.delete("edges", extra)
        want = to_python(reference_run(expr, env=db.environment()))
        assert want == {(0, 1), (0, 2), (0, 3)}
        assert view.rows() == want and len(view) == 3
        assert view.stats.fallback_recomputes == 1


def _counting_runs(monkeypatch, session) -> list:
    """Every cold run of a template through the session's engine, recorded."""
    vec = session.engine._vec()
    runs: list = []
    run = vec.run

    def counted(expr, *args, **kwargs):
        runs.append(expr)
        return run(expr, *args, **kwargs)

    monkeypatch.setattr(vec, "run", counted)
    return runs


@pytest.mark.parametrize("shape", ["fix", "compose", "select-over-fix"])
def test_a_delta_view_never_runs_its_template_cold(monkeypatch, shape):
    # The build is the maintenance pass from empty -- at materialize, at
    # refresh and at the rebuild after a raised pass -- and equals the cold
    # run by the budget proofs, without running it.
    query = _standing_queries()[shape]
    db = fresh_graph_db(10)
    session = connect(db)
    runs = _counting_runs(monkeypatch, session)
    view = session.materialize(query)
    assert not view.recompute_only and runs == []
    db.insert("edges", [(9, 0)])
    assert view.refresh() is not None and runs == []
    apply_node, raised = view._apply_node, []

    def raises_once(*args):
        if not raised:
            raised.append(True)
            raise RuntimeError("maintenance failed")
        return apply_node(*args)

    monkeypatch.setattr(view, "_apply_node", raises_once)
    with pytest.raises(RuntimeError, match="maintenance failed"):
        db.delete("edges", [(4, 5)])
    rows = view.rows()  # the read rebuilds
    assert runs == [] and view.stats.fallback_recomputes == 2
    assert rows == session.execute(query).rows()


def test_a_recompute_view_runs_its_template_cold_once_at_build(monkeypatch):
    session = connect(fresh_graph_db(8))
    runs = _counting_runs(monkeypatch, session)
    view = session.materialize(Q.coll("edges").fix() - Q.coll("edges"))
    assert view.recompute_only and len(runs) == 1


@pytest.mark.ivm
def test_an_unread_fix_view_whose_decode_raised_sends_listeners_the_rebuild(monkeypatch):
    # A commit whose boundary cannot be decoded (the pairs it derives pass
    # the dense-id limit) records nothing on the output, so the read that
    # rebuilds diffs against what the listener was sent.
    from repro.engine.interning import DenseIdLimitError

    db = Database("g").register("edges", [], type=REL_T)
    session = connect(db)
    view = session.materialize(Q.coll("edges").fix(), name="tc")
    mirror: set = set()

    def fold(_view, delta, _fallback):
        mirror.difference_update(delta.deleted)
        mirror.update(delta.inserted)

    view.add_listener(fold)
    db.insert("edges", [(i, i + 1) for i in range(6)])
    assert len(mirror) == len(view) == 21 and view.stats.materializations == 0
    it = session.engine.interner
    monkeypatch.setattr(it, "id_limit", it.dense_size + 2)
    with pytest.raises(DenseIdLimitError):
        db.insert("edges", [(6, 0)])
    monkeypatch.undo()
    assert len(view) == 49  # the read rebuilds, and the mirror follows it
    assert mirror == set(view.value.elements)
    assert view.value == session.execute(Q.coll("edges").fix()).value


@pytest.mark.dred
def test_a_fix_view_on_a_cycle_deletes_and_reinserts_an_edge_without_recomputing():
    # The cycle probe's steps, counted (no timing): on cycle(32) every node
    # reaches every node, so one deleted edge over-deletes the whole
    # closure; the view still follows each step by its counted pass.
    db = fresh_graph_db(32, "cycle")
    session = connect(db)
    q = Q.coll("edges").fix()
    view = session.materialize(q)
    assert len(view) == 32 * 32
    db.delete("edges", [(7, 8)])
    assert_matches_cold(session, view, q)
    assert len(view) == 32 * 31 // 2
    db.insert("edges", [(7, 8)])
    assert_matches_cold(session, view, q)
    assert len(view) == 32 * 32
    assert view.stats.fallback_recomputes == 0
    assert view.stats.flat_index_applies == 2
    assert view.stats.dred_applies == 1
    # Linear counting over-deletes what a path through (7, 8) derives, and
    # rederives the tuples whose own paths avoid it.
    assert view.stats.dred_overdeletes == 32 * 32
    assert view.stats.dred_rederives == 32 * 31 // 2


class TestDeletionStreamOracle:
    """Seeded deletion-heavy / mixed-churn replay riding in the fast matrix.

    Each case replays a seeded stream against a recursive view and compares
    with a cold recompute after every commit; the stats counters prove the
    DRed path (not the recompute fallback) served every deletion.  The wide
    100-seed oracle lives in ``tests/property/test_backend_differential.py``.
    """

    pytestmark = pytest.mark.dred

    @pytest.mark.parametrize("seed", range(8))
    def test_deletion_stream_on_transitive_closure(self, seed):
        db = stream_graph_database(24, "random", seed=seed, p=0.12)
        session = connect(db)
        q = Q.coll("edges").fix()
        view = session.materialize(q)
        deleted = 0
        for cs in deletion_update_stream(db, churn=0.05, seed=seed + 100).run(6):
            d = cs.get("edges")
            deleted += len(d.deletes) if d else 0
            assert_matches_cold(session, view, q)
        assert deleted > 0
        assert view.stats.fallback_recomputes == 0
        assert view.stats.dred_applies > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_stream_on_two_hop_closure(self, seed):
        db = stream_graph_database(16, "random", seed=seed, p=0.15)
        session = connect(db)
        q = Q.coll("edges").compose(Q.coll("edges")).fix()
        view = session.materialize(q)
        stream = mixed_update_stream(db, churn=0.08, seed=seed + 7, domain=16)
        for _ in stream.run(5):
            assert_matches_cold(session, view, q)
        assert view.stats.fallback_recomputes == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_alternating_stream_grow_then_shrink(self, seed):
        db = stream_graph_database(20, "random", seed=seed, p=0.1)
        session = connect(db)
        q = Q.coll("edges").fix()
        view = session.materialize(q)
        stream = alternating_update_stream(db, churn=0.06, seed=seed + 3, domain=20)
        for _ in stream.run(6):
            assert_matches_cold(session, view, q)
        assert view.stats.fallback_recomputes == 0
        assert view.stats.dred_applies > 0


# ---------------------------------------------------------------------------
# Fallbacks and degraded modes
# ---------------------------------------------------------------------------

class TestFallbacks:
    @pytest.mark.parametrize("beside", [False, True], ids=["alone", "under-a-union"])
    def test_difference_shape_runs_in_recompute_mode(self, beside):
        # Under a union the plan keeps its delta nodes around the one
        # recompute node, but that node still sends the whole view to
        # recompute mode: one fallback per commit, not one per node.
        db = fresh_graph_db(6)
        session = connect(db)
        q = Q.coll("edges") - Q.coll("edges").where(lambda e: e.fst == 2)
        if beside:
            q = Q.coll("edges").where(lambda e: e.fst == 0).union(q)
        view = session.materialize(q)
        kinds = [op.kind for op in view.plan_ops.walk()]
        assert kinds.count("recompute") == 1 and ("union" in kinds) == beside
        assert view.recompute_only and "mode=recompute" in repr(view)
        db.insert("edges", [(2, 0), (4, 0)])
        assert_matches_cold(session, view, q)
        assert view.stats.fallback_recomputes == 1
        db.delete("edges", [(2, 3)])
        assert_matches_cold(session, view, q)
        assert view.stats.fallback_recomputes == 2
        assert session.stats.fallback_recomputes == 2

    def test_correlated_flat_map_is_recognised_as_a_join(self):
        # A correlated subquery in the equi-join shape is maintained
        # bilinearly, not degraded: the analysis sees through flat_map.
        q = Q.coll("edges").flat_map(
            lambda e: Q.coll("edges").where(lambda f: f.fst == e.snd)
        )
        db = fresh_graph_db(6)
        session = connect(db)
        view = session.materialize(q)
        assert view.maintenance_plan().ops() == {"ivm-join", "ivm-base"}
        db.insert("edges", [(5, 1)])
        assert_matches_cold(session, view, q)
        assert view.stats.fallback_recomputes == 0

    def test_ext_body_reading_a_mutable_collection_degrades(self):
        # The subquery ignores the element and is not a join shape: the
        # per-element contribution is no longer a pure function of the
        # element, so the node falls back to recompute.
        q = Q.coll("edges").flat_map(lambda e: Q.coll("edges").project(1))
        db = fresh_graph_db(6)
        session = connect(db)
        view = session.materialize(q)
        assert "ivm-recompute" in view.maintenance_plan().ops()
        db.insert("edges", [(5, 1)])
        assert_matches_cold(session, view, q)

    def test_untouched_views_are_not_refreshed(self):
        db = nested_graph_database(8, 0.25, seed=3, mutable=True)
        session = connect(db)
        adj_view = session.materialize(Q.coll("adj").unnest())
        edge_view = session.materialize(Q.coll("edges").where(lambda e: e.fst == 1))
        db.insert("edges", [(1, 7)])
        assert edge_view.stats.delta_applies == 1
        assert adj_view.stats.delta_applies == 0  # "adj" untouched

    def test_static_query_without_database(self):
        session = connect()
        view = session.materialize(Q.const({1, 2, 3}))
        assert view.rows() == frozenset({1, 2, 3})

    def test_scalar_query_is_rejected(self):
        session = connect(fresh_graph_db(4))
        with pytest.raises(NRAEvalError, match="expected a set"):
            session.materialize(Q.coll("edges").is_empty())


# ---------------------------------------------------------------------------
# Invalidation ordering, staleness, lifecycle
# ---------------------------------------------------------------------------

class TestViewsOnEveryBackend:
    """A view evaluates through the engine's vectorized evaluator whatever
    backend the engine was built with; a cold execute runs that backend."""

    @pytest.mark.parametrize("backend", ["reference", "parallel", "auto"])
    def test_delta_and_recompute_views_match_a_cold_execute(self, backend):
        engine = Engine(backend=backend)
        try:
            db = fresh_graph_db(8)
            session = connect(db, engine=engine)
            queries = {
                "fix": Q.coll("edges").fix(),
                "recompute": Q.coll("edges") - Q.coll("edges").where(lambda e: e.fst == 2),
            }
            views = {name: session.materialize(q) for name, q in queries.items()}
            assert not views["fix"].recompute_only
            assert views["recompute"].recompute_only
            for step in (None, ("insert", [(7, 2)]), ("delete", [(3, 4)])):
                if step is not None:
                    getattr(db, step[0])("edges", step[1])
                for name, q in queries.items():
                    assert views[name].rows() == session.execute(q).rows(), (name, step)
            assert views["fix"].stats.delta_applies == 2
            assert views["recompute"].stats.fallback_recomputes == 2
        finally:
            engine.close()


class TestViewLifecycle:
    def test_views_refresh_in_registration_order(self):
        db = fresh_graph_db(6)
        session = connect(db)
        order = []
        views = []
        for label in ("first", "second", "third"):
            v = session.materialize(Q.coll("edges").map(lambda e: e.fst), name=label)
            v._on_apply = lambda view, delta, fb: order.append(view.name)
            views.append(v)
        db.insert("edges", [(5, 0)])
        assert order == ["first", "second", "third"]
        db.delete("edges", [(5, 0)])
        assert order == ["first", "second", "third"] * 2

    def test_dropping_a_base_collection_marks_dependents_stale(self):
        db = nested_graph_database(6, 0.3, seed=5, mutable=True)
        session = connect(db)
        edge_view = session.materialize(Q.coll("edges").where(lambda e: e.fst == 0))
        adj_view = session.materialize(Q.coll("adj").unnest())
        db.drop("edges")
        assert edge_view.stale and not adj_view.stale
        with pytest.raises(RuntimeError, match="stale"):
            edge_view.value
        # The untouched view keeps serving.
        adj_view.value

    def test_closed_view_refuses_service_and_skips_commits(self):
        db = fresh_graph_db(6)
        session = connect(db)
        view = session.materialize(Q.coll("edges"))
        view.close()
        db.insert("edges", [(5, 0)])
        assert view.stats.delta_applies == 0
        with pytest.raises(RuntimeError, match="closed"):
            view.value

    def test_closing_a_view_unregisters_it_from_the_database(self):
        db = fresh_graph_db(6)
        session = connect(db)
        view = session.materialize(Q.coll("edges"))
        assert db.views() == [view]
        view.close()
        assert db.views() == []

    def test_closing_the_session_closes_its_views(self):
        db = fresh_graph_db(6)
        with connect(db) as session:
            view = session.materialize(Q.coll("edges"))
        assert view.closed and db.views() == []

    def test_commits_skip_stale_views_and_still_reach_later_ones(self):
        # A commit must not fail (after the data already changed) because an
        # earlier-registered view went stale, and views registered after the
        # stale one must still be notified.
        db = nested_graph_database(6, 0.3, seed=9, mutable=True)
        session = connect(db)
        stale_view = session.materialize(Q.coll("adj").unnest())
        live_view = session.materialize(Q.coll("edges").where(lambda e: e.fst == 0))
        db.drop("adj")
        assert stale_view.stale
        db.insert("edges", [(0, 99)])  # must not raise
        assert live_view.stats.delta_applies == 1
        assert (0, 99) in live_view.rows()

    def test_refresh_rebuilds_and_reports_the_diff(self):
        db = fresh_graph_db(6)
        session = connect(db)
        view = session.materialize(Q.coll("edges"))
        delta = view.refresh()
        assert not delta  # nothing changed
        assert view.stats.fallback_recomputes == 1

    def test_materialize_with_params_binds_now(self):
        db = fresh_graph_db(8)
        session = connect(db)
        q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
        view = session.materialize(q, params={"src": 2})
        db.insert("edges", [(2, 7), (5, 7)])
        assert view.rows() == frozenset({(2, 3), (2, 7)})
        assert view.stats.fallback_recomputes == 0


# ---------------------------------------------------------------------------
# Stats wiring and explain
# ---------------------------------------------------------------------------

class TestStatsAndExplain:
    def test_session_stats_aggregate_view_maintenance(self):
        db = fresh_graph_db(8)
        session = connect(db)
        session.materialize(Q.coll("edges").fix(), name="tc")
        session.materialize(Q.coll("edges").compose(Q.coll("edges")), name="hop")
        assert session.stats.materializes == 2
        db.insert("edges", [(7, 0)])
        assert session.stats.delta_applies == 2
        assert session.stats.fallback_recomputes == 0
        assert session.stats.view_rows_touched > 0
        db.delete("edges", [(3, 4)])
        assert session.stats.delta_applies == 4
        assert session.stats.fallback_recomputes == 0  # DRed, not fallback
        # Deleting one edge of the 8-cycle strands every closure pair's
        # through-(3,4) derivations; the surviving 7-path's pairs re-prove.
        assert session.stats.dred_overdeletes == 64
        assert session.stats.dred_rederives == 28

    def test_engine_explain_plan_incremental_backend(self):
        eng = Engine()
        plan = eng.explain_plan(compose(Var("a"), Var("b"), BASE),
                                backend="incremental")
        assert plan.ops() == {"ivm-join", "ivm-base"}
        assert "bilinear" in plan.annotations

    def test_session_explain_plan_incremental_backend(self):
        session = connect(fresh_graph_db(4))
        plan = session.explain_plan(Q.coll("edges").fix(), backend="incremental")
        assert "ivm-fixpoint" in plan.ops()

    def test_explain_plan_renders_dred_substeps_under_the_fixpoint(self):
        session = connect(fresh_graph_db(4))
        plan = session.explain_plan(Q.coll("edges").fix(), backend="incremental")
        fix = next(n for n in plan.walk() if n.op == "ivm-fixpoint")
        assert "delete-rederive" in fix.annotations
        assert {"ivm-dred-overdelete", "ivm-dred-rederive"} <= {
            c.op for c in fix.children
        }
        # Non-recursive plans carry no DRed sub-steps.
        flat = session.explain_plan(Q.coll("edges").map(lambda e: e.fst),
                                    backend="incremental")
        assert not {"ivm-dred-overdelete", "ivm-dred-rederive"} & flat.ops()

    def test_maintenance_plan_marks_static_subtrees(self):
        eng = Engine()
        expr = ast.Union(Var("edges"), ast.Const(from_python({(1, 2)}), REL_T))
        plan = derive(eng.optimize(expr).optimized, frozenset({"edges"}))
        assert plan.kinds() == {"union", "base", "static"}

    def test_run_rejects_incremental_as_an_execution_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Engine(backend="incremental")


# ---------------------------------------------------------------------------
# Outputs are rendered on read
# ---------------------------------------------------------------------------

def _standing_queries():
    edges = Q.coll("edges")
    return {
        "fix": edges.fix(),
        "compose": edges.compose(edges),
        "select-over-fix": edges.fix().where(lambda e: e.fst == 1),
        "union": (edges.where(lambda e: e.fst == 1)
                  | edges.where(lambda e: e.snd == 2)),
    }


@pytest.mark.dred
class TestRenderOnRead:
    """A commit records what joined and left; ``value`` folds it when read."""

    @pytest.mark.parametrize("shape", sorted(_standing_queries()))
    def test_k_commits_then_one_read_cost_one_render(self, shape):
        query = _standing_queries()[shape]
        db = fresh_graph_db(10)
        session = connect(db)
        view = session.materialize(query)
        db.insert("edges", [(1, 5)])
        db.insert("edges", [(5, 2), (7, 1)])
        db.delete("edges", [(2, 3)])
        db.insert("edges", [(1, 8), (0, 2)])
        assert view.stats.delta_applies == 4
        assert view.stats.materializations == 0
        cold = session.execute(query).value
        assert len(view) == len(cold.elements)  # kept from the deltas: no render
        assert view.stats.materializations == 0
        assert view.value is session.engine.intern(cold)
        assert view.stats.materializations == 1
        assert view.value is view.value and view.rows() == session.execute(query).rows()
        assert view.stats.materializations == 1
        assert view.stats.fallback_recomputes == 0

    @pytest.mark.parametrize("shape", sorted(_standing_queries()))
    def test_a_net_zero_pair_costs_no_render_and_returns_the_identical_object(self, shape):
        db = fresh_graph_db(10)
        session = connect(db)
        view = session.materialize(_standing_queries()[shape])
        before, size = view.value, len(view)
        batch = [(1, 5), (5, 1), (0, 2)]
        assert db.insert("edges", batch).rows_touched() == 3
        assert len(view) > size
        assert db.delete("edges", batch).rows_touched() == 3
        assert len(view) == size
        assert view.value is before
        assert view.stats.materializations == 0

    def test_reader_thread_observes_only_committed_versions(self):
        query = Q.coll("edges").fix()
        batches = [[(i % 7, (3 * i + 1) % 9)] for i in range(40)]

        def replay(db):
            for i, batch in enumerate(batches):
                (db.delete if i % 3 == 2 else db.insert)("edges", batch)
                yield

        oracle_db = fresh_graph_db(10)
        with connect(oracle_db) as cold:
            versions = {cold.execute(query).rows()}
            for _ in replay(oracle_db):
                versions.add(cold.execute(query).rows())

        db = fresh_graph_db(10)
        session = connect(db)
        view = session.materialize(query)
        interner = session.engine.interner
        done = threading.Event()
        seen: list = []

        def read():
            while not done.is_set():
                seen.append((view.rows(), interner.is_interned(view.value)))

        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for _ in replay(db):
                pass
        finally:
            done.set()
            reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert seen and all(interned for _, interned in seen)
        assert {rows for rows, _ in seen} <= versions
        assert view.value is session.engine.intern(session.execute(query).value)


def test_a_commit_interns_its_rows_once_for_the_snapshot_and_every_view(monkeypatch):
    # ivm_churn's tree and its two views: the snapshot interns a commit's
    # four fresh edges by packing their atoms' dense ids -- no intern call,
    # no table probe per row -- and the advance and both views take those
    # canonical rows, the views their codes.  A row on atoms never seen
    # takes the generic intern.
    from repro.engine.interning import InternTable
    from repro.objects.values import to_python
    from repro.workloads.graphs import binary_tree

    db = Database("tree").register("edges", binary_tree(8))
    session = connect(db)
    edges = Q.coll("edges")
    queries = {"reach": edges.fix(), "two_hop": edges.compose(edges)}
    views = {name: session.materialize(q, name=name) for name, q in queries.items()}
    calls, probes, depth = [], [], [0]
    intern, canon = InternTable.intern, InternTable._canon

    def counted(self, v):
        if not depth[0] and not self.is_interned(v):
            calls.append(v)
        depth[0] += 1
        try:
            return intern(self, v)
        finally:
            depth[0] -= 1

    def probed(self, key, build, elem_keys=None):
        if key[0] != "s":  # a row's pair or atom, not a collection's set
            probes.append(key)
        return canon(self, key, build, elem_keys)

    monkeypatch.setattr(InternTable, "intern", counted)
    monkeypatch.setattr(InternTable, "_canon", probed)
    batch = [(0, 5), (1, 9), (2, 30), (4, 100)]
    assert db.insert("edges", batch).rows_touched() == 4
    assert calls == [] and probes == []
    assert db.insert("edges", [(600, 601), (3, 9)]).rows_touched() == 2
    monkeypatch.undo()
    assert [to_python(v) for v in calls] == [(600, 601)]
    assert len(probes) == 3  # 600, 601 and their pair
    for name, view in views.items():
        assert view.stats.delta_applies == 2 and view.stats.fallback_recomputes == 0
        assert view.rows() == session.execute(queries[name]).rows(), name


def test_a_fixpoint_under_a_composition_hands_it_codes_and_makes_no_pair():
    # On path(64), edges.fix().compose(edges): the fixpoint's boundary of
    # one insert and one delete of (70, 0) reaches the composition as codes,
    # so neither apply makes a pair.
    db = Database.of("g", edges=path_graph(64))
    session = connect(db)
    edges = Q.coll("edges")
    query = edges.fix().compose(edges)
    view = session.materialize(query, name="v")
    assert [c.kind for c in view.plan_ops.children][0] == "fixpoint"
    it, apply, misses = session.engine.interner, view.apply, []

    def counted(changeset):
        before = it.misses
        try:
            return apply(changeset)
        finally:
            misses.append(it.misses - before)

    view.apply = counted
    db.insert("edges", [(70, 0)])
    db.delete("edges", [(70, 0)])
    assert misses == [0, 0]
    assert view.value == connect(db).execute(query).value
    assert view.stats.fallback_recomputes == 0


# ---------------------------------------------------------------------------
# Error-class agreement with recompute
# ---------------------------------------------------------------------------

class TestErrorAgreement:
    def _sigma(self):
        def boom(v):
            if isinstance(v, BaseVal) and v.value == 13:
                raise NRAEvalError("boom at 13")
            return v

        return Signature([ExternalFunction("boom", BASE, BASE, boom, "raises at 13")])

    def test_maintenance_raises_the_same_error_class_as_recompute(self):
        sigma = self._sigma()
        db = Database("g", mutable=True).register(
            "nums", from_python({1, 2, 3}), type=SetType(BASE)
        )
        session = connect(db, sigma=sigma)
        expr = ast.Apply(
            ast.Ext(Lambda("x", BASE, Singleton(ast.ExternalCall("boom", Var("x"))))),
            Var("nums"),
        )
        view = session.materialize(expr)
        db.insert("nums", [7])
        assert view.rows() == frozenset({1, 2, 3, 7})
        with pytest.raises(NRAEvalError):
            db.insert("nums", [13])
        with pytest.raises(NRAEvalError):
            session.execute(expr)

    def test_materialize_of_a_raising_view_raises_like_execute(self):
        sigma = self._sigma()
        db = Database("g", mutable=True).register(
            "nums", from_python({13}), type=SetType(BASE)
        )
        session = connect(db, sigma=sigma)
        expr = ast.Apply(
            ast.Ext(Lambda("x", BASE, Singleton(ast.ExternalCall("boom", Var("x"))))),
            Var("nums"),
        )
        with pytest.raises(NRAEvalError):
            session.materialize(expr)
        with pytest.raises(NRAEvalError):
            session.execute(expr)


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

class TestStreams:
    def test_graph_stream_is_deterministic_per_seed(self):
        a = stream_graph_database(16, "random", seed=4, p=0.2)
        b = stream_graph_database(16, "random", seed=4, p=0.2)
        ca = [cs.rows_touched() for cs in graph_update_stream(a, churn=0.1, seed=9).run(3)]
        cb = [cs.rows_touched() for cs in graph_update_stream(b, churn=0.1, seed=9).run(3)]
        assert ca == cb
        assert a["edges"] == b["edges"]

    def test_graph_stream_respects_churn_and_ratio(self):
        db = stream_graph_database(20, "random", seed=6, p=0.3)
        before = len(db["edges"].elements)
        stream = graph_update_stream(db, churn=0.5, insert_ratio=0.0, seed=2)
        cs = stream.step()
        assert not cs["edges"].inserts
        assert len(cs["edges"].deletes) == round(0.5 * before)

    def test_nested_stream_rewrites_whole_records(self):
        db = stream_nested_database(10, 0.3, seed=8)
        cs = nested_update_stream(db, churn=0.3, seed=8).step()
        d = cs.get("adj")
        assert d is not None and len(d.inserts) == len(d.deletes)

    def test_stream_validates_parameters(self):
        db = stream_graph_database(8, seed=1)
        with pytest.raises(ValueError):
            graph_update_stream(db, churn=0.0)
        with pytest.raises(ValueError):
            graph_update_stream(db, insert_ratio=1.5)

    def test_deletion_stream_never_inserts(self):
        db = stream_graph_database(16, "random", seed=5, p=0.2)
        for cs in deletion_update_stream(db, churn=0.1, seed=5).run(3):
            d = cs["edges"]
            assert not d.inserts and d.deletes

    def test_mixed_stream_interleaves_within_each_batch(self):
        db = stream_graph_database(20, "random", seed=7, p=0.25)
        cs = mixed_update_stream(db, churn=0.2, seed=7).step()
        d = cs["edges"]
        assert d.inserts and d.deletes

    def test_alternating_stream_flips_batch_polarity(self):
        db = stream_graph_database(20, "random", seed=2, p=0.2)
        stream = alternating_update_stream(db, churn=0.1, seed=2, domain=20)
        grow, shrink = stream.step(), stream.step()
        assert grow["edges"].inserts and not grow["edges"].deletes
        assert shrink["edges"].deletes and not shrink["edges"].inserts
        assert stream.insert_ratio == 0.5  # restored between batches
