"""Cost-vs-actual profiling: ``explain_analyze`` and router accuracy.

The PR-10 acceptance criteria live here: ``explain_analyze`` on a
transitive-closure query renders the executed plan tree with per-node
actual time and rows *beside* the work/depth cost prediction, and
``router_stats()`` reports a predicted-vs-actual accuracy ratio per
routed template.  Plus the isolation property that makes profiling safe
to ship on by default: a profiled run never leaves instrumented closures
in the engine's steady-state compile caches.
"""

import pytest

from repro.api import Database, Q, connect
from repro.obs.profile import NodeProfile, PlanProfiler, QueryProfile
from repro.workloads.graphs import path_graph
from repro.workloads.nested_graphs import ADJ_DB_T, nested_random_graph, two_hop_query

pytestmark = pytest.mark.obs


@pytest.fixture()
def session():
    return connect(Database.of("g", edges=path_graph(12)))


TC = Q.coll("edges").fix()


# ---------------------------------------------------------------------------
# PlanProfiler mechanics
# ---------------------------------------------------------------------------

def test_profiler_keys_on_identity_not_equality():
    from repro.engine.vectorized.plan import PlanNode

    p = PlanProfiler()
    a = PlanNode("var", detail="edges")
    b = PlanNode("var", detail="edges")
    assert a == b and a is not b
    p.wrap(a, lambda: None)()
    assert p.lookup(a).calls == 1
    assert p.lookup(b) is None  # equal tree, different node: separate actuals


def test_wrapped_closure_accumulates():
    from repro.engine.vectorized.plan import PlanNode

    p = PlanProfiler()
    node = PlanNode("var")
    fn = p.wrap(node, lambda x: x + 1)
    assert fn(1) == 2 and fn(5) == 6
    rec = p.lookup(node)
    assert rec.calls == 2
    assert rec.seconds >= 0.0
    assert rec.rows is None  # ints have no cardinality


# ---------------------------------------------------------------------------
# explain_analyze: the acceptance criterion
# ---------------------------------------------------------------------------

def test_explain_analyze_tc_actuals_beside_prediction(session):
    profile = session.explain_analyze(TC)
    assert isinstance(profile, QueryProfile)
    # The result is the real TC denotation.
    expected = session.execute(TC).value
    assert profile.result == expected
    assert profile.rows == len(expected.elements)
    assert profile.seconds > 0
    assert profile.profiler.profiled_nodes() > 0

    text = profile.render()
    assert text == str(profile)
    # actuals header, prediction header, and per-node annotations
    assert text.startswith("actual: ")
    assert "predicted: work=" in text
    assert "accuracy: predicted/actual =" in text
    assert "-- actual" in text
    assert "rows=" in text and "calls=" in text

    d = profile.as_dict()
    assert d["rows"] == profile.rows
    assert d["plan"]["op"]
    assert d["estimate"] is not None and d["estimate"]["work"] > 0


def test_explain_analyze_attributes_session_stats(session):
    before = session.stats.copy()
    session.explain_analyze(TC)
    assert session.stats.executes == before.executes + 1
    assert session.stats.rewrites == before.rewrites + 1  # fresh template
    session.explain_analyze(TC)
    assert session.stats.rewrites == before.rewrites + 1  # plan-cache hit


def test_profiled_run_never_pollutes_steady_state(session):
    """The engine's own evaluator must not see instrumented closures."""
    session.execute(TC)  # warm the steady-state caches
    compiles_before = session.engine.vectorized_compiles()
    session.explain_analyze(TC)
    # The throwaway evaluator's compiles never hit the engine counter ...
    assert session.engine.vectorized_compiles() == compiles_before
    # ... and re-executing uses the unwrapped cached closures (no recompiles).
    session.execute(TC)
    assert session.engine.vectorized_compiles() == compiles_before


def test_explain_analyze_with_params(session):
    q = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    profile = session.explain_analyze(q, params={"src": 0})
    assert profile.rows == 11  # 0 reaches 1..11 on path_graph(12)
    assert "-- actual" in profile.render()


def test_nest_and_unnest_each_run_once_and_say_so():
    """The benchmark's nested statement: a grouped node and a flattening node,
    each called once (the select read ``calls=94`` and the inner map
    ``calls=31`` when they ran per element)."""
    db = Database("nested").register("adj", nested_random_graph(32, 0.05, seed=4), type=ADJ_DB_T)
    statement = Q.coll("adj").pipe(two_hop_query()).nest()
    with connect(db) as s:
        profile = s.explain_analyze(statement)
        plan = profile.plan
        assert plan.op == "map" and "grouped" in plan.annotations
        unnests = [n for n in plan.walk() if n.op == "ext" and "flat-columns" in n.annotations]
        assert unnests
        for n in [plan] + unnests:
            assert profile.profiler.lookup(n).calls == 1
        beneath = [n for n in plan.walk() if n.op == "select" or (n.op == "map" and n is not plan)]
        assert beneath and all(profile.profiler.lookup(n).calls == 0 for n in beneath)
        lines = profile.render().splitlines()
        assert any("(flat-columns, grouped)" in ln and "calls=1" in ln for ln in lines)


# ---------------------------------------------------------------------------
# Router accuracy: predicted-vs-actual per routed template
# ---------------------------------------------------------------------------

def test_router_stats_report_prediction_accuracy():
    s = connect(Database.of("g", edges=path_graph(16)), backend="auto")
    for _ in range(3):
        s.execute(TC)
    stats = s.engine.router_stats()
    assert stats is not None
    acc = stats["accuracy"]
    assert acc, "routed templates must report accuracy rows"
    row = acc[0]
    assert row["backend"]
    assert row["predicted_backend"]
    assert row["predicted_s"] > 0
    assert row["measured_s"] > 0
    assert row["ratio"] == pytest.approx(
        row["predicted_s"] / row["measured_s"])
    assert row["runs"] >= 1
    assert len(row["template"]) <= 80
