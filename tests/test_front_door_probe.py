"""``tools/front_door_probe.py`` still times every step it patches in this tree."""

import importlib.util
from pathlib import Path

import pytest

from repro.api.cursor import Cursor
from repro.api.query import Query
from repro.api.session import Session
from repro.engine.engine import Engine
from repro.engine.interning import InternTable
from repro.engine.vectorized import compiler
from repro.engine.vectorized.batch import BatchContext
from repro.engine.vectorized.flat import FlatLoop

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "front_door_probe", ROOT / "tools" / "front_door_probe.py")
front_door_probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(front_door_probe)


def _patched():
    return (Query.elaborate, Session._template_of, Session._bind,
            Engine.optimize, Engine._execute, FlatLoop.run, Cursor.fetchall,
            InternTable.set_from_pair_codes, InternTable.set_from_ids, InternTable.mkset)


@pytest.mark.parametrize("workload", ["adhoc_cold", "tc_inproc", "ivm_churn", "nested_objects"])
def test_every_step_is_timed_and_the_tree_is_restored(workload):
    before = _patched()
    field_of, flat_select = BatchContext.field_of, compiler.flat_select
    steps = front_door_probe.probe(ROOT, workload, reads=30, warm=5)
    assert list(steps) == [*front_door_probe.STEPS, "sum", "op", "rounds", "us_per_round"]
    assert all(steps[s] > 0
               for s in ("recognize", "bind", "plan lookup", "materialize", "run", "fetch"))
    # Prepared reads elaborate nothing; ad-hoc ones elaborate every op.
    assert (steps["elaborate"] > 0) == (workload == "adhoc_cold")
    if workload in ("tc_inproc", "ivm_churn"):
        # reach(src) on the 96-node path (one round per edge walked) or on
        # ivm_churn's tree (one round per tree level): the flat loop.
        assert 0 < steps["loop"] < steps["op"]
        assert steps["rounds"] > 0 and steps["us_per_round"] > 0
        # The loop's cardinality argument: field_of(edges), once per op.
        assert 0 < steps["field"] < steps["op"]
        # The loop's seed: the key select of edges on fst == src.
        assert 0 < steps["select"] < steps["op"]
    if workload == "nested_objects":
        # nest(two-hop): join, unnest and group-map kernels, no fixpoint.
        assert steps["loop"] == 0 and steps["rounds"] == 0
        assert steps["field"] == 0 and steps["select"] == 0
    if workload == "ivm_churn":
        # The reads after inserts and after deletes, each half on its own.
        for half in ("insert", "delete"):
            steps = front_door_probe.probe(ROOT, workload, reads=30, warm=6, half=half)
            assert 0 < steps["field"] < steps["op"] and steps["rounds"] > 0
            assert 0 < steps["select"] < steps["op"]
    assert _patched() == before
    assert BatchContext.field_of is field_of
    assert compiler.flat_select is flat_select


def test_the_commit_split_times_every_commit_step_and_restores_the_tree():
    from repro.api.catalog import Database

    from repro.api.catalog import Snapshot

    before = (Database._normalize, Snapshot._move, Engine.advance, InternTable.splice,
              BatchContext.carry, InternTable.sweep)
    from repro.engine.incremental.view import MaterializedView

    passes = (MaterializedView._linear_pass, MaterializedView._compose_pass)
    steps = front_door_probe.probe(ROOT, "ivm_churn", reads=30, warm=6, commits=True)
    views = ["apply reach", "apply two_hop"]
    assert list(steps) == [*front_door_probe.COMMIT_STEPS, "apply reach", "pass reach",
                           "apply two_hop", "pass two_hop", "other", "sum", "op", "share",
                           "hits", "misses"]
    # Every commit normalizes, interns its rows for the snapshot, advances
    # it (splice, then carry) and maintains both views; a sweep is rare, so
    # its median is 0.
    for step in ("normalize", "snapshot", "advance", "splice", "carry", *views):
        assert 0 < steps[step] < steps["op"], step
    assert steps["splice"] + steps["carry"] <= steps["advance"]
    # Each view's counted pass -- reach's fixpoint, two_hop's composition --
    # runs inside its apply, and is not summed apart.
    for name in ("reach", "two_hop"):
        assert 0 < steps[f"pass {name}"] < steps[f"apply {name}"], name
        assert 0 < steps["share"][f"pass {name}"] < steps["share"][f"apply {name}"], name
    # A commit of four rows interns each once and looks up what it reads.
    assert steps["misses"] > 0 and steps["hits"] > 0
    summed = ("normalize", "snapshot", "advance", *views, "other")
    assert steps["sum"] == pytest.approx(sum(steps[s] for s in summed))
    assert 0.9 < sum(steps["share"][s] for s in summed) < 1.1
    assert (Database._normalize, Snapshot._move, Engine.advance, InternTable.splice,
            BatchContext.carry, InternTable.sweep) == before
    assert (MaterializedView._linear_pass, MaterializedView._compose_pass) == passes
    with pytest.raises(ValueError):
        front_door_probe.probe(ROOT, "tc_inproc", reads=5, warm=1, commits=True)
