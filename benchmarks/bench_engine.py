"""E11 -- the optimizing engine versus the reference interpreter.

The engine (:mod:`repro.engine`) rewrites queries with the paper's algebraic
identities, hash-conses values and runs the result on the vectorized
executor.  None of that changes any result (cross-checked in
``tests/engine``); this module measures what it buys:

* on the **graph suite** (:mod:`repro.workloads.graphs`), transitive closure
  by ``dcr`` has a *constant* item function, so all leaves of the combining
  tree are equal and the executor performs one hash join per level instead of
  one combine per node -- the wall-clock speedup grows with the graph;
* on the **nested suite** (:mod:`repro.workloads.nested`), ext fusion
  collapses the map-then-flatten pipelines over the departments database, and
  the Proposition 2.1 ``sri-to-dcr`` rewrite turns the translated parity into
  its logarithmic form.

The series printed here records the speedups; the acceptance bar (>= 2x on at
least one graph workload) is asserted, with a timing repetition to keep the
check robust against scheduler noise.
"""

import time

from conftest import print_series

from repro.engine import Engine
from repro.nra.ast import Lambda, Proj2, Var
from repro.nra.eval import run
from repro.objects.types import SetType
from repro.relational.queries import (
    parity_esr_translated,
    reachable_pairs_query,
    tagged_boolean_set,
)
from repro.workloads.graphs import layered_dag, path_graph
from repro.workloads.nested import (
    DEPARTMENT_T,
    department_database,
    random_bits,
)


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _all_skills_query():
    """``flatten(smap(\\d. skills(d), db))``: an ext-over-ext pipeline.

    The engine fuses the two ext passes (``ext-fusion`` + ``ext-singleton``),
    skipping the materialization of the intermediate set of skill sets.
    """
    from repro.nra.derived import flatten, smap
    from repro.objects.types import BASE

    d = Lambda("d", DEPARTMENT_T, Proj2(Proj2(Var("d"))))
    body = flatten(smap(d, Var("db")), BASE)
    return Lambda("db", SetType(DEPARTMENT_T), body)


def test_engine_speedup_on_path_graphs():
    """TC-by-dcr on the n-node path: the flagship >= 2x acceptance check."""
    q = reachable_pairs_query("dcr")
    rows = []
    speedups = []
    for n in (8, 12, 16, 24):
        g = path_graph(n)
        v = g.value()
        t_ref = _best_of(lambda: run(q, v))
        t_eng = _best_of(lambda: Engine().run(q, v))
        speedup = t_ref / t_eng
        speedups.append(speedup)
        rows.append((n, f"{t_ref * 1e3:.1f}ms", f"{t_eng * 1e3:.1f}ms", f"{speedup:.1f}x"))
    print_series(
        "E11 optimized engine vs reference interpreter, TC(dcr) on the n-node path",
        ["n", "reference", "engine", "speedup"],
        rows,
    )
    assert max(speedups) >= 2.0, f"engine speedups {speedups} never reached 2x"


def test_engine_speedup_on_layered_dag():
    q = reachable_pairs_query("dcr")
    g = layered_dag(6, 4, seed=3)
    v = g.value()
    assert Engine().run(q, v) == run(q, v)
    t_ref = _best_of(lambda: run(q, v))
    t_eng = _best_of(lambda: Engine().run(q, v))
    print_series(
        "E11 layered DAG (6 layers x 4 wide)",
        ["reference", "engine", "speedup"],
        [(f"{t_ref * 1e3:.1f}ms", f"{t_eng * 1e3:.1f}ms", f"{t_ref / t_eng:.1f}x")],
    )


def test_engine_on_nested_departments():
    """Ext fusion on the departments database (nested workload suite)."""
    q = _all_skills_query()
    rows = []
    for n_depts in (4, 8, 16):
        db = department_database(n_depts, employees_per_department=4, seed=1)
        eng = Engine()
        assert eng.run(q, db) == run(q, db)
        fired = eng.explain(q).fired_rules
        t_ref = _best_of(lambda: run(q, db))
        t_eng = _best_of(lambda: eng.run(q, db))
        rows.append((n_depts, f"{t_ref * 1e3:.2f}ms", f"{t_eng * 1e3:.2f}ms",
                     f"{t_ref / t_eng:.1f}x", ",".join(sorted(set(fired)))))
    print_series(
        "E11 all-skills pipeline over the departments database",
        ["departments", "reference", "engine", "speedup", "fired rules"],
        rows,
    )
    assert "ext-fusion" in eng.explain(q).fired_rules


def test_engine_on_translated_parity():
    """Prop 2.1 rewrite: translated-esr parity runs as a logarithmic dcr."""
    q = parity_esr_translated()
    bits = random_bits(64, seed=9)
    inp = tagged_boolean_set(bits)
    eng = Engine()
    assert eng.run(q, inp) == run(q, inp)
    assert "sri-to-dcr" in eng.explain(q).fired_rules
    t_ref = _best_of(lambda: run(q, inp))
    t_eng = _best_of(lambda: eng.run(q, inp))
    print_series(
        "E11 translated parity (64 bits), sri-to-dcr rewrite",
        ["reference", "engine", "speedup"],
        [(f"{t_ref * 1e3:.2f}ms", f"{t_eng * 1e3:.2f}ms", f"{t_ref / t_eng:.1f}x")],
    )


def test_engine_interpreter_benchmark(benchmark):
    g = path_graph(16)
    q = reachable_pairs_query("dcr")
    v = g.value()
    benchmark(lambda: Engine().run(q, v))


def test_reference_interpreter_benchmark(benchmark):
    g = path_graph(16)
    q = reachable_pairs_query("dcr")
    v = g.value()
    benchmark(lambda: run(q, v))
