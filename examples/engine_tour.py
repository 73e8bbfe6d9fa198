"""A tour of the query service and the optimizing engine underneath.

Run with::

    PYTHONPATH=src python examples/engine_tour.py

Layer by layer, top down: the session/query API (what clients use), the
prepared-statement cache keying (why parametrized queries are cheap), and the
engine machinery underneath -- rewrite plans, executor counters, and one
hand-built raw-AST query to show exactly what the fluent builder elaborates
to (the paper mapping).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Database, Q, Row, connect
from repro.engine import Engine
from repro.nra.ast import Apply, Ext, Lambda, Pair, Proj1, Singleton, Var
from repro.nra.cost import cost_run
from repro.nra.eval import run
from repro.nra.pretty import pretty
from repro.objects.types import BASE, ProdType, SetType
from repro.objects.values import from_python
from repro.relational.queries import (
    REL_T,
    parity_esr_translated,
    reachable_pairs_query,
    tagged_boolean_set,
)
from repro.workloads.graphs import path_graph
from repro.workloads.nested import random_bits
from repro.workloads.nested_graphs import ADJ_DB_T, nested_random_graph, two_hop_query


def show_plan(title: str, engine: Engine, expr) -> None:
    plan = engine.explain(expr)
    print(f"\n-- {title}")
    print(f"   original : {pretty(plan.original)}")
    print(f"   optimized: {pretty(plan.optimized)}")
    if plan.firings:
        for name, count in sorted(plan.rule_counts.items()):
            print(f"   fired    : {name} x{count}")
    else:
        print("   fired    : (nothing to do)")


def main() -> None:
    print("=" * 72)
    print("The query service -- sessions, fluent queries, prepared statements")
    print("=" * 72)

    # ------------------------------------------------------------ the service
    # Register data once; the schema is inferred through the type checker.
    db = Database.of("graphs", edges=path_graph(64))
    session = db.connect()
    print(f"\n-- database: {db}")
    print(f"   schema   : {db.schema()}")

    # Fluent queries elaborate to NRA templates; nobody touches the AST.
    reach = Q.coll("edges").fix()
    cursor = session.execute(reach)
    print(f"\n-- Q.coll('edges').fix() -> {len(cursor)} reachable pairs")
    print(f"   first 5  : {cursor.fetchmany(5)}   (cursor streams; no list built)")

    # ------------------------------------------------- prepared statements
    # Parametrized selection: the template has a $src slot, bound per call
    # through the environment -- one rewrite + one compile for all bindings.
    before = session.stats.copy()
    by_src = session.prepare(
        reach.where(lambda e: e.fst == Q.param("src")).map(lambda e: e.snd)
    )
    after_prepare = session.stats.copy()
    t0 = time.perf_counter()
    for src in (0, 13, 40, 62):
        rows = by_src.execute(src=src).fetchmany(4)
        print(f"   reach({src:2d}) : {rows} ...")
    t_prepared = time.perf_counter() - t0
    s = session.stats
    print(f"   prepare  : {after_prepare.rewrites - before.rewrites} rewrite, "
          f"{after_prepare.vec_compiles - before.vec_compiles} compiled subexprs")
    print(f"   4 bindings in {t_prepared*1e3:.1f} ms -- "
          f"{s.rewrites - after_prepare.rewrites} further rewrites, "
          f"{s.vec_compiles - after_prepare.vec_compiles} further compiles, "
          f"{s.plan_hits - after_prepare.plan_hits} plan-cache hits")

    # ------------------------------------------------------------ batching
    before_batch = session.stats.copy()
    curs = session.executemany(by_src, [5, 10, 15, 20])
    print(f"\n-- executemany over 4 bindings (one prepared execute each): "
          f"{[len(c) for c in curs]} rows each, "
          f"{session.stats.rewrites - before_batch.rewrites} rewrites, "
          f"{session.stats.vec_compiles - before_batch.vec_compiles} compiles")

    # ------------------------------------------- materialized views (PR 5)
    # A *mutable* database and a standing query: commits refresh the view by
    # delta propagation (semi-naive continuation for the recursive closure)
    # instead of recomputation.  The maintenance plan shows the delta rule
    # chosen per operator.
    from repro.workloads.graphs import random_graph

    live = Database.of("live", edges=random_graph(48, 0.06, seed=3))
    live_session = live.connect()
    view = live_session.materialize(Q.coll("edges").fix(), name="reach")
    print("\n-- materialized view over a mutable database")
    print(f"   view     : {view}")
    plan_line = str(view.maintenance_plan()).splitlines()[0]
    print(f"   plan     : {plan_line}")
    before_rows = len(view.value)
    t0 = time.perf_counter()
    live.insert("edges", [(1, 40), (40, 9)])
    t_apply = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold = live_session.execute(Q.coll("edges").fix()).value
    t_cold = time.perf_counter() - t0
    assert view.value == cold
    print(f"   insert   : 2 edges -> {len(view.value) - before_rows} new closure "
          f"rows in {t_apply*1e3:.1f} ms (delta) vs {t_cold*1e3:.1f} ms (recompute)")
    print(f"   stats    : {view.stats}")
    live.delete("edges", [(1, 40)])
    assert view.value == live_session.execute(Q.coll("edges").fix()).value
    print(f"   delete   : delete/rederive over the counted fixpoint -- "
          f"overdeleted {view.stats.dred_overdeletes}, "
          f"rederived {view.stats.dred_rederives}, "
          f"fallback_recomputes={view.stats.fallback_recomputes}")

    print()
    print("=" * 72)
    print("Underneath: the optimizing engine (what the API elaborates to)")
    print("=" * 72)
    eng = Engine()

    # --------------------------------------------------------- identity removal
    # Mapping the singleton former is the identity on sets; two copies of it
    # vanish entirely.  This is the raw-AST layer: the paper's combinators
    # spelled by hand, exactly what Q...elaborate() produces internally.
    ident = Lambda("x", BASE, Singleton(Var("x")))
    ident2 = Lambda("y", BASE, Singleton(Var("y")))
    pipeline = Lambda(
        "s", SetType(BASE),
        Apply(Ext(ident2), Apply(Ext(ident), Var("s"))),
    )
    show_plan("identity elimination (ext of the singleton former)", eng, pipeline)

    # ------------------------------------------------------------- ext fusion
    # tag-then-project: ext(proj) . ext(tag) fuses into a single pass with no
    # intermediate set (the set-monad associativity law), then the unit law
    # and identity elimination clean up the residue.
    tag = Lambda("x", BASE, Singleton(Pair(Var("x"), Var("x"))))
    untag = Lambda("p", ProdType(BASE, BASE), Singleton(Proj1(Var("p"))))
    fused = Lambda(
        "s", SetType(BASE),
        Apply(Ext(untag), Apply(Ext(tag), Var("s"))),
    )
    show_plan("ext fusion (the set-monad associativity law)", eng, fused)

    # ---------------------------------------------- Prop 2.1 as an optimization
    # Parity written in the *translated* insert-recursion shape of
    # Proposition 2.1; the engine recognises it and restores the dcr form,
    # taking the combining chain from depth n to depth ceil(log2 n).
    parity = parity_esr_translated()
    show_plan("sri -> dcr (Proposition 2.1, cost-directed)", eng, parity)
    bits = random_bits(32, seed=4)
    inp = tagged_boolean_set(bits)
    assert eng.run(parity, inp) == run(parity, inp)
    print("   checked  : optimized result equals the reference interpreter")

    # ------------------------------------------- seed-closure: work over depth
    # The opposite trade: a selection on one column of fix() is pushed into
    # the iteration.  log_loop of squarings (depth log n, every pair derived)
    # becomes a linear loop seeded at the selected edges (depth n, only the
    # selected pairs derived) -- fewer total operations, longer critical path.
    reach = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    template = reach.elaborate({"edges": REL_T}).expr
    env = {"edges": path_graph(12).value(), "$src": from_python(3)}
    seeded = eng.explain(template)
    _, c_squaring = cost_run(template, env=env)
    _, c_seeded = cost_run(seeded.optimized, env=env)
    assert run(seeded.optimized, env=env) == run(template, env=env)
    print("\n-- seed-closure (a selection pushed through fix(), cost-directed)")
    print(f"   fired    : {', '.join(seeded.fired_rules)}")
    print(f"   squaring : work {c_squaring.work:>6}  depth {c_squaring.depth:>3}")
    print(f"   seeded   : work {c_seeded.work:>6}  depth {c_seeded.depth:>3}")
    print("   checked  : both forms agree on the reference interpreter")

    # ------------------------------- repeated sources: once per run, then probed
    # nest(r) mentions r twice, the second time under the binder of the
    # first (the calculus has no let).  The vectorized compiler runs every
    # kernel source behind a once-cell and answers each group's select by
    # probing the (set, path) index the joins use: the two-hop join below is
    # demanded once per row and evaluated once.
    adj_db = Database("nested").register(
        "adj", nested_random_graph(24, 0.08, seed=4), type=ADJ_DB_T
    )
    groups = Q.coll("adj").pipe(two_hop_query()).nest()
    with connect(adj_db) as nested_session:
        profile = nested_session.explain_analyze(groups)
        nested_session.execute(groups)
        counts = nested_session.engine.last_stats
        template = groups.elaborate(adj_db.schema()).expr
        assert nested_session.execute(groups).value == run(
            template, env=adj_db.environment()
        )
    print("\n-- nest() over a computed relation (once-cells and probe selects)")
    for line in profile.render().splitlines():
        if "hash-join" in line or "select" in line or line.startswith("map"):
            print(f"   {line.strip()}")
    print(f"   counters : hash_joins {counts.hash_joins}, "
          f"elementwise_exts {counts.elementwise_exts}, "
          f"selects {counts.bulk_selects} ({counts.index_hits} index hits)")
    assert counts.hash_joins == 1
    print("   checked  : result equals the reference interpreter")

    # ------------------------------------------------- the executor's counters
    # TC-by-dcr has a constant item function, so all leaves of the combining
    # tree are the edge relation itself: the vectorized executor runs each
    # level of the tree as one hash join, and its counters show the paper's
    # depth -- log2(16) = 4 joins.
    tc = reachable_pairs_query("dcr")
    g = path_graph(16)
    t0 = time.perf_counter()
    reference = run(tc, g.value())
    t_ref = time.perf_counter() - t0
    t0 = time.perf_counter()
    optimized = eng.run(tc, g)
    t_eng = time.perf_counter() - t0
    assert reference == optimized
    stats = eng.last_stats
    print("\n-- the vectorized executor on transitive closure (16-node path)")
    print(f"   reference: {t_ref * 1e3:7.1f} ms")
    print(f"   engine   : {t_eng * 1e3:7.1f} ms   ({t_ref / t_eng:.1f}x)")
    print(f"   counters : hash_joins {stats.hash_joins}, "
          f"flat_joins {stats.flat_joins}, "
          f"compiled_exprs {stats.compiled_exprs}")
    print(f"   interned : {eng.interner.size} distinct values "
          f"({eng.interner.hits} constructor hits)")

    print("\nDone.  benchmarks/run_all.py measures the backends and the")
    print("prepared-statement speedup; DESIGN.md explains the layering.")


if __name__ == "__main__":
    main()
