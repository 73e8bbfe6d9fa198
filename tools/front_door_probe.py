"""Where one in-process op's time goes: the front door, step by step.

    python tools/front_door_probe.py [TREE] [--workload adhoc_cold] [--reads 3000]
                                     [--warm 200] [--seed 1] [--half insert|delete]
    python tools/front_door_probe.py [TREE] --workload ivm_churn --commits [--reads 3000]

The in-process twin of ``tools/hop_probe.py``.  Imports ``repro`` from
``TREE/src`` and the workload from ``TREE/perf/workloads.py`` (default: this
checkout), sets the workload up as ``perf/run.py`` does, runs ``--reads`` of
its ops (after ``--warm`` untimed ones) -- a prepared statement's bindings,
or for ``adhoc_cold`` a never-seen query per op over its five shapes; for
``ivm_churn`` its reads as the benchmark makes them, op ``i`` being the
``reach(src)`` read after cycle ``i // 2``'s untimed insert (even ``i``) or
delete (odd ``i``) of its four edges, with both views materialized and one
fresh batch per cycle, and ``--half`` times only the reads after inserts or
after deletes -- and prints the median microseconds each step took per op:

* ``elaborate``: ``Query.elaborate`` (ad-hoc ops only);
* ``recognize``: ``Session._template_of`` less the elaboration inside it --
  the query's shape recognized as a template, slot types and defaults;
* ``bind``: ``Session._bind``, parameters and defaults into the environment;
* ``plan lookup``: ``Engine.optimize``, the plan cache;
* ``loop``: ``FlatLoop.run``, the flat fixpoint's rounds;
* ``materialize``: the outermost ``InternTable.set_from_pair_codes`` /
  ``set_from_ids`` / ``mkset`` calls inside ``Engine._execute`` (and not
  inside ``field`` or ``select``), the plan-boundary sets built from ids,
  codes or interned elements;
* ``field``: the outermost ``BatchContext.field_of`` calls inside
  ``Engine._execute``, a loop's node set (a dictionary lookup once the
  collection version has one);
* ``select``: the outermost ``flat_select`` calls inside ``Engine._execute``
  (patched as ``compiler.flat_select``, the name the compiler calls), the
  flat selects with their output sets;
* ``run``: ``Engine._execute`` less the loop, the materializations, the
  field and the selects inside it, the other kernels;
* ``fetch``: ``Cursor.fetchall``, rows materialized as python values;
* ``other``: the rest of the op (environment copy, locks, counters, cursor).

and the sum of the step medians against the op's median, then the median
rounds per op and microseconds per round of the loop (over the ops that ran
one).  The steps patch only names the parent and the change both have, so
the same command on two trees -- alternately, nothing else running --
compares them.  Every op's rows are checked against the workload's closed
form (``ivm_churn``: its cycle's answer with the batch in or out), outside
the timing.

With ``--commits`` (``ivm_churn`` only) the op is the write instead of the
read -- cycle ``i // 2``'s insert or delete, its read untimed and checked --
and the steps are the commit's (each with its share of all the commits'
time, which names a step that is rare but dear, like a sweep):

* ``normalize``: ``Database._normalize``, the changeset netted against the
  live rows and the new canonical rows;
* ``snapshot``: ``Snapshot._move`` less the ``advance`` inside it, the
  engine's interning of the commit's rows for the advance and every view;
* ``advance``: ``Engine.advance``, the engine's snapshot moved to them, with
  ``splice`` (``InternTable.splice``), ``carry`` (``BatchContext.carry``)
  and ``sweep`` (``InternTable.sweep``) inside it, not added to the sum;
* ``apply <view>``: that view's ``MaterializedView.apply``, its maintenance,
  with ``pass <view>`` (its ``MaterializedView._linear_pass`` and
  ``_compose_pass`` calls, the counted passes of a fixpoint and of a
  composition, whichever the tree has) inside it, not added to the sum:
  the rest of the apply is the boundary's bookkeeping -- decoding codes to
  pairs, where a tree does that at commit, and a generic join's whole
  maintenance, where a tree has no compose pass;
* ``other``: the rest of the commit (locks, changeset, notify).

and then the intern table's hits and misses per commit (their mean over
the timed commits): how many canonical values the commit looked up and
how many it made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Steps in op order; ``other`` is what the op spent outside them.
STEPS = ("elaborate", "recognize", "bind", "plan lookup", "loop", "materialize", "field",
         "select", "run", "fetch", "other")
WORKLOADS = ("adhoc_cold", "tc_inproc", "ivm_churn", "nested_objects")
#: ``--commits``: the commit's steps before the views' ``apply <name>``;
#: ``advance`` runs inside ``snapshot`` and is taken out of it, ``splice``,
#: ``carry`` and ``sweep`` run inside ``advance``, and each view's
#: ``pass <name>`` inside its ``apply <name>``.
COMMIT_STEPS = ("normalize", "snapshot", "advance", "splice", "carry", "sweep")
INSIDE_ADVANCE = ("splice", "carry", "sweep")


def probe(tree: Path, workload: str, reads: int, warm: int, seed: int = 1,
          half: str = "", commits: bool = False) -> dict:
    """Median microseconds per step and per op, over ``reads`` timed ops
    (with ``half``, over those of them that read after an insert or a delete;
    with ``commits``, of the writes, plus each step's ``share`` of them)."""
    if commits and workload != "ivm_churn":
        raise ValueError("--commits times ivm_churn's writes; other workloads write nothing")
    for path in (tree / "perf", tree / "src"):
        sys.path.insert(0, str(path))
    import repro
    import repro.api.catalog as catalog
    import repro.api.cursor as cursor
    import repro.api.query as query
    import repro.api.session as session
    import repro.engine.engine as engine
    import repro.engine.interning as interning
    import repro.engine.vectorized.batch as batch
    import repro.engine.vectorized.compiler as compiler
    import repro.engine.vectorized.flat as flat
    from workloads import WORKLOADS as ALL

    if Path(repro.__file__).resolve().parent != (tree / "src" / "repro").resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {tree}/src")
    spent: dict = {}
    active: set = set()  # steps with a timed call on the stack
    rounds = [0]

    def timed(owner, attr: str, step: str, within: str = "", outside: tuple = ()):
        """Time ``owner.attr`` as ``step``: only its outermost calls, with
        ``within`` only those made inside that step, and with ``outside``
        none made inside any of those.  ``None`` when the tree has no
        ``owner.attr``."""
        original = getattr(owner, attr, None)
        if original is None:
            return None

        def wrapper(*args, **kwargs):
            if (step in active or (within and within not in active)
                    or not active.isdisjoint(outside)):
                return original(*args, **kwargs)
            active.add(step)
            t0 = perf_counter()
            try:
                out = original(*args, **kwargs)
                if step == "loop":
                    rounds[0] += args[0].rounds  # the loop's rounds, one call each
                return out
            finally:
                spent[step] = spent.get(step, 0.0) + perf_counter() - t0
                active.discard(step)

        setattr(owner, attr, wrapper)
        return owner, attr, original

    patches = [] if commits else [
        timed(query.Query, "elaborate", "elaborate"),
        timed(session.Session, "_template_of", "recognize"),
        timed(session.Session, "_bind", "bind"),
        timed(engine.Engine, "optimize", "plan lookup"),
        timed(engine.Engine, "_execute", "run"),
        timed(flat.FlatLoop, "run", "loop"),
        *(timed(interning.InternTable, name, "materialize", within="run",
                outside=("field", "select"))
          for name in ("set_from_pair_codes", "set_from_ids", "mkset")),
        timed(batch.BatchContext, "field_of", "field", within="run"),
        timed(compiler, "flat_select", "select", within="run"),
        timed(cursor.Cursor, "fetchall", "fetch"),
    ]
    if workload == "ivm_churn":
        # As many cycles as ops read, each with its own batch, as in a run:
        # a batch seen again would find its version's entries still cached.
        w = ALL[workload](seed, (warm + reads) / 2 / ALL[workload].FULL["rate"] + 1, False)

        def write(i: int) -> None:
            """Cycle ``i // 2``'s insert (even ``i``) or delete (odd ``i``)."""
            (w.db.delete if i % 2 else w.db.insert)("edges", w.write_batches[i // 2])

        def read(i: int) -> list:
            return w.read(i // 2)

        def expected(i: int) -> frozenset:
            return w.want[i // 2][i % 2]
    else:
        w = ALL[workload](seed, 1.0, False)

        def write(i: int) -> None:
            pass

        def read(i: int) -> list:
            return w.read(i)

        expected = w.expected
    steps_of = STEPS
    samples: dict = {step: [] for step in (*STEPS, "op", "rounds", "us_per_round")}
    wrong = 0
    try:
        w.setup()
        if commits:
            views = getattr(w, "views", {})
            steps_of = (*COMMIT_STEPS,
                        *(f"{step} {name}" for name in views for step in ("apply", "pass")),
                        "other")
            inside = (*INSIDE_ADVANCE, *(f"pass {name}" for name in views))
            samples = {step: [] for step in (*steps_of, "op")}
            patches += [
                timed(catalog.Database, "_normalize", "normalize"),
                timed(catalog.Snapshot, "_move", "snapshot"),
                timed(engine.Engine, "advance", "advance"),
                *(timed(owner, step, step, within="advance") for owner, step in (
                    (interning.InternTable, "splice"), (batch.BatchContext, "carry"),
                    (interning.InternTable, "sweep"))),
                *(timed(view, "apply", f"apply {name}") for name, view in views.items()),
                *(timed(view, attr, f"pass {name}", within=f"apply {name}")
                  for name, view in views.items()
                  for attr in ("_linear_pass", "_compose_pass")),
            ]
            interner = w.session.engine.interner
            intern_counts = {"hits": [], "misses": []}
        try:
            for i in range(warm + reads):
                if not commits:
                    write(i)  # untimed
                spent.clear()
                rounds[0] = 0
                t0 = perf_counter()
                if commits:
                    hits, misses = interner.hits, interner.misses
                    write(i)
                    op = perf_counter() - t0
                    looked = (interner.hits - hits, interner.misses - misses)
                    rows = read(i)  # untimed
                else:
                    rows = read(i)
                    op = perf_counter() - t0
                wrong += not w.check(i, rows, expected(i))
                if i < warm or (half and i % 2 != (half == "delete")):
                    continue
                steps = {step: spent.get(step, 0.0) for step in steps_of[:-1]}
                if commits:
                    steps["snapshot"] -= steps["advance"]  # it ran inside
                    steps["other"] = op - sum(s for step, s in steps.items()
                                              if step not in inside)
                else:
                    steps["recognize"] -= steps["elaborate"]  # it ran inside
                    steps["run"] -= (steps["loop"] + steps["materialize"] + steps["field"]
                                     + steps["select"])
                    steps["other"] = op - sum(steps.values())
                for step, s in steps.items():
                    samples[step].append(s)
                samples["op"].append(op)
                if commits:
                    intern_counts["hits"].append(looked[0])
                    intern_counts["misses"].append(looked[1])
                if rounds[0]:
                    samples["rounds"].append(rounds[0])
                    samples["us_per_round"].append(steps["loop"] * 1e6 / rounds[0])
        finally:
            w.teardown()
    finally:
        for patch in patches:
            if patch is not None:
                setattr(*patch)
    if wrong:
        raise RuntimeError(f"{workload}: {wrong} ops returned wrong rows")
    if commits:
        medians = {step: statistics.median(samples[step]) * 1e6 for step in steps_of}
        total = sum(samples["op"])
        return medians | {
            "sum": sum(m for step, m in medians.items() if step not in inside),
            "op": statistics.median(samples["op"]) * 1e6,
            "share": {step: sum(samples[step]) / total for step in steps_of},
            **{kind: statistics.mean(n) for kind, n in intern_counts.items()},
        }
    medians = {step: statistics.median(samples[step]) * 1e6 for step in STEPS}
    return medians | {
        "sum": sum(medians.values()),
        "op": statistics.median(samples["op"]) * 1e6,
        "rounds": statistics.median(samples["rounds"] or [0]),
        "us_per_round": statistics.median(samples["us_per_round"] or [0.0]),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("tree", nargs="?", default=str(ROOT))
    ap.add_argument("--workload", choices=WORKLOADS, default="adhoc_cold")
    ap.add_argument("--reads", type=int, default=3000)
    ap.add_argument("--warm", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--half", choices=("insert", "delete"), default="",
                    help="ivm_churn: time only the reads after an insert or a delete")
    ap.add_argument("--commits", action="store_true",
                    help="ivm_churn: time the commits instead of the reads")
    args = ap.parse_args()
    if args.commits and args.workload != "ivm_churn":
        ap.error("--commits needs --workload ivm_churn")
    steps = probe(Path(args.tree).resolve(), args.workload, args.reads, args.warm, args.seed,
                  args.half, args.commits)
    if args.commits:
        for step, share in steps["share"].items():
            indent = "  " if step in INSIDE_ADVANCE or step.startswith("pass ") else ""
            print(f"{indent + step:<18}{steps[step]:9.1f} us  {share:6.1%}")
        for step in ("sum", "op"):
            print(f"{step:<18}{steps[step]:9.1f} us")
        for kind in ("hits", "misses"):
            print(f"{'intern ' + kind:<18}{steps[kind]:9.1f} per commit")
    else:
        for step in (*STEPS, "sum", "op"):
            print(f"{step:<14}{steps[step]:9.1f} us")
        print(f"{'rounds/op':<14}{steps['rounds']:9.1f}")
        print(f"{'per round':<14}{steps['us_per_round']:9.2f} us")
    print(json.dumps(steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
