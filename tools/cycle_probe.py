"""A ``fix()`` view on a cycle: one edge deleted and re-inserted, against no view.

    python tools/cycle_probe.py [TREE] [--sizes 64,32] [--reps 5]

Imports ``repro`` from ``TREE/src`` (default: this checkout).  For each size
``n`` it registers ``cycle(n)`` and first times the build, ``--reps`` times on
a fresh session each: ``materialize`` of ``Q.coll("edges").fix()``, then the
view's first read (checked against an execute).  Then it materializes the
view on one session and, ``--reps`` times, deletes the edge
``(n // 2, n // 2 + 1)`` and reads the view (``view.value``), then
re-inserts it and reads again.  After
each commit a second session with no view executes the same query and reads
its value: what the answer costs without maintenance.  Prints the median
milliseconds of the build (``materialize``), the first read, the delete +
read, the re-insert + read and the execute, each on the wall clock and on
the process's CPU clock (``cpu``: ``time.process_time``, which a busy
neighbour on a shared host moves far less), and the view's lifetime
counters; every read is checked against the execute.
On a cycle every node reaches every node, so the delete's derivation cone is
the whole closure: the case where maintenance is most likely to lose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent


def timed(times: dict, step: str, fn):
    """``fn()``, its wall and CPU seconds appended to ``times[step]``."""
    w, c = perf_counter(), process_time()
    out = fn()
    times[step].append((perf_counter() - w, process_time() - c))
    return out


def probe(n: int, reps: int) -> dict:
    from repro.api import Database, Q, connect
    from repro.workloads.graphs import cycle_graph

    db = Database("cycle").register("edges", cycle_graph(n))
    q = Q.coll("edges").fix()
    edge = [(n // 2, n // 2 + 1)]
    times: dict = {"materialize": [], "first_read": [],
                   "delete": [], "insert": [], "execute": []}
    for _ in range(reps):
        with connect(db) as session:
            view = timed(times, "materialize", lambda: session.materialize(q, name="tc"))
            got = timed(times, "first_read", lambda: view.value)
            if got != session.execute(q).value:
                raise RuntimeError(f"cycle({n}): the view's first read is not the execute")
    with connect(db) as session, connect(db) as plain:
        view = session.materialize(q, name="tc")
        plain.execute(q).value  # the plan and the compiled loop, once
        for _ in range(reps):
            for step, mutate in (("delete", db.delete), ("insert", db.insert)):
                def commit_and_read():
                    mutate("edges", edge)
                    return view.value

                got = timed(times, step, commit_and_read)
                want = timed(times, "execute", lambda: plain.execute(q).value)
                if got != want:
                    raise RuntimeError(f"cycle({n}): the view after the {step} is not the execute")
        stats = view.stats.as_dict()
    medians = {step: statistics.median(w for w, _ in ts) * 1e3 for step, ts in times.items()}
    cpu = {step: statistics.median(c for _, c in ts) * 1e3 for step, ts in times.items()}
    return {"n": n, **medians, "cpu": cpu,
            "delete_over_execute": medians["delete"] / medians["execute"],
            "insert_over_execute": medians["insert"] / medians["execute"],
            "stats": stats}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("tree", nargs="?", default=str(ROOT))
    ap.add_argument("--sizes", default="64,32")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.tree).resolve() / "src"))
    for n in (int(x) for x in args.sizes.split(",")):
        out = probe(n, args.reps)
        print(f"cycle({n}): materialize {out['materialize']:.1f} ms, "
              f"first read {out['first_read']:.1f} ms, "
              f"delete+read {out['delete']:.1f} ms ({out['delete_over_execute']:.2f}x), "
              f"re-insert+read {out['insert']:.1f} ms ({out['insert_over_execute']:.2f}x), "
              f"execute {out['execute']:.1f} ms; cpu: "
              + ", ".join(f"{step} {ms:.1f}" for step, ms in out["cpu"].items()) + " ms")
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
