"""Alternating before/after pairs of the repo benchmark (`make perf-pairs`).

    python tools/perf_pairs.py BASE [--workloads a,b] [--pairs 10] [--seed0 300]
                               [--claim workload:metric]

Exports the committed files of git revision ``BASE`` into a temporary
directory (``git archive``: no clone to keep, nothing added to ``.git``) and
runs ``perf/run.py --workload W --seed S --seconds <run_seconds> --trace 0``
on that tree and on this one, one seed per pair, alternating which side goes
first.  Prints, per workload and end-to-end metric, each side's median
[lower quartile, upper quartile], the ratio of the medians and the pairs the
working tree won -- the table EXPERIMENTS.md records -- and exits non-zero if
any run of either side failed an op.  Every row whose change median is worse
than the parent's by more than its ``BENCHMARK.json`` bound is flagged (exit
code 1); with ``--claim`` the named row must also show the gain: the change
winning at least nine tenths of the pairs, ties counting for neither side, and
the medians further apart than the parent's own quartiles.  Run nothing else
meanwhile.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def one_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(tree / "perf" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True, cwd=tree,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, mid, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{mid:.4g} [{q1:.4g}, {q3:.4g}]"


def judge(parent: list, change: list, lower: bool, bound: float) -> dict:
    """One row held to the rule: wins, median gap against the parent's spread, bound."""
    wins = sum((y < x) if lower else (y > x) for x, y in zip(parent, change))
    a, b = statistics.median(parent), statistics.median(change)
    gain = (a - b) if lower else (b - a)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else [a] * 3
    return {
        "wins": wins,
        "ratio": b / a,
        "gain": wins >= 0.9 * len(parent) and gain > q3 - q1,
        "regressed": -gain / a > bound,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of the parent side")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=300,
                        help="pair k runs seed seed0 + k on both sides")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the row that must improve (9/10 wins, gap > parent quartiles)")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    if set(workloads) - set(names):
        parser.error(f"unknown workload(s) {sorted(set(workloads) - set(names))}")
    claim = tuple(args.claim.split(":")) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads
                  or claim[1] not in {m["name"] for m in bench["end_to_end"]}):
        parser.error(f"--claim {args.claim}: not a workload:metric of this run")
    seconds = bench["run_seconds"]
    failed = 0
    verdicts = []
    print(f"parent = {args.base}, change = working tree; {args.pairs} pairs, "
          f"seeds {args.seed0}-{args.seed0 + args.pairs - 1}, {seconds} s runs\n")
    print("| workload | metric | parent | change | change/parent | wins |")
    print("| --- | --- | --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        export(args.base, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        for workload in workloads:
            runs: dict = {"parent": [], "change": []}
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    result = one_run(sides[side], workload, args.seed0 + k, seconds)
                    runs[side].append(result)
                    if not result["correct"] or result["metrics"]["success_ratio"]["value"] < 1:
                        failed += 1
                        print(f"{workload} seed {args.seed0 + k} ({side}): "
                              f"{result['failed']} of {result['attempted']} ops failed",
                              file=sys.stderr)
            for m in bench["end_to_end"]:
                name, lower = m["name"], m["better"] == "lower"
                if name == "success_ratio":
                    continue  # checked per run above
                a = [r["metrics"][name]["value"] for r in runs["parent"]]
                b = [r["metrics"][name]["value"] for r in runs["change"]]
                row = judge(a, b, lower, m["bound"])
                print(f"| `{workload}` | `{name}` | {spread(a)} | {spread(b)} | "
                      f"{row['ratio']:.3f} | {row['wins']}/{args.pairs} |", flush=True)
                if (workload, name) == claim:
                    verdicts.append((f"claim {workload}:{name} "
                                     f"{'met' if row['gain'] else 'NOT met'}", row["gain"]))
                elif row["regressed"]:
                    verdicts.append((f"REGRESSION {workload}:{name} is worse by more than "
                                     f"its bound {m['bound']}", False))
    print()
    for line, ok in verdicts:
        print(line)
    return int(failed > 0 or not all(ok for _, ok in verdicts))


if __name__ == "__main__":
    sys.exit(main())
