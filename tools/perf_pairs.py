"""Alternating before/after pairs of the repo benchmark (`make perf-pairs`).

    python tools/perf_pairs.py BASE [--workloads a,b] [--pairs 10] [--seed0 300]

Exports the committed files of git revision ``BASE`` into a temporary
directory (``git archive``: no clone to keep, nothing added to ``.git``) and
runs ``perf/run.py --workload W --seed S --seconds <run_seconds> --trace 0``
on that tree and on this one, one seed per pair, alternating which side goes
first.  Prints, per workload and end-to-end metric, each side's median
[lower quartile, upper quartile], the ratio of the medians and the pairs the
working tree won -- the table EXPERIMENTS.md records -- and exits non-zero if
any run of either side failed an op.  Run nothing else meanwhile.
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
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    if set(workloads) - set(names):
        parser.error(f"unknown workload(s) {sorted(set(workloads) - set(names))}")
    seconds = bench["run_seconds"]
    failed = 0
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
                wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
                ratio = statistics.median(b) / statistics.median(a)
                print(f"| `{workload}` | `{name}` | {spread(a)} | {spread(b)} | "
                      f"{ratio:.3f} | {wins}/{args.pairs} |", flush=True)
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
