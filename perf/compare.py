"""Compare two ``summary.json`` files of ``perf/run.py`` against the bounds.

    python perf/compare.py BASE/summary.json NEW/summary.json

One row per workload x end-to-end metric: base, new, new/base and a verdict.
``regressed`` = worse than base by more than the metric's bound in
``BENCHMARK.json``; ``unresolved`` = not regressed, but the recorded block
spread of either run is wider than the bound, so the two runs cannot tell;
``ok`` otherwise.  Exact counts among the per-layer metrics must be equal.
Exits non-zero on any regression, any rise in ``failed_ratio`` or any count
that moved (``unresolved`` rows do not fail the comparison; they say that it
has to be repeated with more runs).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Counts that depend on observed runtimes, not only on the inputs: the
#: router re-routes when a measured time contradicts its estimate tenfold.
TIMING_DEPENDENT = {"engine.router.reroutes"}


def is_exact_count(name: str, unit: str) -> bool:
    return unit in ("count", "count/op") and name not in TIMING_DEPENDENT


def compare(base: dict, new: dict, bench: dict) -> int:
    bad = 0
    print(f"{'workload':<15} {'metric':<15} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for spec in bench["workloads"]:
        name = spec["name"]
        a, b = base["workloads"][name], new["workloads"][name]
        for m in bench["end_to_end"]:
            old, cur = a["end_to_end"][m["name"]], b["end_to_end"][m["name"]]
            worse = (cur["value"] - old["value"]) / old["value"]
            if m["better"] == "higher":
                worse = -worse
            if worse > m["bound"]:
                verdict = "regressed"
                bad += 1
            elif max(old["spread"], cur["spread"]) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:<15} {m['name']:<15} {old['value']:>12.4f} {cur['value']:>12.4f} "
                  f"{cur['value'] / old['value']:>8.3f}x  {verdict}")
        if b["failed_ratio"] > a["failed_ratio"]:
            print(f"{name:<15} failed_ratio rose: {a['failed_ratio']:.4f} -> "
                  f"{b['failed_ratio']:.4f}  regressed")
            bad += 1
        for metric, old in a["per_layer"].items():
            cur = b["per_layer"][metric]
            if is_exact_count(metric, old["unit"]) and old["value"] != cur["value"]:
                print(f"{name:<15} {metric}: exact count moved "
                      f"{old['value']} -> {cur['value']}")
                bad += 1
    return bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    bad = compare(base, new, json.loads(BENCH.read_text()))
    print(f"\n{bad} regression(s)" if bad else "\nno regression")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
