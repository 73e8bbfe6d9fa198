"""Benchmark-regression guard: hold CI to the engine's acceptance ratios.

The committed ``BENCH_engine.json`` records the full-suite speedups the repo
claims (vectorized >= 3x the reference interpreter on the acceptance rows of
the transitive-closure and nested-graph families).  CI cannot afford the full
suite, so this guard runs the **quick** suite fresh and checks the same
ratio on every quick workload of an acceptance *family* that times the
reference: the vectorized-over-reference speedup must still clear the
**3x** bar.  The quick ratios sit far above it (tens of x), so 3x only trips
on a real regression -- a disabled strategy, a cache that stopped hitting, a
pathological rewrite -- not on runner noise.

The guard also prints the fresh-vs-committed ratio per workload (quick row
against the committed full-suite row of the same name, where one exists) so
a slow drift is visible in CI logs before it crosses the bar.

Usage::

    python benchmarks/check_regression.py             # run quick suite, check
    python benchmarks/check_regression.py --fresh F   # check an existing file
    python benchmarks/check_regression.py --bar 4.0   # raise the bar

Beyond the vectorized/reference families the chain also holds the parallel
backend to its overlap (1.5x) and flat-fixpoint (2x) bars, the PR-7 flat
dense-id kernels to their 3x object-kernel bar, incremental view
maintenance to its 5x recompute bars, the PR-8 network query service to
its 25 q/s wire-throughput floor, the PR-9 adaptive router to its
hand-picked-backend regret bar, and the PR-10 observability layer to its
default-path overhead bar -- every guard refuses to pass when its row is
missing from the fresh run, so a silently dropped workload cannot
masquerade as a green check.

Wired into ``make bench-check`` and the GitHub Actions workflow.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_engine.json"

#: The workload families whose full-suite rows carry the acceptance tag; the
#: quick rows of the same families are what the guard holds to the bar.
ACCEPTANCE_FAMILIES = ("transitive-closure", "nested-graph")
DEFAULT_BAR = 3.0

#: The parallel-backend acceptance rows.  PR 4: the sharded backend with
#: >= 4 workers must beat single-threaded vectorized on the oracle-call
#: overlap workload (the bar holds on single-core runners too -- the win is
#: latency overlap, not CPU parallelism).  PR 7: the flat sharded fixpoint
#: must beat the *object-kernel* vectorized engine (``flat=False``) on the
#: CPU-bound TC closure -- a regression here means the flat lowering stopped
#: firing (the driver silently fell back to object rounds) or the dense-id
#: kernels lost their edge.
PARALLEL_ACCEPTANCE_NAME = "parallel-ext-overlap"
PARALLEL_BAR = 1.5
PARALLEL_FIXPOINT_NAME = "parallel-tc-fixpoint"
PARALLEL_FIXPOINT_BAR = 2.0
PARALLEL_BARS = {
    PARALLEL_ACCEPTANCE_NAME: PARALLEL_BAR,
    PARALLEL_FIXPOINT_NAME: PARALLEL_FIXPOINT_BAR,
}

#: The PR-7 flat-column acceptance row: the dense-id array kernels must stay
#: >= 3x faster than the object kernels on the TC family (quick ratio ~4-5x).
#: A regression means the flat fixpoint stopped engaging (every round pays a
#: ``flat_fallbacks`` bail-out) or a kernel regressed to per-element work.
COLUMNAR_ACCEPTANCE_NAME = "columnar-tc-kernels"
COLUMNAR_BAR = 3.0

#: The incremental view-maintenance acceptance rows.  PR 5: absorbing a 1%
#: insert-churn stream by delta propagation must beat recomputing both views
#: after every batch (quick ratio ~50x).  PR 6: absorbing a 1% *deletion*-
#: churn stream through delete/rederive must clear the same bar (a
#: regression here means DRed silently fell back to whole-view recompute,
#: or the over-deletion sweep stopped scaling with the derivation cone).
#: Both rows read every view's value inside the timed delta loop (outputs
#: are rendered on read since PR 18, and the recompute side delivers a value
#: per batch too).  The deletion row's quick ratio sits at ~7.5-8x: the
#: walk is O(cone) and the read one C-level splice of the ~230 fallen pairs
#: into ~7.7k, so any lost cone-scaling -- or a render that went back to
#: python-level O(result) work -- trips the shared 5x bar.  The mixed-churn
#: fallback row is deliberately NOT gated: its recompute path is expected
#: to hover at ~1x.
IVM_ACCEPTANCE_NAMES = ("ivm-small-delta", "ivm-deletion-delta")
IVM_BAR = 5.0

#: The PR-8 network-service bar: 8 concurrent wire clients executing
#: prepared statements against a live asyncio server must sustain this many
#: queries/sec.  An absolute floor rather than a ratio -- the in-process
#: path IS the numerator's engine, so there is no slower leg to divide by.
#: Expected throughput is in the hundreds even on shared runners; 25 only
#: trips on a structural break (serialized executor, per-query reconnect,
#: lost statement cache).  The latency-percentile row is deliberately NOT
#: gated: tail latency on shared CI runners is noise.
SERVICE_ACCEPTANCE_NAME = "service-queries-per-sec"
SERVICE_QPS_FLOOR = 25.0

#: The PR-9 adaptive-router bar: ``backend="auto"`` held to an aggregate
#: regret ratio against the best hand-picked backend per leg.  The full
#: suite gates at 1.10; the quick legs run for single-digit milliseconds,
#: where scheduler noise alone moves the ratio by ~0.1, so the quick guard
#: allows 1.25 -- historically the quick regret sits *below* 1.0 (auto's
#: computed shard count beats the hand-picked one on the enrichment leg),
#: so 1.25 only trips on a real mis-route, not on jitter.
ROUTER_ACCEPTANCE_NAME = "router-auto-regret"
ROUTER_REGRET_BAR = 1.25

#: The PR-10 observability bar: the shipped default path (metrics on,
#: tracing off) held to an overhead ratio against the fully-disabled path.
#: The full suite gates at 1.03; the quick workload's per-iteration time is
#: small enough that scheduler noise alone moves the ratio by a few percent,
#: so the quick guard allows 1.15 -- historically the quick ratio sits at
#: ~1.01, so 1.15 only trips on a structural break (an instrument on the
#: per-tuple path, tracing accidentally armed by default), not on jitter.
#: The ``trace-overhead`` row is deliberately NOT gated: tracing is opt-in.
OBS_ACCEPTANCE_NAME = "obs-overhead"
OBS_OVERHEAD_BAR = 1.15


def run_quick_suite(output: Path) -> None:
    """Run ``run_all.py --quick`` in a subprocess, writing to ``output``."""
    cmd = [
        sys.executable,
        str(REPO_ROOT / "benchmarks" / "run_all.py"),
        "--quick",
        "-o",
        str(output),
    ]
    result = subprocess.run(cmd, cwd=REPO_ROOT)
    if result.returncode != 0:
        raise SystemExit(f"quick benchmark run failed (exit {result.returncode})")


def load_rows(path: Path) -> list[dict]:
    report = json.loads(path.read_text(encoding="utf-8"))
    return report["workloads"]


def check(fresh_rows: list[dict], baseline_rows: list[dict], bar: float) -> int:
    by_name_full = {
        (r["name"], r["family"]): r for r in baseline_rows if r.get("speedups")
    }
    failures = []
    checked = 0
    print(f"== benchmark regression guard (bar: vectorized >= {bar}x reference)")
    for row in fresh_rows:
        if row["family"] not in ACCEPTANCE_FAMILIES:
            continue
        speedup = row["speedups"].get("vectorized_vs_reference")
        if speedup is None:
            continue
        checked += 1
        committed = by_name_full.get((row["name"], row["family"]))
        committed_speedup = (
            committed["speedups"].get("vectorized_vs_reference") if committed else None
        )
        drift = (
            f"  (committed full-suite: {committed_speedup:.1f}x)"
            if committed_speedup
            else ""
        )
        verdict = "ok" if speedup >= bar else "FAIL"
        print(f"  {row['name']:>22} n={row['n']:<4} {speedup:7.1f}x  {verdict}{drift}")
        if speedup < bar:
            failures.append(row)
    if checked == 0:
        print("no acceptance-family rows found in the fresh run -- refusing to pass")
        return 1
    if failures:
        names = [f"{r['name']} (n={r['n']}, {r['speedups']['vectorized_vs_reference']:.1f}x)"
                 for r in failures]
        print(f"REGRESSION: vectorized speedup below {bar}x on {names}")
        return 1
    print(f"all {checked} acceptance-family workloads clear the {bar}x bar")
    return check_parallel(fresh_rows, baseline_rows)


def check_parallel(fresh_rows: list[dict], baseline_rows: list[dict]) -> int:
    """Hold the parallel backend to its per-row acceptance bars."""
    rows = [r for r in fresh_rows if r["name"] in PARALLEL_BARS]
    print(f"== parallel-backend guard (bars: >= {PARALLEL_BAR}x on "
          f"{PARALLEL_ACCEPTANCE_NAME}, >= {PARALLEL_FIXPOINT_BAR}x on "
          f"{PARALLEL_FIXPOINT_NAME})")
    if len(rows) < len(PARALLEL_BARS):
        missing = sorted(set(PARALLEL_BARS) - {r["name"] for r in rows})
        print(f"parallel acceptance rows missing from the fresh run ({missing}) "
              "-- refusing to pass")
        return 1
    committed = {
        r["name"]: r["speedups"].get("parallel_vs_vectorized")
        for r in baseline_rows
        if r.get("family") == "parallel" and r.get("speedups")
    }
    failures = []
    for row in rows:
        bar = PARALLEL_BARS[row["name"]]
        speedup = row["speedups"].get("parallel_vs_vectorized", 0.0)
        committed_speedup = committed.get(row["name"])
        drift = (
            f"  (committed full-suite: {committed_speedup:.1f}x)"
            if committed_speedup
            else ""
        )
        verdict = "ok" if speedup >= bar else "FAIL"
        print(f"  {row['name']:>22} n={row['n']:<4} workers={row.get('workers', '?')} "
              f"{speedup:7.2f}x  {verdict} (bar {bar}x){drift}")
        if speedup < bar:
            failures.append(row)
    if failures:
        names = [f"{r['name']} ({r['speedups']['parallel_vs_vectorized']:.2f}x "
                 f"< {PARALLEL_BARS[r['name']]}x)" for r in failures]
        print(f"REGRESSION: parallel speedup below the bar on {names}")
        return 1
    print("the parallel backend clears the overlap and flat-fixpoint bars")
    return check_columnar(fresh_rows, baseline_rows)


def check_columnar(fresh_rows: list[dict], baseline_rows: list[dict]) -> int:
    """Hold the flat dense-id kernels to their object-kernel acceptance bar."""
    rows = [r for r in fresh_rows if r["name"] == COLUMNAR_ACCEPTANCE_NAME]
    print(f"== flat-column guard (bar: flat kernels >= {COLUMNAR_BAR}x object "
          f"kernels on {COLUMNAR_ACCEPTANCE_NAME})")
    if not rows:
        print("no columnar acceptance row found in the fresh run -- refusing to pass")
        return 1
    committed = {
        r["name"]: r["speedups"].get("flat_vs_object")
        for r in baseline_rows
        if r.get("family") == "columnar" and r.get("speedups")
    }
    failures = []
    for row in rows:
        speedup = row["speedups"].get("flat_vs_object", 0.0)
        committed_speedup = committed.get(row["name"])
        drift = (
            f"  (committed full-suite: {committed_speedup:.1f}x)"
            if committed_speedup
            else ""
        )
        verdict = "ok" if speedup >= COLUMNAR_BAR else "FAIL"
        print(f"  {row['name']:>22} n={row['n']:<4} {speedup:7.2f}x  "
              f"{verdict}{drift}")
        if speedup < COLUMNAR_BAR:
            failures.append(row)
    if failures:
        print(f"REGRESSION: flat-kernel speedup below {COLUMNAR_BAR}x")
        return 1
    print(f"the flat kernels clear the {COLUMNAR_BAR}x representation bar")
    return check_ivm(fresh_rows, baseline_rows)


def check_ivm(fresh_rows: list[dict], baseline_rows: list[dict]) -> int:
    """Hold delta view maintenance to its recompute acceptance bars."""
    rows = [r for r in fresh_rows if r["name"] in IVM_ACCEPTANCE_NAMES]
    print(f"== incremental-maintenance guard (bar: delta apply >= {IVM_BAR}x "
          f"full recompute on {', '.join(IVM_ACCEPTANCE_NAMES)})")
    if len(rows) < len(IVM_ACCEPTANCE_NAMES):
        missing = sorted(set(IVM_ACCEPTANCE_NAMES) - {r["name"] for r in rows})
        print(f"ivm acceptance rows missing from the fresh run ({missing}) "
              "-- refusing to pass")
        return 1
    committed = {
        r["name"]: r["speedups"].get("delta_vs_recompute")
        for r in baseline_rows
        if r.get("family") == "incremental" and r.get("speedups")
    }
    failures = []
    for row in rows:
        speedup = row["speedups"].get("delta_vs_recompute", 0.0)
        committed_speedup = committed.get(row["name"])
        drift = (
            f"  (committed full-suite: {committed_speedup:.1f}x)"
            if committed_speedup
            else ""
        )
        verdict = "ok" if speedup >= IVM_BAR else "FAIL"
        print(f"  {row['name']:>22} n={row['n']:<4} churn={row.get('churn', '?'):.0%} "
              f"{speedup:7.1f}x  {verdict}{drift}")
        if speedup < IVM_BAR:
            failures.append(row)
    if failures:
        print(f"REGRESSION: delta maintenance speedup below {IVM_BAR}x")
        return 1
    print(f"delta view maintenance clears the {IVM_BAR}x recompute bar")
    return check_service(fresh_rows, baseline_rows)


def check_service(fresh_rows: list[dict], baseline_rows: list[dict]) -> int:
    """Hold the network query service to its wire-throughput floor."""
    rows = [r for r in fresh_rows if r["name"] == SERVICE_ACCEPTANCE_NAME]
    print(f"== network-service guard (floor: sustained >= "
          f"{SERVICE_QPS_FLOOR:.0f} q/s on {SERVICE_ACCEPTANCE_NAME})")
    if not rows:
        print(f"service acceptance row missing from the fresh run "
              f"({SERVICE_ACCEPTANCE_NAME}) -- refusing to pass")
        return 1
    committed = {
        r["name"]: r.get("qps")
        for r in baseline_rows
        if r.get("family") == "service"
    }
    failures = []
    for row in rows:
        qps = row.get("qps", 0.0)
        committed_qps = committed.get(row["name"])
        drift = (
            f"  (committed full-suite: {committed_qps:.0f} q/s)"
            if committed_qps
            else ""
        )
        verdict = "ok" if qps >= SERVICE_QPS_FLOOR else "FAIL"
        print(f"  {row['name']:>24} n={row['n']:<4} clients={row['clients']} "
              f"{qps:8.0f} q/s  {verdict}{drift}")
        if qps < SERVICE_QPS_FLOOR:
            failures.append(row)
    if failures:
        print(f"REGRESSION: service throughput below {SERVICE_QPS_FLOOR:.0f} q/s")
        return 1
    print(f"the network service clears the {SERVICE_QPS_FLOOR:.0f} q/s floor")
    return check_router(fresh_rows, baseline_rows)


def check_router(fresh_rows: list[dict], baseline_rows: list[dict]) -> int:
    """Hold the adaptive router to its hand-picked-backend regret bar."""
    rows = [r for r in fresh_rows if r["name"] == ROUTER_ACCEPTANCE_NAME]
    print(f"== adaptive-router guard (bar: auto within {ROUTER_REGRET_BAR}x "
          f"of the best hand-picked backend on {ROUTER_ACCEPTANCE_NAME})")
    if not rows:
        print(f"router acceptance row missing from the fresh run "
              f"({ROUTER_ACCEPTANCE_NAME}) -- refusing to pass")
        return 1
    committed = {
        r["name"]: r.get("regret")
        for r in baseline_rows
        if r.get("family") == "router"
    }
    failures = []
    for row in rows:
        regret = row.get("regret", float("inf"))
        committed_regret = committed.get(row["name"])
        drift = (
            f"  (committed full-suite: {committed_regret:.2f}x)"
            if committed_regret
            else ""
        )
        verdict = "ok" if regret <= ROUTER_REGRET_BAR else "FAIL"
        picks = ", ".join(
            f"{name}->{leg['auto_backend']}"
            for name, leg in row.get("legs", {}).items()
        )
        print(f"  {row['name']:>22} regret {regret:5.2f}x  {verdict}"
              f"  [{picks}]{drift}")
        if regret > ROUTER_REGRET_BAR:
            failures.append(row)
    if failures:
        print(f"REGRESSION: auto-routing regret above {ROUTER_REGRET_BAR}x")
        return 1
    print(f"the adaptive router stays within the {ROUTER_REGRET_BAR}x regret bar")
    return check_obs(fresh_rows, baseline_rows)


def check_obs(fresh_rows: list[dict], baseline_rows: list[dict]) -> int:
    """Hold the observability default path to its overhead bar."""
    rows = [r for r in fresh_rows if r["name"] == OBS_ACCEPTANCE_NAME]
    print(f"== observability guard (bar: default path within "
          f"{OBS_OVERHEAD_BAR}x of fully disabled on {OBS_ACCEPTANCE_NAME})")
    if not rows:
        print(f"observability acceptance row missing from the fresh run "
              f"({OBS_ACCEPTANCE_NAME}) -- refusing to pass")
        return 1
    committed = {
        r["name"]: r.get("overhead")
        for r in baseline_rows
        if r.get("family") == "obs"
    }
    failures = []
    for row in rows:
        overhead = row.get("overhead", float("inf"))
        committed_overhead = committed.get(row["name"])
        drift = (
            f"  (committed full-suite: {committed_overhead:.3f}x)"
            if committed_overhead
            else ""
        )
        verdict = "ok" if overhead <= OBS_OVERHEAD_BAR else "FAIL"
        print(f"  {row['name']:>22} n={row['n']:<4} overhead {overhead:6.3f}x  "
              f"{verdict}{drift}")
        if overhead > OBS_OVERHEAD_BAR:
            failures.append(row)
    if failures:
        print(f"REGRESSION: observability overhead above {OBS_OVERHEAD_BAR}x")
        return 1
    print(f"the observability default path stays within the "
          f"{OBS_OVERHEAD_BAR}x overhead bar")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path, default=None,
                        help="use this quick-run JSON instead of running the suite")
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help=f"committed full-suite JSON (default {BASELINE.name})")
    parser.add_argument("--bar", type=float, default=DEFAULT_BAR,
                        help=f"required vectorized/reference speedup (default {DEFAULT_BAR})")
    args = parser.parse_args(argv)

    if args.fresh is not None:
        fresh_rows = load_rows(args.fresh)
    else:
        with tempfile.TemporaryDirectory() as td:
            out = Path(td) / "bench_quick.json"
            run_quick_suite(out)
            fresh_rows = load_rows(out)

    baseline_rows = load_rows(args.baseline) if args.baseline.exists() else []
    if not baseline_rows:
        print(f"warning: no committed baseline at {args.baseline}; "
              "checking the bar only")
    return check(fresh_rows, baseline_rows, args.bar)


if __name__ == "__main__":
    raise SystemExit(main())
