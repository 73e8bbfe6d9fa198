"""The repo benchmark: five closed-loop workloads, timed from outside ``src/``.

    python perf/run.py                       every workload, both phases, each in
                                             a fresh child; prints every metric
                                             and writes perf/out/<run-id>/
    python perf/run.py --workload W --seed N --seconds S --trace 0|1
                                             one phase of one workload in this
                                             process (what the children and the
                                             benchmark driver run); the last
                                             stdout line is the result object
    python perf/run.py --smoke               tiny sizes, in one process (tests)

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs an untraced and a traced phase of a quarter of the ops each
and the per-layer probes.  ``BENCHMARK.json`` declares every metric; a run that
produces another set of names or units is an error.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 7


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def probe(w) -> float:
    """``harness.host_speed`` now; a single pass at smoke sizes, where no time is gated."""
    from harness import host_speed

    return host_speed(1 if w.smoke else 4)


def untraced_run(w) -> dict:
    """The end-to-end metrics of one workload, but for ``setup_s``."""
    from harness import SLICES, metric, proc_status_kb, timing_metrics

    size = w.n_ops // SLICES
    speeds, slices = [probe(w)], []
    for k in range(SLICES):
        slices.append(w.phase(k * size, size))
        speeds.append(probe(w))
    rss_kb = proc_status_kb(w.rss_pid(), "VmHWM")  # before the oracles run
    wrong = w.verify()
    records = [op for s in slices for ops in s for op in ops]
    attempted = sum(1 for op in records if op[0] != "check")
    failed = sum(1 for op in records if not op[3]) + wrong
    metrics = {
        **timing_metrics(slices, speeds),
        "success_ratio": metric(1.0 - failed / attempted, "ratio", attempted),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    wall = timing_metrics(slices, [1.0] * len(speeds))
    return {
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "host_speed": {"median": statistics.median(speeds), "min": min(speeds),
                       "max": max(speeds)},
        "wall": {name: m["value"] for name, m in wall.items()},
    }


def traced_run(w, out_dir) -> dict:
    """The per-layer metrics: equal untraced and traced phases, then the probes."""
    from harness import Spans
    from layers import layer_metrics, snapshot

    quarter = max(1, w.n_ops // 4)
    speeds = [probe(w)]
    untraced = w.phase(0, quarter)
    speeds.append(probe(w))
    before = snapshot(w)
    tr = Spans()
    w.instrument(tr)
    try:
        traced = w.phase(quarter, quarter, tr)
    finally:
        tr.unpatch()
    speeds.append(probe(w))
    metrics = layer_metrics(w, tr, untraced, traced, before, speeds)
    if out_dir is not None:
        tr.write(out_dir / f"trace-{w.name}.jsonl")
    records = [op for ops in untraced + traced for op in ops]
    return {
        "attempted": sum(1 for op in records if op[0] != "check"),
        "failed": sum(1 for op in records if not op[3]),
        "metrics": metrics,
        "budget": budget(tr),
    }


def budget(tr) -> dict:
    """Mean self time per layer and op kind, from the traced phase's spans.

    ``exact`` counts the ops whose layer self times plus ``remainder`` equal
    the traced op time (all of them, by construction of self time).
    """
    seconds = tr.op_seconds()
    kinds: dict = {}
    exact = 0
    for op, layers in tr.self_times().items():
        exact += abs(sum(layers.values()) - seconds[op]) < 1e-9
        head = str(op).split("-")[0]
        rows = kinds.setdefault(head if head.isalpha() else "read", [])
        rows.append(layers)
    return {
        "ops": len(seconds),
        "exact": exact,
        "self_ms_per_op": {
            kind: {
                name: sum(r.get(name, 0.0) for r in rows) / len(rows) * 1e3
                for name in sorted({n for r in rows for n in r})
            }
            for kind, rows in kinds.items()
        },
    }


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool, out_dir) -> dict:
    from workloads import WORKLOADS

    from harness import metric

    def timed_setup() -> float:
        gc.collect()  # every set-up starts from the same collector state
        before = probe(w)
        t0 = perf_counter()
        w.setup()
        wall = perf_counter() - t0
        return wall / ((before + probe(w)) / 2)

    w = WORKLOADS[name](seed, seconds, smoke)
    setups = [timed_setup()]
    try:
        result = traced_run(w, out_dir) if trace else untraced_run(w)
    finally:
        w.teardown()
    if not trace:
        # The later set-ups come after the measurement, so that they raise
        # neither the measured phase's memory peak nor its cache warmth.
        for _ in range(0 if smoke else SETUPS - 1):
            setups.append(timed_setup())
            w.teardown()
        # The first set-up of a process is its slowest (cold imports), so the
        # recorded noise is the quartile distance, not max - min.
        mid = statistics.median(setups)
        q = statistics.quantiles(setups, n=4) if len(setups) > 1 else [mid] * 3
        result["metrics"] = {
            "setup_s": metric(mid, "s", len(setups), (q[2] - q[0]) / mid),
            **result["metrics"],
        }
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared()[kind]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != want:
        odd = sorted(set(got.items()) ^ set(want.items()))
        raise SystemExit(f"{name}: metrics differ from BENCHMARK.json {kind}: {odd}")
    result.update(workload=name, seed=seed, trace=trace, input_digest=w.digest(),
                  correct=result["failed"] == 0)
    return result


def show(result: dict) -> None:
    kind = "per-layer" if result["trace"] else "end-to-end"
    print(f"\n== {result['workload']}  {kind}  seed={result['seed']}  "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed'] / result['attempted']:.4f}")
    if "host_speed" in result:
        h = result["host_speed"]
        print(f"  host speed {h['median']:.2f} ({h['min']:.2f}-{h['max']:.2f}; 1.00 = the quiet "
              f"reference box); times are wall time over it, wall-clock medians in brackets")
    for name, m in result["metrics"].items():
        noise = f"  block spread {m['spread']:.1%}" if m["spread"] else ""
        wall = f"  [wall {result['wall'][name]:.4f}]" if name in result.get("wall", ()) else ""
        print(f"  {name:<42} {m['value']:>14.4f} {m['unit']:<9} n={m['samples']}{noise}{wall}")
    for kind, layers in result.get("budget", {}).get("self_ms_per_op", {}).items():
        total = sum(layers.values())
        parts = ", ".join(f"{n} {v:.3f}" for n, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        print(f"  budget[{kind}] {total:.3f} ms/op = {parts}")
    if "budget" in result:
        b = result["budget"]
        print(f"  layers + remainder == traced op time on {b['exact']}/{b['ops']} ops")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in result["metrics"].items()},
    })


def run_all(seed: int, seconds: float, smoke: bool, out_dir: Path) -> int:
    """Every workload, untraced then traced; children unless ``smoke``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"seed": seed, "seconds": seconds, "smoke": smoke, "workloads": {}}
    for spec in declared()["workloads"]:
        name = spec["name"]
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            if smoke:
                result = run_one(name, seed, seconds, trace, True, out_dir)
            else:
                path = out_dir / f"result-{name}-{trace}.json"
                subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--out", str(out_dir)],
                    check=True, stdout=subprocess.DEVNULL,
                )
                result = json.loads(path.read_text())
            show(result)
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            entry["input_digest"] = result["input_digest"]
            if trace:
                entry["budget"] = result["budget"]
            else:
                entry.update(attempted=result["attempted"], failed=result["failed"],
                             failed_ratio=result["failed"] / result["attempted"])
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    print(f"\nwrote {out_dir / 'summary.json'}")
    return int(any(e["failed"] for e in summary["workloads"].values()))


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("perf/run.py: no src/repro beside perf/; run it from a checkout of the repo")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    bench = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, help="directory for results and span files")
    args = parser.parse_args(argv)
    if args.workload is None:
        run_id = time.strftime("%Y%m%dT%H%M%S") + f"-seed{args.seed}"
        return run_all(args.seed, args.seconds, args.smoke,
                       args.out or HERE / "out" / run_id)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    result = run_one(args.workload, args.seed, args.seconds, args.trace, args.smoke, args.out)
    if args.out is not None:
        path = args.out / f"result-{args.workload}-{args.trace}.json"
        path.write_text(json.dumps(result))
    show(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
