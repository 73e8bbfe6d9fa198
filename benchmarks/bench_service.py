"""Standalone runner for the network query-service benchmark rows.

Runs just the two PR-8 service rows of :mod:`benchmarks.run_all` -- the
gated ``service-queries-per-sec`` acceptance row (8 concurrent wire clients
executing prepared statements against a live asyncio server, held to an
absolute 25 q/s floor) and the ungated ``service-latency-percentiles``
honesty row (client-observed p50/p90/p99) -- without the rest of the full
suite.  Wired to ``make bench-service``.

Usage::

    python benchmarks/bench_service.py            # full-size rows + floor
    python benchmarks/bench_service.py --quick    # CI smoke sizes, no gating
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from run_all import (  # noqa: E402
    SERVICE_QPS_FLOOR,
    _print_service,
    _service_workloads,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes (CI smoke; no acceptance gating)")
    parser.add_argument("--json", action="store_true",
                        help="dump the raw rows as JSON to stdout")
    args = parser.parse_args(argv)

    rows = _service_workloads(args.quick)
    print(f"== network query-service rows ({'quick' if args.quick else 'full'})")
    _print_service(rows)
    if args.json:
        print(json.dumps(rows, indent=2))
    if not args.quick:
        bad = [r for r in rows
               if r["acceptance"] and r.get("qps", 0.0) < SERVICE_QPS_FLOOR]
        if bad:
            print(f"ACCEPTANCE FAILED: service throughput below "
                  f"{SERVICE_QPS_FLOOR:.0f} q/s on {[r['name'] for r in bad]}")
            return 1
        print(f"acceptance: service sustained >= {SERVICE_QPS_FLOOR:.0f} q/s "
              "over 8 concurrent wire clients")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
