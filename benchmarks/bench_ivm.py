"""Standalone runner for the incremental view-maintenance benchmark rows.

Runs just the three IVM rows of :mod:`benchmarks.run_all` -- the gated
``ivm-small-delta`` acceptance row (delta apply vs full recompute under a 1%
insert-churn stream), the gated ``ivm-deletion-delta`` acceptance row
(delete/rederive vs full recompute under a 1% deletion-churn stream), and
the ungated ``ivm-mixed-recompute`` honesty row (the fallback shapes) --
without the rest of the full suite.  Wired to
``make bench-ivm``.

Usage::

    python benchmarks/bench_ivm.py            # full-size rows + acceptance bar
    python benchmarks/bench_ivm.py --quick    # CI smoke sizes, no gating
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
    _ivm_deletion_delta_workload,
    _ivm_delta_workload,
    _ivm_mixed_recompute_workload,
    _print_ivm,
)

IVM_BAR = 5.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes (CI smoke; no acceptance gating)")
    parser.add_argument("--json", action="store_true",
                        help="dump the raw rows as JSON to stdout")
    args = parser.parse_args(argv)

    rows = [
        _ivm_delta_workload(args.quick),
        _ivm_deletion_delta_workload(args.quick),
        _ivm_mixed_recompute_workload(args.quick),
    ]
    print(f"== incremental view-maintenance rows ({'quick' if args.quick else 'full'})")
    _print_ivm(rows)
    if args.json:
        print(json.dumps(rows, indent=2))
    if not args.quick:
        gated = [r for r in rows if r["acceptance"]]
        bad = [r for r in gated
               if r["speedups"].get("delta_vs_recompute", 0.0) < IVM_BAR]
        if bad:
            print(f"ACCEPTANCE FAILED: delta maintenance below {IVM_BAR}x on "
                  f"{[r['name'] for r in bad]}")
            return 1
        print(f"acceptance: delta maintenance >= {IVM_BAR}x full recompute")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
