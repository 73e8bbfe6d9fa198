"""``tools/cycle_probe.py`` still runs on this tree: a smoke run at cycle(8)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_cycle_probe_times_the_build_and_every_step():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cycle_probe.py"), "--sizes", "8", "--reps", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[0].startswith("cycle(8): materialize ")
    row = json.loads(out[1])
    assert row["n"] == 8
    # Every step on both clocks: the wall clock and the process's CPU time.
    steps = ("materialize", "first_read", "delete", "insert", "execute")
    assert all(row[step] > 0 and row["cpu"][step] > 0 for step in steps)
    # One delete and one re-insert, each served by the counted pass.
    assert row["stats"]["flat_index_applies"] == 2
    assert row["stats"]["fallback_recomputes"] == 0
