"""Smoke test of the benchmark: names, correctness and determinism at tiny sizes.

Collected by the bare tier-1 ``pytest -x -q``.  Three ``run.py --smoke`` runs
(two with one seed, one with another) go side by side; each covers all five
workloads, both phases, the server subprocess and every per-layer probe.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

from compare import is_exact_count

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_runs_emit_declared_metrics_deterministically(tmp_path):
    runs = {"a": 1, "b": 1, "c": 2}
    procs = {
        key: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed),
             "--out", str(tmp_path / key)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for key, seed in runs.items()
    }
    summaries = {}
    for key, proc in procs.items():
        output, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, output
        summaries[key] = json.loads((tmp_path / key / "summary.json").read_text())

    a, b, c = (summaries[key]["workloads"] for key in "abc")
    assert list(a) == [w["name"] for w in BENCH["workloads"]]
    for name, entry in a.items():
        assert NAME.fullmatch(name)
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in BENCH[kind]}
            assert {n: m["unit"] for n, m in entry[kind].items()} == declared
            assert all(NAME.fullmatch(n) for n in declared)
        assert entry["failed_ratio"] == 0 and entry["attempted"] > 0
        assert entry["budget"]["exact"] == entry["budget"]["ops"] > 0
        # Same seed: same inputs and the same exact counts.  Another seed:
        # other inputs.
        assert entry["input_digest"] == b[name]["input_digest"]
        assert entry["input_digest"] != c[name]["input_digest"]
        for metric, m in entry["per_layer"].items():
            if is_exact_count(metric, m["unit"]):
                assert m["value"] == b[name]["per_layer"][metric]["value"], metric
