"""The claim rule of ``tools/perf_pairs.py`` (choosing-metrics, section 8)."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "perf_pairs", Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)
judge = perf_pairs.judge

PARENT = [1.80, 1.84, 1.86, 1.83, 1.85, 1.84, 1.82, 1.88, 1.84, 1.81]


def test_a_gain_needs_nine_wins_and_a_gap_wider_than_the_parents_quartiles():
    halved = [x / 2 for x in PARENT]
    assert judge(PARENT, halved, True, 0.25) == {
        "wins": 10, "ratio": 0.5, "gain": True, "regressed": False}
    assert judge(PARENT, halved[:8] + PARENT[8:], True, 0.25)["gain"] is False  # 8 wins, 2 ties
    hair = [x - 0.001 for x in PARENT]  # wins every pair, inside the parent's spread
    assert judge(PARENT, hair, True, 0.25)["wins"] == 10
    assert judge(PARENT, hair, True, 0.25)["gain"] is False
    assert judge(halved, PARENT, False, 0.25)["gain"] is True  # higher is better


def test_a_row_regresses_past_its_bound_in_its_own_direction():
    assert judge(PARENT, [x * 1.3 for x in PARENT], True, 0.25)["regressed"] is True
    assert judge(PARENT, [x * 1.2 for x in PARENT], True, 0.25)["regressed"] is False
    assert judge(PARENT, [x * 0.7 for x in PARENT], False, 0.25)["regressed"] is True
    assert judge(PARENT, [x * 0.7 for x in PARENT], True, 0.25)["regressed"] is False
