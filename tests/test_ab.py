"""tools/ab.py: the verdict it gives each metric, from canned perfbench/run.py outputs.

Nothing here spawns a process: the runs are the last stdout line run.py
would print, and main is only reached where it exits before any run.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PAIRS = 10
# a run in which every metric reads its base value; each pair's runs jitter by 0.1%
BASE = {"job_s_p50": 0.08, "job_s_tail": 0.07, "values_per_s": 12.0, "jobs_ok_ratio": 0.75,
        "peak_rss_mb": 13.9, "setup_s": 0.07}  # fmt: skip


def run_stdout(scale: float, pair: int, failed: int = 0) -> str:
    """What run.py prints for one run: a job line, then its result as JSON."""
    jitter = 1 + 0.001 * (pair % 5)
    metrics = {m["name"]: {"value": BASE[m["name"]] * scale * jitter, "unit": m["unit"]}
               for m in DECLARED}  # fmt: skip
    result = {"correct": True, "attempted": 8, "failed": failed, "metrics": metrics}
    return "job 1/8 tau2 table --g 3 wall=0.0800s rss=13.9MB ok\n" + json.dumps(result) + "\n"


def verdicts(parent_scale, change_scale) -> dict:
    """Each metric's verdict over PAIRS pairs; a scale is a number or one per pair."""
    scales = [s if isinstance(s, list) else [s] * PAIRS for s in (parent_scale, change_scale)]
    runs = {
        side: [ab.parse_run(run_stdout(scale[i], i)) for i in range(PAIRS)]
        for side, scale in zip(ab.SIDES, scales)
    }
    result = ab.compare(DECLARED, {"w": runs})["w"]
    return {name: m["verdict"] for name, m in result["metrics"].items()}


def test_identical_sides_read_neither_better_nor_worse():
    found = verdicts(1.0, 1.0)
    assert set(found) == {m["name"] for m in DECLARED}
    assert not {"better", "worse"} & set(found.values())


def test_a_change_ahead_by_more_than_the_spread_in_every_pair_reads_better():
    # lower is better for times and peak RSS, higher for throughput and the ok ratio
    lower = {m["name"] for m in DECLARED if m["better"] == "lower"}
    runs = {side: [] for side in ab.SIDES}
    for i in range(PAIRS):
        runs["parent"].append(ab.parse_run(run_stdout(1.0, i)))
        change = ab.parse_run(run_stdout(1.0, i))
        for name, m in change["metrics"].items():
            m["value"] *= 0.9 if name in lower else 1.1
        runs["change"].append(change)
    result = ab.compare(DECLARED, {"w": runs})["w"]
    assert {name: m["verdict"] for name, m in result["metrics"].items()} == dict.fromkeys(
        BASE, "better"
    )
    assert all(m["wins"] == PAIRS for m in result["metrics"].values())


def test_a_change_that_fails_more_jobs_is_not_better():
    runs = {
        "parent": [ab.parse_run(run_stdout(1.0, i)) for i in range(PAIRS)],
        "change": [ab.parse_run(run_stdout(0.8, i, failed=1)) for i in range(PAIRS)],
    }
    metrics = ab.compare(DECLARED, {"w": runs})["w"]["metrics"]
    assert metrics["job_s_p50"]["verdict"] != "better"


def test_a_parent_spread_wider_than_the_bound_reads_unresolved():
    # the parent's runs swing by half either way; the change sits in the middle
    swing = [0.5, 1.5] * (PAIRS // 2)
    found = verdicts(swing, 1.0)
    assert found["job_s_p50"] == "unresolved"
    assert found["peak_rss_mb"] == "unresolved"


def test_a_change_worse_by_more_than_the_bound_reads_worse():
    assert verdicts(1.0, 1.3)["job_s_p50"] == "worse"
    assert verdicts(1.0, 0.7)["values_per_s"] == "worse"


def test_a_lower_floor_alone_reads_better_raw_and_within_bound_above_the_floor():
    # the change's launcher sits 0.13 MB lower, and every job with it: tau2's own share is equal
    floor_kb, shift = 13.5 * 1024, 0.13
    runs = {side: [] for side in ab.SIDES}
    for i in range(PAIRS):
        runs["parent"].append(ab.with_floor(ab.parse_run(run_stdout(1.0, i)), floor_kb))
        change = ab.parse_run(run_stdout(1.0, i))
        change["metrics"]["peak_rss_mb"]["value"] -= shift
        runs["change"].append(ab.with_floor(change, floor_kb - shift * 1024))
    metrics = ab.compare(ab.judged(DECLARED), {"w": runs})["w"]["metrics"]
    assert metrics["peak_rss_mb"]["verdict"] == "better"
    assert metrics[ab.ABOVE_FLOOR]["verdict"] == "within bound"


def test_the_share_above_the_floor_is_held_to_the_raw_allowance():
    # a change launcher 60 KB lower: 15% of the share above the floor, under 1% of the peak
    floor_kb = 13.5 * 1024
    runs = {
        side: [ab.with_floor(ab.parse_run(run_stdout(1.0, i)), floor_kb - drop) for i in range(PAIRS)]
        for side, drop in zip(ab.SIDES, (0, 60))
    }
    metrics = ab.compare(ab.judged(DECLARED), {"w": runs})["w"]["metrics"]
    above = metrics[ab.ABOVE_FLOOR]
    assert above["change_median"] - above["parent_median"] > 0.1 * above["parent_median"]
    assert above["allowed"] == metrics["peak_rss_mb"]["allowed"]
    assert above["verdict"] == "within bound"


def test_unequal_path_lengths_exit_2_before_any_run(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change-longer"
    assert ab.main([str(parent), str(change), "--pairs", "10", "--label", "x"]) == 2
    assert "differ in length" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_the_file_states_its_rule():
    for verdict in ("better", "worse", "unresolved", "within bound"):
        assert f"{verdict}:" in ab.RULE

