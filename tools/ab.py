"""Paired benchmark runs of a parent and a change checkout, and each metric's verdict.

    python3 tools/ab.py PARENT CHANGE --pairs 10 --label pr44 [--workloads W ...]

Each pair runs ``perfbench/run.py --workload W --seed s --seconds S`` once in
each checkout, with the same seed s (the pair's number, from 1), for every
workload W (default: all of the parent's ``BENCHMARK.json``).  S is that
file's ``run_seconds``, and its ``end_to_end`` list gives each metric's
direction and bound.  The side that runs first alternates from pair to pair.
Each side's jobs import the ``src`` of its own checkout: ``PYTHONPATH`` is
dropped from their environment.

``BENCH_ab_<label>.json`` is written to the current directory, never into
either checkout.  Per workload and end-to-end metric it records every run's
value, both medians, the parent's quartiles Q1 and Q3, the pairs the change
wins, loses and ties, the metric's bound, each side's failed jobs, and one
verdict by ``RULE``.  It also records the Python version, nproc, whether
``PYTHONDONTWRITEBYTECODE`` is set, and each side's path length, git rev
and floors.  A floor is the peak RSS of ``python -c pass`` spawned through
that checkout's ``perfbench/launcher.py``, the median of ``FLOOR_RUNS``; it
is measured on both sides in every pair, before that side's first run of
the pair.  The floors move between launchers by as much as the peak-RSS
differences in question, so ``ABOVE_FLOOR``, each run's ``peak_rss_mb``
less its side's floor in its pair, gets a verdict too, by the same rule and
allowance in MB as ``peak_rss_mb``.

The two checkouts must sit at paths of equal length, or the tool exits 2
at once: a job's peak RSS depends on the length of its paths.  Standard
library only.  Ten pairs of all four workloads take about 5 minutes
(Python 3.11.7, 2 vCPUs): a run has a fixed number of jobs, and at the
measured job times it lasts a few seconds, not ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
FLOOR_RUNS = 5
ABOVE_FLOOR = "peak_rss_mb_above_floor"
RULE = (
    "Per workload and end-to-end metric, over the pairs run, with the parent's median m, "
    "its quartiles Q1..Q3 and the metric's bound b as a fraction of m. "
    "better: the change wins at least 9 of every 10 pairs, the medians differ by more than "
    "Q3-Q1, and the change fails no more jobs than the parent. "
    "worse: the change's median is worse than m by more than b*m. "
    "unresolved: Q3-Q1 is wider than b*m, unless every change run beats every parent run. "
    "within bound: any other case. The first that holds, in this order, is the verdict. "
    f"{ABOVE_FLOOR}, peak_rss_mb less the floor of its side in its pair, uses "
    "peak_rss_mb's allowance b*m, in MB, in place of its own."
)


def parse_run(stdout: str) -> dict:
    """The result ``perfbench/run.py`` prints as its last stdout line."""
    return json.loads(stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(
    metric: dict, parent: list[float], change: list[float], failed: dict, base: float | None = None
) -> dict:
    """One metric's pairwise comparison; ``parent[i]`` and ``change[i]`` are pair i's runs.

    The bound is a fraction of ``base``, by default the parent's median m.
    """
    sign = 1 if metric["better"] == "higher" else -1  # sign * (c - p) > 0: the change is better
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins, losses = sum(x > 0 for x in gains), sum(x < 0 for x in gains)
    m, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    allowed = metric["bound"] * abs(m if base is None else base)
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    fails_no_more = failed["change"] <= failed["parent"]
    if 10 * wins >= 9 * len(gains) and sign * (mc - m) > q3 - q1 and fails_no_more:
        outcome = "better"
    elif sign * (m - mc) > allowed:
        outcome = "worse"
    elif q3 - q1 > allowed and not dominates:
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "allowed": allowed, "parent_median": m, "change_median": mc,
        "parent_q1": q1, "parent_q3": q3,
        "wins": wins, "losses": losses, "ties": len(gains) - wins - losses,
        "verdict": outcome, "parent": parent, "change": change,
    }  # fmt: skip


def judged(declared: list[dict]) -> list[dict]:
    """The declared end-to-end metrics, then ``ABOVE_FLOOR``, judged as ``peak_rss_mb`` is."""
    rss = next(m for m in declared if m["name"] == "peak_rss_mb")
    return [*declared, dict(rss, name=ABOVE_FLOOR)]


def with_floor(result: dict, floor_kb: float) -> dict:
    """A ``parse_run`` result with ``ABOVE_FLOOR`` added: its ``peak_rss_mb`` less ``floor_kb``."""
    rss = result["metrics"]["peak_rss_mb"]
    result["metrics"][ABOVE_FLOOR] = {"value": rss["value"] - floor_kb / 1024, "unit": rss["unit"]}
    return result


def compare(declared: list[dict], runs: dict[str, dict[str, list[dict]]]) -> dict:
    """Per workload, each side's failed jobs and each declared metric's ``verdict``.

    ``runs[workload][side]`` lists that side's ``parse_run`` results, pair by pair.
    """
    out = {}
    for workload, sides in runs.items():
        failed = {side: sum(r["failed"] for r in sides[side]) for side in SIDES}
        metrics = {}
        for metric in declared:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in sides[side]] for side in SIDES]
            # a run above the floor carries its floor's spread, about a tenth of the share above
            # it, so against b times that share two identical checkouts read worse
            base = metrics["peak_rss_mb"]["parent_median"] if name == ABOVE_FLOOR else None
            metrics[name] = verdict(metric, *values, failed, base)
        attempted = {side: sum(r["attempted"] for r in sides[side]) for side in SIDES}
        out[workload] = {"attempted": attempted, "failed": failed, "metrics": metrics}
    return out


def _rev(path: Path) -> str:
    def git(*args: str) -> str:
        proc = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else ""

    rev = git("rev-parse", "HEAD") or "unknown"
    return rev + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _floor_kb(path: Path, env: dict[str, str]) -> float:
    """Median peak RSS of ``python -c pass`` spawned through the checkout's launcher."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.Popen(
            [sys.executable, str(path / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=path, text=True,
        )  # fmt: skip
        request = {"cmd": [sys.executable, "-c", "pass"], "out": f"{tmp}/out", "err": f"{tmp}/err"}
        peaks = []
        for _ in range(FLOOR_RUNS):
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            peaks.append(json.loads(proc.stdout.readline())["maxrss_kb"])
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()
    return statistics.median(peaks)


def _run(path: Path, workload: str, seed: int, seconds: float, env: dict[str, str]) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}"]  # fmt: skip
    proc = subprocess.run(cmd, cwd=path, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {path} exited {proc.returncode}: {proc.stderr[-500:]}")
    return parse_run(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", nargs="+")
    args = ap.parse_args(argv)
    paths = {side: getattr(args, side).resolve() for side in SIDES}
    if len(str(paths["parent"])) != len(str(paths["change"])):
        print(f"ab: paths differ in length: {paths['parent']}, {paths['change']}", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print(f"ab: --pairs must be >= 1, got {args.pairs}", file=sys.stderr)
        return 2
    bench = json.loads((paths["parent"] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    report = {
        "label": args.label, "rule": RULE, "python": platform.python_version(),
        "nproc": os.cpu_count(), "pairs": args.pairs, "run_seconds": seconds,
        "dont_write_bytecode": bool(env.get("PYTHONDONTWRITEBYTECODE")),
        "sides": {
            side: {"path_length": len(str(p)), "rev": _rev(p), "floors_kb": []}
            for side, p in paths.items()
        },
    }  # fmt: skip
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        floors = {side: _floor_kb(paths[side], env) for side in order}
        for side in order:
            report["sides"][side]["floors_kb"].append(floors[side])
        for workload in workloads:
            for side in order:
                result = with_floor(_run(paths[side], workload, pair, seconds, env), floors[side])
                runs[workload][side].append(result)
                print(f"pair {pair}/{args.pairs} {workload} {side}: failed {result['failed']}"
                      f" of {result['attempted']}", file=sys.stderr, flush=True)  # fmt: skip
    report["workloads"] = compare(judged(bench["end_to_end"]), runs)
    out = Path(f"BENCH_ab_{args.label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, result in report["workloads"].items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: {m['verdict']} (parent {m['parent_median']:.6g}, "
                  f"change {m['change_median']:.6g} {m['unit']}, wins {m['wins']}/{args.pairs})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
