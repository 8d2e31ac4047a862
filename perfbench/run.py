"""tau2 benchmark: CLI job latency and throughput, measured from outside.

    python3 perfbench/run.py --workload table-closed --seed 1 --seconds 22 --trace 0

Run from the repository root (or anywhere: paths are taken from this file).
One client issues ``python -m tau2 ...`` jobs in a closed loop, the next job
starting when the previous one has exited.  A run has a fixed number of jobs,
about ``--seconds`` worth at the workload's nominal job time (see
workloads.py), so runs of the same length do the same mix of work whatever
the machine's speed.  Every job's stdout is checked (see checker.py) after
its wall time is taken.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each job
twice, plain and under trace_job.py, and reports the per-layer metrics from
the traced run.  ``--workload all`` runs every workload in turn.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from checker import EXACT_G_MAX, Checker, Verdict
from trace_job import LAYERS, MARKER
from workloads import WORKLOADS, Job, Workload

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 5
SETUP_EVERY = 2  # jobs between two set-up timings inside the run
TRACE_COST = 2.3  # walls of a plain job that the plain and the traced run take together
TAIL_BEYOND = 10
CHECK_FUNCS = {
    "cross": "cross_validate",
    "symmetry": "check_symmetry",
    "bounds": "check_bounds",
    "residual-tau": "check_residual_tau",
    "residual-a": "check_residual_a",
    "residual-b": "check_residual_b",
}


@dataclass
class Run:
    wall: float
    rc: int
    stdout: str
    stderr: str
    rss_mb: float


@dataclass
class Record:
    job: Job
    plain: Run
    verdict: Verdict
    traced: Run | None = None
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        runs = [self.plain] + ([self.traced] if self.traced else [])
        return any(r.rc != 0 for r in runs) or not self.verdict.ok


class Launcher:
    """Client of launcher.py, which spawns each job and times it to exit."""

    def __init__(self, env: dict[str, str]) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.out, self.err = self.dir / "stdout", self.dir / "stderr"
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def run(self, cmd: list[str]) -> Run:
        request = {"cmd": cmd, "out": str(self.out), "err": str(self.err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        reply = json.loads(line)
        return Run(reply["wall"], reply["rc"], self.out.read_text(), self.err.read_text(), reply["maxrss_kb"] / 1024)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.dir)


def job_env() -> dict[str, str]:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()[:12]
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line[:12]
            return "unknown"
        return head[:12]
    except OSError:
        return "unknown"


def setup(launcher: Launcher) -> float:
    """Wall of one ``python -m tau2 --help``: interpreter start, import, parser."""
    run = launcher.run([sys.executable, "-m", "tau2", "--help"])
    if run.rc != 0 or not run.stdout.startswith("usage: tau2"):
        raise RuntimeError(f"tau2 --help failed (exit {run.rc}): {run.stderr.strip()[-500:]}")
    return run.wall


def parse_trace(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None


def run_job(job: Job, launcher: Launcher, checker: Checker, trace: bool) -> Record:
    """One job, plain and (with ``trace``) traced; outputs checked after timing."""
    plain = launcher.run([sys.executable, "-m", "tau2", *job.argv])
    verdict = checker.check(job, plain.stdout) if plain.rc == 0 else Verdict(True, 0)
    rec = Record(job, plain, verdict)
    if trace:
        rec.traced = launcher.run([sys.executable, str(ROOT / "perfbench" / "trace_job.py"), *job.argv])
        rec.trace = parse_trace(rec.traced.stderr)
        if rec.traced.stdout != plain.stdout and verdict.ok:
            rec.verdict = Verdict(False, 0, reason="traced stdout differs from the plain run")
    return rec


def measure(
    wl: Workload, seed: int, seconds: float, trace: bool, launcher: Launcher, checker: Checker
) -> tuple[list[Record], list[float]]:
    """Closed loop, one client: the run's jobs back to back.

    Set-up is timed SETUP_RUNS times before the loop and once after every
    SETUP_EVERY jobs, so that its median spans the run as the jobs do.
    """
    n = wl.count(seconds / TRACE_COST if trace else seconds)
    setups = [setup(launcher) for _ in range(SETUP_RUNS)]
    records = []
    for i, job in enumerate(wl.jobs(seed, n), 1):
        rec = run_job(job, launcher, checker, trace)
        records.append(rec)
        status = "ok" if not rec.failed else f"FAILED exit={rec.plain.rc} {rec.verdict.reason}".rstrip()
        extra = f" traced={rec.traced.wall:.4f}s" if rec.traced else ""
        print(f"job {i}/{n} tau2 {' '.join(job.argv)} wall={rec.plain.wall:.4f}s "
              f"rss={rec.plain.rss_mb:.1f}MB{extra} {status}", flush=True)
        if i % SETUP_EVERY == 0:
            setups.append(setup(launcher))
    return records, setups


def tail(walls: list[float]) -> tuple[float, int, int]:
    """Highest percentile with TAIL_BEYOND jobs beyond it: (value, index, n).

    With TAIL_BEYOND jobs or fewer there is no such percentile; the fastest
    job is reported and the output says how many were beyond it.
    """
    ordered = sorted(walls)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], i, len(ordered)


def end_to_end(records: list[Record], setup_s: float) -> tuple[dict, list[str]]:
    walls = [r.plain.wall for r in records]
    n = len(records)
    failed = sum(r.failed for r in records)
    value, i, _ = tail(walls)
    metrics = {
        "job_s_p50": (statistics.median(walls), "s"),
        "job_s_tail": (value, "s"),
        "values_per_s": (sum(r.verdict.values for r in records if not r.failed) / sum(walls), "1/s"),
        "jobs_ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (max(r.plain.rss_mb for r in records), "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"job_s_tail is p{100 * (i + 1) / n:.0f}: job {i + 1} of {n} by wall time, {n - 1 - i} slower",
        f"jobs_failed_ratio {failed / n:.4f} ratio ({failed} of {n} jobs failed)",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def per_layer(records: list[Record]) -> dict:
    traced = [r for r in records if r.trace is not None]
    wrapped = set(traced[0].trace["wrapped"]) if traced else set()
    tot: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
    per_emitted = []
    checked: dict[str, int] = defaultdict(int)
    for r in traced:
        for name, rec in r.trace["spans"].items():
            for j in range(3):
                tot[name][j] += rec[j]
        if r.verdict.values and r.job.kind != "verify":
            per_emitted.append(r.trace["spans"].get("closedform.two_point_closed", [0])[0] / r.verdict.values)
        for check, m in (r.verdict.checked or {}).items():
            checked[check] += m
    out: dict[str, tuple] = {}

    def from_fn(metric: str, fn: str, field: int, unit: str) -> None:
        if fn in wrapped:
            out[metric] = (tot[fn][field], unit)

    for layer in LAYERS:
        names = [n for n in wrapped if n.startswith(layer + ".")]
        if names:
            out[f"{layer}.self_s"] = (sum(tot[n][2] for n in names), "s")
    from_fn("closedform.two_point_closed.calls", "closedform.two_point_closed", 0, "count")
    from_fn("closedform.b_value.calls", "closedform.b_value", 0, "count")
    from_fn("closedform.normalize.self_s", "closedform.normalize", 2, "s")
    if "closedform.two_point_closed" in wrapped:
        out["closedform.values_per_emitted"] = (statistics.fmean(per_emitted) if per_emitted else 0.0, "ratio")
    from_fn("recursion.genus_row.calls", "recursion.genus_row", 0, "count")
    if "recursion.genus_row" in wrapped:
        out["recursion.rows_per_job"] = (tot["recursion.genus_row"][0] / max(len(traced), 1), "rows/job")
    for check, fn in CHECK_FUNCS.items():
        from_fn(f"verification.{check}.s", f"verification.{fn}", 1, "s")
        out[f"verification.{check}.checked"] = (checked[check], "count")
    from_fn("combinatorics.rational_str.self_s", "combinatorics.rational_str", 2, "s")
    from_fn("combinatorics.rational_str.calls", "combinatorics.rational_str", 0, "count")
    from_fn("combinatorics.double_factorial_odd.calls", "combinatorics.double_factorial_odd", 0, "count")
    out["values.max_bits"] = (max((r.verdict.max_bits for r in records), default=0), "bits")
    out["stdout_bytes"] = (max((len(r.plain.stdout.encode()) for r in records), default=0), "B")
    plain = sum(r.plain.wall for r in traced)
    out["trace.overhead_ratio"] = (sum(r.traced.wall for r in traced) / plain if plain else 0.0, "ratio")
    out["trace.jobs"] = (len(traced), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def bench(wl: Workload, seed: int, seconds: float, trace: bool, env: dict[str, str]) -> dict:
    print(f"workload {wl.name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"python={platform.python_version()} git={git_rev()} nproc={os.cpu_count()}")
    print(f"why: {wl.why}")
    launcher = Launcher(env)
    try:
        checker = Checker(wl.hi if wl.hi <= EXACT_G_MAX else 0)
        records, setups = measure(wl, seed, seconds, trace, launcher, checker)
    finally:
        launcher.close()
    if trace:
        metrics, notes = per_layer(records), []
    else:
        metrics, notes = end_to_end(records, statistics.median(setups))
        notes.append(f"setup_s is the median of {len(setups)} runs of `python -m tau2 --help`")
    for name, m in metrics.items():
        print(f"metric {wl.name} {name} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"note {wl.name} {note}")
    return {
        "correct": all(r.verdict.ok for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tau2" / "__init__.py").is_file():
        print(f"perfbench: no tau2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = job_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: bench(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), env) for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
