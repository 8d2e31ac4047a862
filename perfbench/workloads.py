"""Seeded job lists for the four benchmark workloads.

A job is the argv of one ``python -m tau2`` call.  Each workload cuts its
genus range into ``len(ORDER)`` bands, and job ``i`` of a run draws its genus
inside band ``ORDER[i % len(ORDER)]``; the order spreads the sizes over the
run.  A run has a fixed number of jobs, the jobs that take about ``seconds``
at the workload's nominal job time.  So every run of the same length has the
same mix of job sizes whatever the seed; the seed picks the point inside
each band, and ``k`` where the command takes one.

``value-closed`` leaves out the genera 1011..1099.  Up to g = 1010 every k
prints within Python's 4300-digit int->str limit, from g = 1100 none does,
and in between it depends on k.  Without the gap the number of failing jobs
would change with the seed; with it, a fixed share of the bands fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# band of each job within a pass of eight: every prefix is spread over the range
ORDER = (0, 4, 2, 6, 1, 5, 3, 7)
MIN_JOBS = 8


@dataclass(frozen=True)
class Job:
    kind: str  # "table", "value" or "verify"
    g: int
    argv: tuple[str, ...]
    k: int | None = None


def bands(lo: int, hi: int, n: int) -> tuple[tuple[int, int], ...]:
    """``lo..hi`` cut into ``n`` inclusive bands of near-equal width."""
    edges = [lo + (hi - lo + 1) * i // n for i in range(n + 1)]
    return tuple((a, b - 1) for a, b in zip(edges, edges[1:]))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bands: tuple[tuple[int, int], ...]  # one per entry of ORDER, smallest first
    job_s: float  # nominal wall of one job, which sets the job count of a run
    make: Callable[[int, random.Random], Job]

    @property
    def hi(self) -> int:
        return self.bands[-1][1]

    def count(self, seconds: float) -> int:
        return max(MIN_JOBS, round(seconds / self.job_s))

    def jobs(self, seed: int, n: int) -> list[Job]:
        """The first ``n`` jobs; the same seed yields the same list."""
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for i in range(n):
            lo, hi = self.bands[ORDER[i % len(ORDER)]]
            out.append(self.make(rng.randint(lo, hi), rng))
        return out


def _table(g: int, rng: random.Random) -> Job:
    return Job("table", g, ("table", "--g", str(g), "--format", "csv"))


def _value_both(g: int, rng: random.Random) -> Job:
    k = rng.randrange(3 * g)
    return Job("value", g, ("value", "--g", str(g), "--k", str(k)), k)


def _verify(n: int, rng: random.Random) -> Job:
    return Job("verify", n, ("verify", "--g-max", str(n), "--format", "csv"))


def _value_closed(g: int, rng: random.Random) -> Job:
    k = rng.randrange(3 * g)
    return Job("value", g, ("value", "--g", str(g), "--k", str(k), "--method", "closed"), k)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table-closed",
            "closedform plus the cli/combinatorics output boundary do all the work; "
            "table recomputes every genus 1..G to print row G; no recursion or verification",
            bands(80, 120, 8),
            0.65,
            _table,
        ),
        Workload(
            "value-both",
            "recursion.build_table(G-1) is almost all the time and closedform computes one "
            "value: a recursion change shows here, a closed-path change should not",
            bands(80, 120, 8),
            0.8,
            _value_both,
        ),
        Workload(
            "verify-suite",
            "all six verification checks: check self time, scattered closedform point "
            "lookups over adjacent genera and one build_table",
            bands(30, 50, 8),
            0.8,
            _verify,
        ),
        Workload(
            "value-closed",
            "closedform rescaling at large genus with no recursion; a quarter of the jobs "
            "pass the 4300-digit int->str limit (g>=1100) and fail today",
            bands(700, 1010, 6) + bands(1100, 1200, 2),
            2.0,
            _value_closed,
        ),
    )
}
