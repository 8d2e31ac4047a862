"""Tests of the benchmark itself: generator, checker, tracer and metrics.

Run from the repository root:  python -m pytest perfbench/tests
"""

import itertools
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402
from checker import Checker, t_rows, OddDoubleFactorial  # noqa: E402
from trace_job import Tracer, summarize  # noqa: E402
from workloads import MIN_JOBS, ORDER, WORKLOADS, Job  # noqa: E402


@pytest.fixture(scope="module")
def launcher():
    lw = bench.Launcher(bench.job_env())
    yield lw
    lw.close()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    n = 2 * len(ORDER) + 3
    jobs = wl.jobs(7, n)
    assert jobs == wl.jobs(7, n)
    assert jobs != wl.jobs(8, n)
    assert len(wl.bands) == len(ORDER)
    for i, job in enumerate(jobs):
        lo, hi = wl.bands[ORDER[i % len(ORDER)]]
        assert lo <= job.g <= hi
        if job.k is not None:
            assert 0 <= job.k <= 3 * job.g - 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_bands_cover_the_range_in_order(name):
    wl = WORKLOADS[name]
    assert all(lo <= hi for lo, hi in wl.bands)
    assert all(a[1] < b[0] for a, b in zip(wl.bands, wl.bands[1:]))
    assert wl.count(25) == wl.count(25) >= MIN_JOBS


def test_value_closed_failures_do_not_depend_on_the_seed():
    # every genus is below or above the band where failing depends on k
    wl = WORKLOADS["value-closed"]
    n = wl.count(25)
    above = {sum(job.g >= 1100 for job in wl.jobs(seed, n)) for seed in range(20)}
    assert len(above) == 1 and above.pop() > 0
    assert all(job.g <= 1010 or job.g >= 1100 for seed in range(20) for job in wl.jobs(seed, n))


def test_reference_rows_are_symmetric_and_anchored():
    df = OddDoubleFactorial()
    rows = t_rows(25, df)
    for g, row in rows.items():
        assert len(row) == 3 * g
        assert row == row[::-1]
        assert row[0] == df(6 * g - 1)


def _flip_digit(text: str, index: int) -> str:
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = digits[index]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize(
    "job",
    [
        Job("table", 6, ("table", "--g", "6", "--format", "csv")),
        Job("value", 7, ("value", "--g", "7", "--k", "5"), 5),
        Job("verify", 4, ("verify", "--g-max", "4", "--format", "csv")),
        Job("value", 9, ("value", "--g", "9", "--k", "11", "--method", "closed"), 11),
        Job("value", 9, ("value", "--g", "9", "--k", "1", "--method", "closed"), 1),
    ],
    ids=lambda j: " ".join(j.argv),
)
def test_checker_accepts_real_output_and_flags_one_changed_digit(launcher, job):
    checker = Checker(10)
    rec = bench.run_job(job, launcher, checker, trace=False)
    assert rec.plain.rc == 0 and rec.verdict.ok, rec.verdict.reason
    out = rec.plain.stdout
    n_digits = sum(ch.isdigit() for ch in out)
    # the last digit printed, and one in the middle of the output
    for index in (n_digits - 1, n_digits // 2):
        changed = _flip_digit(out, index)
        assert not checker.check(job, changed).ok, changed


def test_self_time_of_synthetic_nested_calls():
    tracer = Tracer(clock=itertools.count().__next__)
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda: leaf())

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    # ticks: outer 0..9, inner 1..4 and 5..8, leaf 2..3 and 6..7
    assert summarize(tracer.spans) == {
        "outer": [1, 9, 3],
        "inner": [2, 6, 4],
        "leaf": [2, 2, 2],
    }


def test_tail_is_highest_percentile_with_ten_beyond():
    walls = [float(i) for i in range(30, 0, -1)]
    assert bench.tail(walls) == (20.0, 19, 30)
    assert bench.tail(walls[:5]) == (26.0, 0, 5)


def test_traced_table_counts_closed_values_per_emitted(launcher):
    genera = (4, 7, 10)
    jobs = [Job("table", g, ("table", "--g", str(g), "--format", "csv")) for g in genera]
    checker = Checker(10)
    records = [bench.run_job(job, launcher, checker, trace=True) for job in jobs]
    assert not any(r.failed for r in records)
    metrics = bench.per_layer(records)
    value = metrics["closedform.values_per_emitted"]["value"]
    assert value == statistics.fmean((g + 1) / 2 for g in genera)
    assert metrics["closedform.two_point_closed.calls"]["value"] == sum(3 * g * (g + 1) // 2 for g in genera)
    assert metrics["recursion.genus_row.calls"]["value"] == 0
    assert all(m["value"] == 0 for k, m in metrics.items() if k.startswith("verification."))


def test_missing_wrapped_name_is_reported_absent(launcher):
    job = Job("value", 5, ("value", "--g", "5", "--k", "3"), 3)
    rec = bench.run_job(job, launcher, Checker(5), trace=True)
    rec.trace["wrapped"].remove("closedform.b_value")
    metrics = bench.per_layer([rec])
    assert "closedform.b_value.calls" not in metrics
    assert metrics["recursion.genus_row.calls"]["value"] == 4
