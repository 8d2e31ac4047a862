"""Cross-checks: residual identities, cross-path equality, symmetry, bounds."""

import hashlib
import json
import re
from fractions import Fraction

import pytest

import faults
import tau2.cli as cli
from tau2 import combinatorics, verification
from tau2.combinatorics import _denominator
from tau2.verification import (
    CheckFailure,
    CheckReport,
    check_bounds,
    check_residual_a,
    check_residual_b,
    check_residual_tau,
    check_symmetry,
    cross_validate,
)


class TestResidualTau:
    def test_vanishes_on_recursive_rows(self):
        # residual-tau is the recursion's own step, so it holds on the recursive rows too
        below = None
        for g, (lam, row) in enumerate(faults.walk("recursive", 6), start=1):
            rows = {"s": row, "lam": lam}
            if below is not None:
                n = _denominator(g, rows["lam"])
                assert verification._tau_residuals(g, rows, below) == (3 * g - 1, n, [])
            below = rows


class TestSharedStep:
    """residual-tau and the recursion run one step, the recursion's own.

    The step is patched under every name a tau2 module holds it by, so a check
    that computed its own bracket or one-point term would not see the fault.
    """

    @pytest.fixture
    def faulty_step(self, monkeypatch):
        # 2k+1 = 11 more at (g, k) = (4, 5): S(4, 5) one more, the step's own division exact
        holders = faults.plant_step(monkeypatch, 4, 5, 11)
        assert holders == ["tau2.recursion", "tau2.verification"]

    def test_residual_tau_fails_at_the_faulty_step(self, capsys, faulty_step):
        code, out, _ = run_verify(capsys, "--g-max", "6", "--checks", "residual-tau")
        assert code == 1
        failures = re.findall(r"^  \((\d+),(\d+)\): expected (\S+), got (\S+)$", out, re.MULTILINE)
        assert failures == [("4", "4", "0", "-11/2508226560")]

    def test_recursive_table_divides_inexactly_past_the_faulty_step(self, capsys, faulty_step):
        assert cli.main(["table", "--g", "4", "--method", "recursive"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "inexact division at (4,6)" in captured.err


class TestCrossValidate:
    @pytest.mark.parametrize("g_max,total", [(1, 3), (2, 9), (3, 18)])
    def test_passes_and_counts_every_entry(self, g_max, total):
        report = cross_validate(g_max)
        assert report.passed
        assert report.checked == total
        assert report.failures == ()

    def test_detects_single_corrupt_entry(self, monkeypatch):
        faults.plant(monkeypatch, "recursive", 3, 4, 1)
        report = cross_validate(3)
        assert not report.passed
        assert [(f.g, f.k) for f in report.failures] == [(3, 4)]
        failure = report.failures[0]
        # N(3) = 24^3 3! lcm(1, 3, 5, 7) = 8709120, so the shift by 1 is 1/N(3)
        assert failure.expected == Fraction(607, 1451520) + Fraction(1, 8709120)
        assert failure.actual == Fraction(607, 1451520)

    def test_rejects_g_max_below_one(self):
        with pytest.raises(ValueError):
            cross_validate(0)


class TestCheckSymmetry:
    def test_passes(self):
        report = check_symmetry(6)
        assert report.passed
        assert report.check_name == "symmetry"

    def test_detects_asymmetric_corruption(self, monkeypatch):
        faults.plant(monkeypatch, "recursive", 2, 1, 1)
        report = check_symmetry(2)
        assert not report.passed
        assert (2, 1) in [(f.g, f.k) for f in report.failures]

    def test_rejects_g_max_below_one(self):
        with pytest.raises(ValueError):
            check_symmetry(0)


class TestCheckBounds:
    def test_example_window(self):
        report = check_bounds(2)
        assert report.passed
        assert report.checked == 2

    def test_passes_to_genus_twelve(self):
        assert check_bounds(12).passed

    def test_trivial_range_is_empty(self):
        report = check_bounds(1)
        assert report.passed
        assert report.checked == 0


# D(2) = 11!! = 10395 and D(3) = 17!! = 34459425; the lower bound (6g-3) D / (6g-1)
# is 8505 at genus 2 and 30405375 at genus 3, so both bounds are integers there
BOUNDS_FAULTS = {
    (2, 2): 8505 + 1,  # just above the lower bound: passes
    (3, 2): 34459425,  # on the upper bound: fails, the window is strict
    (3, 3): 30405375,  # on the lower bound: fails
    (3, 4): 30405375 - 1,  # below the lower bound
    (3, 5): 34459425 + 1,  # above the upper bound
    (3, 6): 34459425 - 1,  # just below the upper bound: passes
}
BOUNDS_FAILED = """\
bounds: FAIL (checked 7)
  (3,2): expected 1, got 1
  (3,3): expected 15/17, got 15/17
  (3,4): expected 15/17, got 30405374/34459425
  (3,5): expected 1, got 34459426/34459425
"""


class TestBoundsFailures:
    """A(g, k) pushed onto, below and above the window (6g-3) D < (6g-1) A < (6g-1) D."""

    @pytest.fixture(autouse=True)
    def pushed(self, monkeypatch):
        faults.plant_in_walk(monkeypatch, "a", BOUNDS_FAULTS)

    def test_failures_are_pinned(self):
        report = check_bounds(3)
        assert report.checked == 7
        assert report.failures == (
            CheckFailure(3, 2, Fraction(1), Fraction(1)),
            CheckFailure(3, 3, Fraction(15, 17), Fraction(15, 17)),
            CheckFailure(3, 4, Fraction(15, 17), Fraction(30405374, 34459425)),
            CheckFailure(3, 5, Fraction(1), Fraction(34459426, 34459425)),
        )

    def test_verify_prints_the_failures(self, capsys):
        code, out, _ = run_verify(capsys, "--g-max", "3", "--checks", "bounds")
        assert code == 1
        assert out == BOUNDS_FAILED


class TestCheckScans:
    def test_residual_scans_pass(self):
        assert check_residual_tau(8).passed
        assert check_residual_a(8).passed
        assert check_residual_b(8).passed

    def test_checked_counts(self):
        from tau2.closedform import b_domain_max

        g_max = 6
        assert cross_validate(g_max).checked == 63
        assert check_symmetry(g_max).checked == 33
        assert check_bounds(g_max).checked == 40
        assert check_residual_tau(g_max).checked == sum(3 * g - 1 for g in range(2, g_max + 1))
        assert check_residual_a(g_max).checked == sum(3 * g - 1 for g in range(2, g_max + 1))
        assert check_residual_b(g_max).checked == sum(
            b_domain_max(g) for g in range(2, g_max + 1)
        )


CHECKS = ["cross", "symmetry", "bounds", "residual-tau", "residual-a", "residual-b"]
ONE_CHECK = [
    cross_validate, check_symmetry, check_bounds, check_residual_tau, check_residual_a,
    check_residual_b,
]
SHIFTED_CORE_LOCI = [(3, k) for k in range(1, 7)] + [(4, k) for k in range(2, 10)]
CLOSED_LOCI = [(4, 4), (4, 5), (4, 6)] + [(5, k) for k in range(5, 10)]
# per fault, the failing (g, k) of each check at g_max = 8, recorded when every
# check still ran its own scan over the genera
FAULT_LOCI = {
    "none": {},
    # closed S(4, 5) shifted by L(4) = 315, and with it its mirror S(4, 6)
    "closed": {"cross": [(4, 5), (4, 6)], "residual-tau": CLOSED_LOCI, "residual-a": CLOSED_LOCI},
    # recursive S(3, 4) (the middle of its row) shifted by 1, and S(6, 10) by -7
    "recursive": {"cross": [(3, 4), (6, 10)], "symmetry": [(6, 7)]},
    # q(3, 1) + 3, as in TestShiftedCore
    "core": {
        "cross": [(3, k) for k in range(2, 7)],
        "residual-tau": SHIFTED_CORE_LOCI,
        "residual-a": SHIFTED_CORE_LOCI,
        "residual-b": [(3, 0), (3, 1), (4, 1), (4, 2), (4, 3)],
    },
}


@pytest.fixture(params=sorted(FAULT_LOCI))
def fault(request, monkeypatch):
    """Inject one fault and give its failing loci at g_max = 8, by check."""
    if request.param == "closed":
        faults.plant(monkeypatch, "closed", 4, 5, 315)
    elif request.param == "recursive":
        faults.plant(monkeypatch, "recursive", 3, 4, 1)
        faults.plant(monkeypatch, "recursive", 6, 10, -7)
    elif request.param == "core":
        faults.plant_core(monkeypatch, 3, 1, 3)
    yield FAULT_LOCI[request.param]


class TestWalk:
    """One walk over the genera gives what six scans, one per check, gave."""

    @pytest.mark.parametrize("g_max", range(1, 9))
    def test_one_walk_is_the_six_checks(self, fault, g_max):
        reports = verification._run(CHECKS, g_max)
        assert reports == [check(g_max) for check in ONE_CHECK]
        assert {r.check_name: [(f.g, f.k) for f in r.failures] for r in reports} == {
            name: [(g, k) for g, k in fault.get(name, []) if g <= g_max] for name in CHECKS
        }

    def test_each_row_is_built_once(self, monkeypatch):
        built = faults.count_builds(monkeypatch)
        assert all(r.passed for r in verification._run(CHECKS, 6))
        assert built["closed"] == [1, 2, 3, 4, 5, 6]
        assert built["recursive"] == [6]

    def test_symmetry_builds_no_closed_row(self, monkeypatch):
        calls = faults.count_builds(monkeypatch)["closed"]
        assert verification._run(["symmetry"], 6)[0].passed
        assert calls == []
        assert verification._run(["cross"], 6)[0].passed
        assert calls == [1, 2, 3, 4, 5, 6]

    def test_times_cover_each_check_and_the_rows(self):
        times = {}
        verification._run(["bounds", "cross"], 3, times)
        assert list(times) == ["rows", "bounds", "cross"]
        assert all(t >= 0 for t in times.values())


class TestCheckReport:
    def test_passed_tracks_failures(self):
        ok = CheckReport("cross", (1, 3), (), 18)
        bad = CheckReport("cross", (1, 3), (CheckFailure(3, 4, Fraction(1), Fraction(2)),), 18)
        assert ok.passed and not bad.passed

    def test_json_shape(self):
        failure = CheckFailure(3, 4, Fraction(607, 1451520), Fraction(608, 1451520))
        report = CheckReport("cross", (1, 3), (failure,), 18)
        obj = report.to_json_obj()
        assert obj == {
            "check": "cross",
            "g_max": 3,
            "passed": False,
            "failures": [
                {"g": 3, "k": 4, "expected": "607/1451520", "actual": "19/45360"}
            ],
        }
        assert json.dumps(obj) == (
            '{"check": "cross", "g_max": 3, "passed": false, "failures": '
            '[{"g": 3, "k": 4, "expected": "607/1451520", "actual": "19/45360"}]}'
        )

    def test_fields_in_order(self):
        assert CheckFailure._fields == ("g", "k", "expected", "actual")
        assert CheckReport._fields == ("check_name", "g_range", "failures", "checked")
        failure = CheckFailure(3, 4, Fraction(1), Fraction(2))
        report = CheckReport("bounds", (2, 3), (failure,), 5)
        assert (report.check_name, report.g_range, report.checked) == ("bounds", (2, 3), 5)
        assert report.failures[0].expected == Fraction(1)

    @pytest.mark.parametrize("field", ["g", "k", "expected", "actual"])
    def test_failure_is_immutable(self, field):
        failure = CheckFailure(3, 4, Fraction(1), Fraction(2))
        with pytest.raises(AttributeError):
            setattr(failure, field, 0)

    @pytest.mark.parametrize("field", ["check_name", "g_range", "failures", "checked", "passed"])
    def test_report_is_immutable(self, field):
        report = CheckReport("cross", (1, 3), (), 18)
        with pytest.raises(AttributeError):
            setattr(report, field, 0)


class TestCorruptionSweep:
    def test_every_single_entry_corruption_is_detected(self, monkeypatch):
        """Each single corrupted recursive entry fails cross-validation at its (g, k)."""
        for g in range(1, 4):
            for k in range(3 * g):
                with monkeypatch.context() as patched:
                    faults.plant(patched, "recursive", g, k, 1)
                    report = cross_validate(3)
                assert not report.passed, (g, k)
                assert [(f.g, f.k) for f in report.failures] == [(g, k)]


def run_verify(capsys, *argv):
    code = cli.main(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


# Output of `verify --g-max 4` with q(3, 1) shifted by three, i.e. core(3, 1) by
# nine, recorded when the closed loop still ran on T(g, k) over (6g-1)!!.  A
# shift by one is no longer exact on S(g, k) over L(g): see test_closedform.
SHIFTED_CORE_PLAIN = """\
cross: FAIL (checked 30)
  (3,2): expected 77/414720, got 1/5184
  (3,3): expected 503/1451520, got 209/580608
  (3,4): expected 607/1451520, got 757/1741824
  (3,5): expected 503/1451520, got 209/580608
  (3,6): expected 77/414720, got 1/5184
symmetry: PASS (checked 16)
bounds: PASS (checked 15)
residual-tau: FAIL (checked 24)
  (3,1): expected 0, got 1/27648
  (3,2): expected 0, got 7/69120
  (3,3): expected 0, got 13/69120
  (3,4): expected 0, got 143/622080
  (3,5): expected 0, got 13/69120
  (3,6): expected 0, got 1/15360
  (4,2): expected 0, got -1/829440
  (4,3): expected 0, got -17/2903040
  (4,4): expected 0, got -683/52254720
  (4,5): expected 0, got -1/54432
  (4,6): expected 0, got -1/54432
  (4,7): expected 0, got -683/52254720
  (4,8): expected 0, got -17/2903040
  (4,9): expected 0, got -1/829440
residual-a: FAIL (checked 24)
  (3,1): expected 0, got 9/17
  (3,2): expected 0, got 42/85
  (3,3): expected 0, got 42/85
  (3,4): expected 0, got 42/85
  (3,5): expected 0, got 42/85
  (3,6): expected 0, got 27/85
  (4,2): expected 0, got -48/161
  (4,3): expected 0, got -1632/3059
  (4,4): expected 0, got -32784/52003
  (4,5): expected 0, got -33792/52003
  (4,6): expected 0, got -33792/52003
  (4,7): expected 0, got -32784/52003
  (4,8): expected 0, got -1632/3059
  (4,9): expected 0, got -48/161
residual-b: FAIL (checked 8)
  (3,0): expected 0, got 9/17
  (3,1): expected 0, got -3/85
  (4,1): expected 0, got -48/161
  (4,2): expected 0, got -720/3059
  (4,3): expected 0, got -720/7429
"""


class TestShiftedCore:
    """A closed form built from q(3, 1) + 3, i.e. core(3, 1) + 9, fails loudly at pinned loci."""

    @pytest.fixture(autouse=True)
    def shifted_core(self, monkeypatch):
        faults.plant_core(monkeypatch, 3, 1, 3)

    def test_failure_loci(self):
        def loci(report):
            return [(f.g, f.k) for f in report.failures]

        assert loci(cross_validate(4)) == [(3, k) for k in range(2, 7)]
        assert loci(check_residual_tau(4)) == [(3, k) for k in range(1, 7)] + [
            (4, k) for k in range(2, 10)
        ]
        assert loci(check_residual_b(4)) == [(3, 0), (3, 1), (4, 1), (4, 2), (4, 3)]

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("plain", "342930700b5eadf7b7762e83197bdd1a"),
            ("csv", "33d7d47d32313a9a637d94b8bebecac4"),
            ("json", "0305243a367dc52d891f33772ca5647e"),
        ],
    )
    def test_failure_output_is_pinned(self, capsys, fmt, digest):
        code, out, _ = run_verify(capsys, "--g-max", "4", "--format", fmt)
        assert code == 1
        if fmt == "plain":
            assert out == SHIFTED_CORE_PLAIN
        assert md5(out) == digest


class TestInexactDivision:
    @pytest.fixture(autouse=True)
    def broken_unit(self, monkeypatch):
        # the closed source hands out 10007 L(4) as the unit of its genus 4 row; 10007
        # divides no P(4, k) S(4, k), so A(4, 0) = 23!! L(4) / (L(4) 10007) is inexact
        faults.plant_unit(monkeypatch, 4, 10007)

    @pytest.mark.parametrize("check", [check_bounds, check_residual_a])
    def test_raises(self, check):
        with pytest.raises(ArithmeticError, match=r"inexact division at \(4,0\): remainder"):
            check(4)

    def test_exits_4(self, capsys):
        code, out, err = run_verify(capsys, "--g-max", "4", "--checks", "residual-a")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("internal error: ArithmeticError: inexact division at (4,0)")


def closed_counts(g_max):
    """Comparisons each check must report, counted from the definitions."""
    return {
        "cross": sum(3 * g for g in range(1, g_max + 1)),
        "symmetry": sum((3 * g - 1) // 2 + 1 for g in range(1, g_max + 1)),
        "bounds": sum(3 * g - 4 for g in range(2, g_max + 1)),
        "residual-tau": sum(3 * g - 1 for g in range(2, g_max + 1)),
        "residual-a": sum(3 * g - 1 for g in range(2, g_max + 1)),
        "residual-b": sum((3 * g - 1) // 2 - 1 for g in range(2, g_max + 1)),
    }


class TestPassingOutput:
    """Passing stdout of `verify` is pinned to digests recorded before the integer checks."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("--g-max", "60"), "80531e7adb452fa072010e00860069a1"),
            (("--g-max", "60", "--format", "csv"), "de9fad12c696a848b12dea1f53f7dc81"),
            (("--g-max", "60", "--format", "json"), "43fcd0f94d4e49ea9c99d38c26925ee7"),
            (
                ("--g-max", "5", "--checks", "bounds,residual-b", "--format", "json"),
                "d08afd18e570fa94c2f9484fbd17dfbc",
            ),
        ],
    )
    def test_output_is_pinned(self, capsys, argv, digest):
        code, out, _ = run_verify(capsys, *argv)
        assert code == 0
        assert md5(out) == digest

    @pytest.mark.parametrize("g_max", [1, 2, 7, 30, 60])
    def test_checked_counts_are_the_closed_counts(self, capsys, g_max):
        code, out, _ = run_verify(capsys, "--g-max", str(g_max), "--format", "csv")
        assert code == 0
        expected = ["check,passed,checked,failures"] + [
            f"{name},true,{count},0" for name, count in closed_counts(g_max).items()
        ]
        assert out.splitlines() == expected


class TestHoldBound:
    """``verify``'s size refusal bounds what it holds with every check selected, closely."""

    @pytest.mark.parametrize("g_max", [10, 40, 100])
    def test_traced_peak_is_within_the_bound(self, capsys, monkeypatch, g_max):
        peak = faults.traced_peak(("verify", "--g-max", str(g_max)))
        # a limit one byte below that peak refuses the run: the bound is at least the peak
        monkeypatch.setattr(combinatorics, "HOLD_LIMIT", peak - 1)
        code, out, err = run_verify(capsys, "--g-max", str(g_max))
        assert (code, out) == (2, "")
        mib = (peak - 1) >> 20
        assert err == f"g-max {g_max} is too large: it would hold more than {mib} MiB\n"

    @pytest.mark.parametrize("g_max", [10, 40, 100])
    def test_bound_is_within_four_times_the_traced_peak(self, capsys, monkeypatch, g_max):
        peak = faults.traced_peak(("verify", "--g-max", str(g_max)))
        monkeypatch.setattr(combinatorics, "HOLD_LIMIT", 4 * peak)
        assert run_verify(capsys, "--g-max", str(g_max))[0] == 0
