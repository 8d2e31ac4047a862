"""Command-line behavior: formats, exit codes, diagnostics, documented flags."""

import argparse
import errno
import hashlib
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faults
import tau2.cli as cli
import tau2.closedform as closedform
import tau2.combinatorics as combinatorics
from tau2.closedform import normalize
from tau2.combinatorics import rational_str

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python has no int -> str digit limit",
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def admitted(monkeypatch, argv) -> bool:
    """Whether ``cli.main`` lets ``argv`` past its size refusal, with the body stubbed out."""
    home = importlib.import_module(f"tau2.{cli._COMMANDS[argv[0]][2]}")
    monkeypatch.setattr(home, argv[0], lambda args: cli.EXIT_OK)
    with redirect_stderr(StringIO()):
        return cli.main(argv) == cli.EXIT_OK


class TestValue:
    def test_plain_prints_correlator_then_normalized(self, capsys):
        code, out, err = run_cli(capsys, "value", "--g", "2", "--k", "2")
        assert code == 0
        assert out.splitlines() == ["29/5760", "29/33"]
        assert err == ""

    def test_genus_one(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--g", "1", "--k", "1")
        assert code == 0
        assert out.splitlines()[0] == "1/24"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--g", "2", "--k", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "g": 2,
            "k": 2,
            "correlator": "29/5760",
            "normalized": "29/33",
        }

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--g", "2", "--k", "0", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["g,k,correlator,normalized", "2,0,1/1152,1"]

    @pytest.mark.parametrize("method", ["closed", "recursive", "both"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run_cli(capsys, "value", "--g", "3", "--k", "4", "--method", method)
        assert code == 0
        assert out.splitlines()[0] == "607/1451520"

    @pytest.mark.parametrize("method", ["closed", "recursive", "both"])
    @pytest.mark.parametrize("k", [-1, 6, 7])
    def test_k_out_of_range_exits_2(self, capsys, k, method):
        # k = -1 is left to argparse, which reads it as a negative number; 6 is 3g
        code, out, err = run_cli(capsys, "value", "--g", "2", "--k", str(k), "--method", method)
        with pytest.raises(ValueError) as refused:
            combinatorics._check_entry(2, k)
        assert code == 2
        assert out == ""
        assert err == f"{refused.value}\n"

    def test_genus_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "value", "--g", "0", "--k", "0")
        assert code == 2
        assert "g must be >= 1" in err

    @pytest.mark.parametrize("k", [0, 1, 179, 358, 359])
    def test_recursive_prints_closed_bytes_at_genus_120(self, capsys, k):
        argv = ["value", "--g", "120", "--k", str(k), "--method"]
        recursive = run_cli(capsys, *argv, "recursive")
        assert recursive == run_cli(capsys, *argv, "closed")
        assert recursive[0] == 0

    @needs_digit_limit
    def test_values_past_the_digit_limit_print(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tau2", "value", "--g", "1100", "--k", "1600",
             "--method", "closed"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert max(len(line) for line in proc.stdout.splitlines()) > 4300
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            corr, norm = (Fraction(line) for line in proc.stdout.splitlines())
        finally:
            sys.set_int_max_str_digits(saved)
        assert normalize(1100, 1600, corr) == norm

    @needs_digit_limit
    def test_argv_keeps_the_digit_limit(self, capsys):
        saved = sys.get_int_max_str_digits()
        if saved == 0:
            pytest.skip("the digit limit is switched off in this interpreter")
        with pytest.raises(SystemExit) as exc:
            cli.main(["value", "--g", "1" * (saved + 1), "--k", "0"])
        assert exc.value.code == 2
        assert cli.main(["value", "--g", "2", "--k", "2"]) == 0
        assert sys.get_int_max_str_digits() == saved

    def test_large_closed_value_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--g", "1000", "--k", "1500", "--method", "closed")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == "b608926864347064a8ceb00e3cac0b9c"

    @pytest.mark.parametrize(
        "g,k,digest",
        [
            (1200, 1799, "52094466f0088ccec3c936defa19a42e"),
            (700, 2000, "b7445bb06d7f66e2f5c37fa0a4589aa2"),
        ],
    )
    def test_closed_value_at_benchmark_genera_is_pinned(self, capsys, g, k, digest):
        code, out, _ = run_cli(capsys, "value", "--g", str(g), "--k", str(k), "--method", "closed")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == digest

    def test_path_mismatch_exits_3(self, capsys, monkeypatch):
        faults.plant(monkeypatch, "closed", 2, 2, 1)
        code, out, err = run_cli(capsys, "value", "--g", "2", "--k", "2")
        assert code == 3
        assert out == ""
        # S(2, 2) = 87 over N(2) = 17280: 88/17280 = 11/2160 on the closed side
        assert err == "path mismatch at (2,2): closed 11/2160, recursive 29/5760\n"

    def test_mismatch_in_the_upper_half_exits_3(self, capsys, monkeypatch):
        # S(3, 7) shifted by 1: k = 7 > (3g-1)/2, so the closed side reads its mirror S(3, 1)
        faults.plant(monkeypatch, "recursive", 3, 7, 1)
        code, out, err = run_cli(capsys, "value", "--g", "3", "--k", "7")
        assert code == 3
        assert out == ""
        assert err == "path mismatch at (3,7): closed 5/82944, recursive 263/4354560\n"

    def test_unit_mismatch_exits_3(self, capsys, monkeypatch):
        # the closed source hands out 2 L(3) with its true entry: only the units differ
        faults.plant_lone_unit(monkeypatch, 3, 2)
        code, out, err = run_cli(capsys, "value", "--g", "3", "--k", "1")
        assert code == 3
        assert out == ""
        assert err == "path mismatch at (3,1): closed 5/165888, recursive 5/82944\n"

    @staticmethod
    def _fault_genus3_entry7(monkeypatch):
        # S(3, 7) shifted wherever row 3 reaches it, as row 3 is built, so row 4 reads it; the
        # shift is a multiple of each 2k+1 = 17..23 that row 4 divides by past (4, 7), so the
        # row stays integral
        faults.plant_built(monkeypatch, 3, 7, 17 * 19 * 21 * 23)

    def test_fault_outside_the_cone_leaves_the_value(self, capsys, monkeypatch):
        # (4, 6) reads entries 0..5 of row 3; table reads all of it
        argv = ("value", "--g", "4", "--k", "6", "--method", "both")
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        _, table, _ = run_cli(capsys, "table", "--g", "4", "--method", "recursive")
        self._fault_genus3_entry7(monkeypatch)
        assert run_cli(capsys, *argv) == expected
        code, out, _ = run_cli(capsys, "table", "--g", "4", "--method", "recursive")
        assert code == 0
        assert out != table

    def test_fault_inside_the_cone_in_the_upper_half_exits_3(self, capsys, monkeypatch):
        # (4, 9) reads entries 0..8 of row 3; 9 > (3g-1)/2, so closed reads S(4, 2)
        self._fault_genus3_entry7(monkeypatch)
        code, out, err = run_cli(capsys, "value", "--g", "4", "--k", "9")
        assert code == 3
        assert out == ""
        assert err.startswith("path mismatch at (4,9): closed ")

    @pytest.mark.parametrize("g", range(1, 13))
    def test_each_value_is_its_table_line(self, capsys, g):
        # the recursive value comes from the cone of (g, k), the table line from full rows
        for method in ("closed", "recursive"):
            argv = ["table", "--g", str(g), "--method", method, "--format", "csv"]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            table = out.splitlines()
            for k in range(3 * g):
                argv = ["value", "--g", str(g), "--k", str(k), "--method", method]
                code, out, _ = run_cli(capsys, *argv, "--format", "csv")
                assert code == 0
                assert out.splitlines() == [table[0], table[k + 1]], (method, g, k)


class TestTable:
    def test_csv_genus2(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--g", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "g,k,correlator,normalized"
        assert lines[1] == "2,0,1/1152,1"
        assert len(lines) == 1 + 6

    def test_csv_genus3_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--g", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "3,0,1/82944,1"

    def test_json_genus1(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--g", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["g"] == 1
        assert [row["correlator"] for row in obj["rows"]] == ["1/24"] * 3
        assert [row["k"] for row in obj["rows"]] == [0, 1, 2]

    def test_plain_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--g", "4")
        assert code == 0
        assert len(out.splitlines()) == 12

    def test_csv_json_value_identical(self, capsys):
        _, csv_out, _ = run_cli(capsys, "table", "--g", "3", "--format", "csv")
        _, json_out, _ = run_cli(capsys, "table", "--g", "3", "--format", "json")
        csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
        obj = json.loads(json_out)
        assert [(int(r[1]), r[2], r[3]) for r in csv_rows] == [
            (row["k"], row["correlator"], row["normalized"]) for row in obj["rows"]
        ]

    @pytest.mark.parametrize("method", ["closed", "recursive", "both"])
    def test_methods_emit_same_rows(self, capsys, method):
        code, out, _ = run_cli(capsys, "table", "--g", "3", "--method", method, "--format", "csv")
        assert code == 0
        assert out.splitlines()[3] == "3,2,77/414720,77/85"

    def test_genus_below_one_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--g", "0")
        assert code == 2
        assert "g must be >= 1" in err

    def test_method_both_mismatch_exits_3(self, capsys, monkeypatch):
        # entry 2 of the genus 2 half row is mirrored to k = 3, so k = 2 differs first
        faults.plant(monkeypatch, "closed", 2, 2, 1)
        code, out, err = run_cli(capsys, "table", "--g", "2", "--method", "both")
        assert code == 3
        assert out == ""
        assert "path mismatch at (2,2): closed 11/2160, recursive 29/5760" in err

    def test_method_both_unit_mismatch_exits_3_at_k_0(self, capsys, monkeypatch):
        # only the units differ, so every rational differs, the first at k = 0
        faults.plant_lone_unit(monkeypatch, 3, 2)
        code, out, err = run_cli(capsys, "table", "--g", "3", "--method", "both")
        assert code == 3
        assert out == ""
        assert "path mismatch at (3,0): closed 1/165888, recursive 1/82944\n" in err

    @pytest.mark.parametrize("method", ["closed", "both"])
    def test_stderr_timings_fit_in_the_run(self, capsys, method):
        # the row's time and, with both, the cross-check's: durations, never
        # negative, and together no longer than the command, up to their rounding
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "table", "--g", "60", "--method", method)
        wall_ms = (time.perf_counter() - start) * 1000
        assert code == 0
        timings = re.findall(r"^table: (.+) in (-?\d+\.\d) ms$", err, re.MULTILINE)
        steps = [f"computed genus 60 ({method})", "cross-checked genus 60 on both paths"]
        assert [step for step, _ in timings] == steps[: 1 + (method == "both")]
        assert err.count("\n") == len(timings)
        ms = [float(value) for _, value in timings]
        assert min(ms) >= 0
        assert sum(ms) <= wall_ms + 0.05 * len(ms)

    def test_asymmetric_recursive_row_prints_as_it_is(self, capsys, monkeypatch):
        # S(3, 6) and S(3, 7) shifted by 1: past the middle, unequal to their mirrors
        faults.plant(monkeypatch, "recursive", 3, 6, 1)
        faults.plant(monkeypatch, "recursive", 3, 7, 1)
        _, row = faults.rows("recursive", 3)
        n = 24**3 * 6 * 105  # N(3) = 24^3 3! lcm(1, 3, 5, 7)
        code, out, _ = run_cli(capsys, "table", "--g", "3", "--method", "recursive")
        assert code == 0
        assert out.splitlines() == [
            f"3 {k} {rational_str(Fraction(s, n))} "
            f"{rational_str(normalize(3, k, Fraction(s, n)))}"
            for k, s in enumerate(row)
        ]
        assert out.splitlines()[6] != out.splitlines()[2].replace("3 2 ", "3 6 ", 1)

        code, out, err = run_cli(capsys, "table", "--g", "3", "--method", "both")
        assert code == 3
        assert out == ""
        assert "path mismatch at (3,6): closed 77/414720, recursive 809/4354560\n" in err

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("g", [1, 2, 30, 120])
    def test_recursive_and_both_print_closed_bytes(self, capsys, g, fmt):
        argv = ["table", "--g", str(g), "--format", fmt, "--method"]
        code, closed, _ = run_cli(capsys, *argv, "closed")
        assert code == 0
        for method in ("recursive", "both"):
            assert run_cli(capsys, *argv, method)[:2] == (0, closed)

    def test_csv_at_genus_200_is_pinned(self, capsys):
        # md5 recorded while the row was still built as T(g, k) over (6g-1)!!
        code, out, _ = run_cli(capsys, "table", "--g", "200", "--format", "csv")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == "c2876fba3b3f6b9ba990e08a5508f956"

    @pytest.mark.parametrize(
        "fmt,digest",
        [("plain", "4a3325e57a8536985e9f006b61267a82"), ("json", "2ff1be5b0d11b1fca5fa8c0ada19cf71")],
    )
    def test_plain_and_json_at_genus_200_are_pinned(self, capsys, fmt, digest):
        # md5 recorded while the row was still rendered from Fraction values
        code, out, _ = run_cli(capsys, "table", "--g", "200", "--format", fmt)
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == digest

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
    def test_genus_1000_json_streams_in_small_memory(self):
        # a child's ru_maxrss starts from the size of the process that spawned
        # it, so a small launcher spawns the job and reports its peak alone
        launch = (
            "import os, sys\n"
            "out = os.open(os.devnull, os.O_WRONLY)\n"
            "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,"
            " file_actions=[(os.POSIX_SPAWN_DUP2, out, 1)])\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = ["-m", "tau2", "table", "--g", "1000", "--format", "json"]
        proc = subprocess.run(
            [sys.executable, "-c", launch, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        code, maxrss_kb = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        # peak RSS is 26-27 MB; holding the whole text of the row took 86 MB
        assert maxrss_kb < 35 * 1024

    def test_cache_flag_is_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--g", "3", "--cache", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--g-max", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(": PASS" in line for line in lines)
        names = [line.split(":")[0] for line in lines]
        assert names == ["cross", "symmetry", "bounds", "residual-tau", "residual-a", "residual-b"]

    def test_bounds_only(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--g-max", "2", "--checks", "bounds")
        assert code == 0
        assert out.splitlines() == ["bounds: PASS (checked 2)"]

    def test_check_subset_order_preserved(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--g-max", "2", "--checks", "symmetry,cross")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == ["symmetry", "cross"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--g-max", "3", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["check"] for r in reports] == [
            "cross", "symmetry", "bounds", "residual-tau", "residual-a", "residual-b",
        ]
        assert all(r["passed"] for r in reports)
        assert all(r["g_max"] == 3 for r in reports)
        assert all(r["failures"] == [] for r in reports)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--g-max", "2", "--checks", "cross", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["check,passed,checked,failures", "cross,true,9,0"]

    def test_g_max_zero_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--g-max", "0")
        assert code == 2
        assert "g-max must be >= 1" in err

    def test_unknown_check_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--g-max", "2", "--checks", "cross,typo")
        assert code == 2
        assert "typo" in err

    @pytest.mark.parametrize(
        "checks", ["", " ", ",", "cross,", "cross,cross", "cross, cross", "bounds,cross,bounds"]
    )
    def test_selection_naming_no_check_or_one_twice_exits_2(self, capsys, checks):
        code, out, err = run_cli(capsys, "verify", "--g-max", "2", "--checks", checks)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1

    @staticmethod
    def _corrupt(monkeypatch):
        # S(2, 1) = 45 of the recursive row (15, 45, 87, 87, 45, 15) becomes 46
        faults.plant(monkeypatch, "recursive", 2, 1, 1)

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        self._corrupt(monkeypatch)
        code, out, err = run_cli(capsys, "verify", "--g-max", "2", "--checks", "cross")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "cross: FAIL (checked 9)"
        assert "(2,1): expected 23/8640, got 1/384" in lines[1]

    def test_stderr_timings_fit_in_the_run(self, capsys):
        # each "verify: <name> in X ms" is a duration: never negative, and all of
        # them together no longer than the command, up to their 0.1 ms rounding
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "verify", "--g-max", "25")
        wall_ms = (time.perf_counter() - start) * 1000
        assert code == 0
        timings = re.findall(r"^verify: (\S+) in (-?\d+\.\d) ms$", err, re.MULTILINE)
        assert [name for name, _ in timings] == ["rows", *cli._CHECKS]
        ms = [float(value) for _, value in timings]
        assert min(ms) >= 0
        assert sum(ms) <= wall_ms + 0.05 * len(ms)

    def test_failure_report_in_json(self, capsys, monkeypatch):
        self._corrupt(monkeypatch)
        code, out, _ = run_cli(
            capsys, "verify", "--g-max", "2", "--checks", "symmetry", "--format", "json"
        )
        assert code == 1
        assert json.loads(out) == [
            {
                "check": "symmetry",
                "g_max": 2,
                "passed": False,
                "failures": [{"g": 2, "k": 1, "expected": "1/384", "actual": "23/8640"}],
            }
        ]


class TestBench:
    def test_both_methods_columns(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--g-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == [
            "g",
            "closed_ms",
            "closed_us_per_value",
            "recursive_ms",
            "recursive_us_per_value",
            "max_bits",
        ]
        assert len(lines) == 4
        assert [line.split("\t")[0] for line in lines[1:]] == ["1", "2", "3"]

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--g-max", "1")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_closed_only_bit_sizes_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--g-max", "10", "--method", "closed")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == ["g", "closed_ms", "closed_us_per_value", "max_bits"]
        bits = [int(line.split("\t")[-1]) for line in lines[1:]]
        assert bits == sorted(bits)
        assert bits[-1] > bits[0]

    def test_g_max_zero_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--g-max", "0")
        assert code == 2
        assert "g-max must be >= 1" in err


HOLD_ARGV = [
    ["table", "--g", str(g), "--method", method]
    for g in (40, 100, 300)
    for method in ("closed", "recursive", "both")
] + [
    ["value", "--g", "1000", "--k", "1500", "--method", "closed"],
    # the recursion's cone at its largest: the whole row and the row below (at g = 100, as
    # tracing the recursion to g = 300 takes 4 s, and the bound is 2.9 times the peak there)
    ["value", "--g", "100", "--k", "299", "--method", "recursive"],
    ["bench", "--g-max", "100"],
]
# the cone at its smallest, one entry, on the lower side only: at k = 0 the dozen numbers
# that value counts are mostly far below N(g), and its bound is 4.3 times the traced peak
# (3.9 times with --method closed, which holds no cone)
LOWER_ONLY = [["value", "--g", "300", "--k", "0", "--method", "recursive"]]


class TestHoldBound:
    """The size refusal of ``table``, ``bench`` and ``value`` bounds what they hold.

    Each command runs once untraced and once under ``tracemalloc``, with stdout
    going nowhere; a ``HOLD_LIMIT`` one byte below the traced peak must refuse it,
    and one of 4 times the peak must not: the bound is at least the peak, and close.
    """

    @pytest.mark.parametrize("argv", HOLD_ARGV + LOWER_ONLY, ids=" ".join)
    def test_traced_peak_is_within_the_bound(self, capsys, monkeypatch, argv):
        peak = faults.traced_peak(tuple(argv))
        monkeypatch.setattr(combinatorics, "HOLD_LIMIT", peak - 1)
        mib = (peak - 1) >> 20
        error = f"{argv[1][2:]} {argv[2]} is too large: it would hold more than {mib} MiB\n"
        assert run_cli(capsys, *argv) == (2, "", error)

    @pytest.mark.parametrize("argv", HOLD_ARGV, ids=" ".join)
    def test_bound_is_within_four_times_the_traced_peak(self, monkeypatch, argv):
        monkeypatch.setattr(combinatorics, "HOLD_LIMIT", 4 * faults.traced_peak(tuple(argv)))
        with open(os.devnull, "w") as null, redirect_stdout(null), redirect_stderr(StringIO()):
            assert cli.main(argv) == 0


class TestOneSievePerGenusPerPath:
    """A command sieves odd_lcm(2g+1) at most once per genus on each path it runs.

    Each path's source hands out the L(g) it computed its rows over, and no
    reader sieves again.  The recursion sieves only its first row's unit and
    steps L(g) = lcm(L(g-1), 2g+1) from it, so it sieves once per run; the
    closed path sieves L(g) at each genus it computes, so ``verify`` and
    ``bench`` sieve once per genus and once more for the recursion.
    ``combinatorics.odd_lcm`` is wrapped under every name a loaded tau2 module
    holds it by, as ``perfbench/trace_job.py`` wraps names.
    """

    @pytest.mark.parametrize(
        "argv,paths,total",
        [
            (("value", "--g", "100", "--k", "30"), 2, 2),
            (("value", "--g", "100", "--k", "30", "--method", "closed"), 1, 1),
            (("value", "--g", "100", "--k", "299", "--method", "recursive"), 1, 1),
            (("table", "--g", "100"), 1, 1),
            (("table", "--g", "100", "--method", "recursive"), 1, 1),
            (("table", "--g", "100", "--method", "both"), 2, 2),
            (("verify", "--g-max", "40"), 2, 41),
            (("bench", "--g-max", "20"), 2, 21),
        ],
    )
    def test_each_genus_is_sieved_once_per_path(self, capsys, monkeypatch, argv, paths, total):
        calls = faults.count_sieves(monkeypatch)
        assert run_cli(capsys, *argv)[0] == 0
        assert max(Counter(calls).values()) <= paths
        assert len(calls) == total

    def test_only_the_paths_hold_the_sieve(self):
        importlib.import_module("tau2.bench")
        importlib.import_module("tau2.output")
        holders = [
            name
            for name, module in sorted(sys.modules.items())
            if name.startswith("tau2.") and combinatorics.odd_lcm in vars(module).values()
        ]
        assert holders == ["tau2.closedform", "tau2.combinatorics", "tau2.recursion"]


class TestTracedSourceCalls:
    """The calls of the public row sources that the benchmark's tracer counts.

    ``perfbench/trace_job.py`` wraps each name in a layer's ``__all__`` under
    every name a tau2 module holds it by, as ``faults.count_sources`` does:
    ``closedform.two_point_closed`` runs once per closed row or entry, and
    ``recursion.genus_row`` once per recursion row built above the seed.
    """

    @pytest.mark.parametrize(
        "argv,closed,steps",
        [
            (("value", "--g", "5", "--k", "3"), 1, 4),  # rows 2..5 of the cone of (5, 3)
            (("table", "--g", "6", "--method", "recursive"), 0, 5),
            (("value", "--g", "5", "--k", "3", "--method", "closed"), 1, 0),
            (("table", "--g", "6"), 1, 0),
        ],
    )
    def test_calls_per_command(self, capsys, monkeypatch, argv, closed, steps):
        counts = faults.count_sources(monkeypatch)
        assert run_cli(capsys, *argv)[0] == 0
        assert counts == {"closedform.two_point_closed": closed, "recursion.genus_row": steps}


class TestEntryPoints:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["value", "--g", "2"])
        assert exc.value.code == 2

    def test_run_wraps_main(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["tau2", "value", "--g", "1", "--k", "0"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0

    def test_internal_error_exits_4(self, capsys, monkeypatch):
        def broken(*_):
            raise RuntimeError("row store\nunavailable")

        faults.replace_walk(monkeypatch, broken)
        code, out, err = run_cli(capsys, "value", "--g", "3", "--k", "1")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("internal error: RuntimeError: row store unavailable (at ")
        # the location is the raising frame's bare file name, with no directory
        line = broken.__code__.co_firstlineno + 1
        assert err.endswith(f" (at {Path(__file__).name}:{line})\n")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tau2", "value", "--g", "2", "--k", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["29/5760", "29/33"]

    def test_module_help_starts_with_usage(self, tmp_path):
        # the benchmark times `python -m tau2 --help` from the checkout's src and
        # reports no result unless it exits 0 and starts with "usage: tau2"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        proc = subprocess.run(
            [sys.executable, "-m", "tau2", "--help"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: tau2")


class _ClosedPipe:
    """A stdout whose reader has left: every write raises ``BrokenPipeError``."""

    def __init__(self, fd: int) -> None:
        self.fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self.fd


class TestClosedPipe:
    """A reader that leaves early ends the command quietly, with the code it had reached."""

    def test_table_read_one_line_exits_0(self):
        # `tau2 table --g 300 --format csv | head -1`: the row is far longer than a pipe holds
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        proc = subprocess.Popen(
            [sys.executable, "-m", "tau2", "table", "--g", "300", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")),
        )
        assert proc.stdout.readline() == b"g,k,correlator,normalized\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 0, err
        # the timing line alone: no "internal error", no "Exception ignored"
        assert re.fullmatch(r"table: computed genus 300 \(closed\) in \d+\.\d ms\n", err), err

    @pytest.mark.parametrize(
        "argv,failing,code",
        [
            (["table", "--g", "8", "--method", "both"], False, 0),
            (["value", "--g", "8", "--k", "3", "--format", "json"], False, 0),
            (["bench", "--g-max", "3"], False, 0),
            (["verify", "--g-max", "2", "--checks", "cross"], False, 0),
            (["verify", "--g-max", "2", "--checks", "cross", "--format", "csv"], True, 1),
        ],
        ids=["table", "value", "bench", "verify-passing", "verify-failing"],
    )
    def test_exit_code_is_the_one_reached(
        self, capsys, monkeypatch, tmp_path, argv, failing, code
    ):
        if failing:
            TestVerify._corrupt(monkeypatch)
        with open(tmp_path / "stdout", "w") as target:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno()))
            assert cli.main(argv) == code
        assert "internal error" not in capsys.readouterr().err


class TestInterrupt:
    def test_sigint_exits_130_with_one_line(self):
        # table --g 2000 runs for seconds after its first line
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        proc = subprocess.Popen(
            [sys.executable, "-m", "tau2", "table", "--g", "2000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")),
            # a job a shell starts in the background ignores SIGINT, and Python keeps that
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            assert proc.stdout.readline().startswith(b"2000 0 ")
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130, err
        err = err.decode()
        assert "Traceback" not in err
        assert re.fullmatch(
            r"table: computed genus 2000 \(closed\) in \d+\.\d ms\ntable: interrupted\n", err
        ), err


class TestExitInsideTheContract:
    """A run cut short ends with one line and exit 130 or 4, from argv parsing on."""

    @pytest.mark.parametrize("reader", ["_parse", "_build_parser"])
    def test_an_interrupt_in_argv_parsing(self, capsys, monkeypatch, reader):
        def interrupted(*_):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, reader, interrupted)
        # "--g=3" is left to argparse, so the parser is built
        got, out, err = run_cli(capsys, "value", "--g=3", "--k", "1")
        assert (got, out, err) == (130, "", "tau2: interrupted\n")

    @pytest.mark.parametrize(
        "raised,code,line",
        [(KeyboardInterrupt, 130, "value: interrupted\n"), (RuntimeError, 4, "internal error: ")],
        ids=["interrupt", "fault"],
    )
    def test_in_the_size_refusal(self, capsys, monkeypatch, raised, code, line):
        def refusal(*_):
            raise raised

        monkeypatch.setattr(combinatorics, "_genus_error", refusal)
        got, out, err = run_cli(capsys, "value", "--g", "3", "--k", "1")
        assert (got, out) == (code, "")
        assert err.count("\n") == 1 and err.startswith(line), err

    def test_a_module_that_cannot_be_read_is_no_stdout_failure(self, capsys, monkeypatch):
        def unreadable(name):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(cli, "import_module", unreadable)
        got, out, err = run_cli(capsys, "value", "--g", "3", "--k", "1")
        assert (got, out) == (4, "")
        assert err.count("\n") == 1 and err.startswith("internal error: OSError: "), err


def run_with(argv, stdout, stderr, buffered):
    """``python -m tau2 argv`` with these streams; buffered or not, as PYTHONUNBUFFERED says."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "tau2", *argv], stdout=stdout, stderr=stderr, text=True, env=env
    )


FULL_ARGV = pytest.mark.parametrize(
    "argv",
    [["value", "--g", "3", "--k", "2"], ["table", "--g", "3"], ["verify", "--g-max", "3"]],
    ids=["value", "table", "verify"],
)
BUFFERED = pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
class TestStreamFull:
    """A stdout that cannot be written ends the command with exit 4 and one line naming it;
    a stderr that cannot be written loses its lines and changes neither stdout nor the exit.
    """

    @FULL_ARGV
    @BUFFERED
    def test_stdout_exits_4_with_a_line_that_names_it(self, argv, buffered):
        with open("/dev/full", "w") as full:
            proc = run_with(argv, full, subprocess.PIPE, buffered)
        assert proc.returncode == 4, proc.stderr
        no_space = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert proc.stderr.splitlines()[-1] == f"{argv[0]}: cannot write stdout: {no_space}"
        assert "internal error" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @FULL_ARGV
    @BUFFERED
    def test_stderr_is_dropped(self, argv, buffered):
        expected = run_with(argv, subprocess.PIPE, subprocess.DEVNULL, buffered)
        with open("/dev/full", "w") as full:
            proc = run_with(argv, subprocess.PIPE, full, buffered)
        assert (proc.returncode, expected.returncode) == (0, 0)
        assert proc.stdout == expected.stdout != ""


METHODS = ["closed", "recursive", "both"]


@st.composite
def well_formed_argv(draw):
    """Well-formed argv for value, table, verify or bench; g, k and g-max may be out of range."""
    command = draw(st.sampled_from(["value", "table", "verify", "bench"]))
    if command == "bench":
        method = draw(st.sampled_from(METHODS))
        return ["bench", f"--g-max={draw(st.integers(-3, 6))}", f"--method={method}"]
    fmt = draw(st.sampled_from(["plain", "csv", "json"]))
    if command == "verify":
        argv = ["verify", f"--g-max={draw(st.integers(-2, 4))}", f"--format={fmt}"]
        checks = draw(st.lists(st.sampled_from([*cli._CHECKS, "typo"]), max_size=3))
        return argv + [f"--checks={','.join(checks)}"] if checks else argv
    method = draw(st.sampled_from(METHODS))
    argv = [command, f"--g={draw(st.integers(-2, 6))}", f"--method={method}", f"--format={fmt}"]
    return argv + [f"--k={draw(st.integers(-3, 20))}"] if command == "value" else argv


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(well_formed_argv())
    def test_success_prints_and_usage_error_is_one_line(self, argv):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")
        else:
            assert out.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [
            [command, flag, str(g), *extra, "--method", method]
            for g in (10**9, 10**18, 10**30)
            for method in METHODS
            for command, flag, extra in [
                ("value", "--g", ["--k", "0"]),
                ("value", "--g", ["--k", str(3 * g - 1)]),
                ("table", "--g", []),
                ("bench", "--g-max", []),
            ]
        ]
        + [["verify", "--g-max", str(g)] for g in (10**9, 10**18, 10**30)],
        ids=" ".join,
    )
    def test_a_genus_too_large_to_hold_exits_2_at_once(self, argv):
        # refused before anything is allocated: g = 10^9 alone would ask for a 2 GB sieve
        out, err = StringIO(), StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == f"{argv[1][2:]} {argv[2]} is too large: it would hold more than 256 MiB\n"

    # one past each limit of the README's table, on each method whose count differs
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--g", "2489"],
            ["bench", "--g-max", "5646", "--method", "closed"],
            ["bench", "--g-max", "4089", "--method", "recursive"],
            ["bench", "--g-max", "3338", "--method", "both"],
            ["value", "--g", "3532038", "--k", "0", "--method", "closed"],
            ["value", "--g", "4088", "--k", "12263", "--method", "recursive"],
            ["value", "--g", "4088", "--k", "12263", "--method", "both"],
            ["verify", "--g-max", "1318"],
        ],
        ids=" ".join,
    )
    def test_one_past_each_limit_exits_2_at_once(self, monkeypatch, argv):
        self.test_a_genus_too_large_to_hold_exits_2_at_once(argv)
        # refused before the command runs: a stubbed command is refused too
        assert not admitted(monkeypatch, argv)

    def test_the_argparse_form_is_refused_too(self, capsys):
        error = "g 2489 is too large: it would hold more than 256 MiB\n"
        assert run_cli(capsys, "table", "--g=2489") == (2, "", error)

    @pytest.mark.parametrize(
        "argv",
        [
            *(["table", "--g", g, "--method", m] for g in ("1556", "2000") for m in METHODS),
            *(["bench", "--g-max", "2379", "--method", m] for m in METHODS),
            ["value", "--g", "1398101", "--k", "0", "--method", "closed"],
            ["verify", "--g-max", "1232"],
            # the recursion holds a row and the row below: 2 x 3g entries of N(g)'s size, which
            # at g = 5838, the limit when one row was counted, come to 2.1 times the 256 MiB
            *(["value", "--g", "4087", "--k", "0", "--method", m] for m in METHODS[1:]),
            # the cone of (g, 0) is one entry, so at k = 0 that limit no longer holds
            *(["value", "--g", "4088", "--k", "0", "--method", m] for m in METHODS[1:]),
        ],
        ids=" ".join,
    )
    def test_what_fit_before_is_admitted(self, monkeypatch, argv):
        assert admitted(monkeypatch, argv)


# flags as given, abbreviated, unknown or for help, and values of every kind argparse reads
SPELLINGS = ["--g", "--k", "--g-max", "--method", "--format", "--checks",
             "--form", "--meth", "--g-m", "--che", "--cache", "-h", "--help", "--", "-g"]
TEXTS = ["0", "3", "-1", "+2", " 4", "1_0", "x", "", "3.5", "--g", *METHODS,
         "plain", "csv", "json", "cross,bounds"]  # fmt: skip


def _value_of(kind):
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        return st.integers(0, 40).map(str) | st.sampled_from(["+2", " 4", "1_0", "07", "\u0663"])
    return st.text(max_size=4)


@st.composite
def plain_argv(draw):
    """A command and its flags in any order, each with a value of its kind; some repeated."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[command][1]
    chosen = draw(st.lists(st.sampled_from(list(flags)), max_size=2 * len(flags)))
    argv = [command]
    for flag in draw(st.permutations(list(flags))) + chosen:
        argv += [flag, draw(_value_of(flags[flag][0]))]
    return argv


@st.composite
def any_argv(draw):
    """A command and up to six flags or values, as pairs, as --flag=value or alone."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [command]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(list(cli._COMMANDS[command][1])) | st.sampled_from(SPELLINGS))
        value = draw(st.sampled_from(TEXTS) | st.integers(-3, 40).map(str) | st.text(max_size=3))
        argv += draw(st.sampled_from([[flag, value], [flag, value], [f"{flag}={value}"], [flag], [value]]))
    return argv


def _fields(namespace):
    """Each attribute with its type."""
    return {name: (type(value), value) for name, value in vars(namespace).items()}


class TestParse:
    """``cli._parse`` reads the plain argv form as argparse does, and leaves the rest to it."""

    @settings(max_examples=400, deadline=None)
    @given(plain_argv() | any_argv())
    def test_accepted_argv_parses_as_argparse_does(self, argv):
        fast = cli._parse(argv)
        if fast is not None:
            assert _fields(fast) == _fields(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--g", "100", "--format", "csv"],
            ["value", "--g", "100", "--k", "150"],
            ["value", "--g", "1000", "--k", "1500", "--method", "closed"],
            ["verify", "--g-max", "40", "--format", "csv"],
            ["verify", "--checks", "bounds,cross", "--g-max", "3"],
            ["bench", "--g-max", "2", "--method", "closed"],
            ["table", "--g", "3", "--g", "4"],
        ],
        ids=" ".join,
    )
    def test_well_formed_argv_takes_the_fast_path(self, argv):
        assert cli._parse(argv) is not None

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["frob"], ["--help"], ["verify", "-h"], ["value", "--g", "2"],
            ["value", "--g=2", "--k=1"], ["table", "--form", "csv", "--g", "3"],
            ["verify", "--g", "3"], ["value", "--g", "3", "--k", "-1"],
            ["table", "--g", "3", "--k", "1"], ["table", "--g", "x"], ["table", "--g", ""],
            ["table", "--g", "3", "--method", "fast"], ["table", "--g", "3", "extra"],
            ["table", "--g", "3", "--format"], ["table", "--g", "3", "--", "--format", "csv"],
            ["table", "--g", "--g=0", "--g", "0"], ["table", "--g", "-1", "--g", "3"],
            ["table", "--g", "x", "--g", "3"], ["table", "--g", "3", "--method", "fast", "--method", "closed"],
        ],
        ids=lambda argv: " ".join(argv) or "no command",
    )  # fmt: skip
    def test_other_argv_is_left_to_argparse(self, argv):
        assert cli._parse(argv) is None


README = Path(__file__).resolve().parents[1] / "README.md"


def resolve(dotted: str):
    """The object a dotted ``tau2.x.y`` name reaches, by attribute or as a submodule."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        try:
            obj = getattr(obj, parts[i])
        except AttributeError:
            obj = importlib.import_module(".".join(parts[: i + 1]))
    return obj


class TestReadme:
    def test_library_names_resolve(self):
        names = set(re.findall(r"\btau2(?:\.[A-Za-z_]\w*)+", README.read_text(encoding="utf-8")))
        assert "tau2.recursive_row" in names
        unresolved = []
        for name in sorted(names):
            try:
                resolve(name)
            except (AttributeError, ImportError):
                unresolved.append(name)
        assert unresolved == []

    def test_resolve_rejects_a_deleted_name(self):
        assert resolve("tau2.closedform.b_value") is closedform.b_value
        with pytest.raises(ImportError):
            resolve("tau2.one_point_at")

    def test_size_limits_match_the_refusal(self, monkeypatch):
        # each row of the README's table: a command, with --method where the count differs
        readme = README.read_text(encoding="utf-8")
        lines = readme.split("| command | holds", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
        documented = {}
        for line in lines:
            command, *method = line.split("`")[1].split()[::2]
            flags = cli._COMMANDS[command][1]
            # one figure, or one per k: "<g> at k = 0, <g> at k = 3g-1"
            cell = line.rsplit("|", 2)[1]
            figures = re.findall(r"(\d+) at k = (0|3g-1)", cell) or [(cell, "0")]
            for m in method or (METHODS if "--method" in flags else [None]):
                for figure, k in figures:
                    documented[command, m, k] = int(figure)
        expected = {(c, m) for c, (_, flags, *_) in cli._COMMANDS.items()
                    for m in (METHODS if "--method" in flags else [None])}  # fmt: skip
        assert {(c, m) for c, m, _ in documented} == expected
        assert documented["value", "recursive", "3g-1"] == 4087

        for (command, method, k), figure in documented.items():
            flag = next(iter(cli._COMMANDS[command][1]))  # the genus flag
            method_flag = ["--method", method] if method else []
            def fits(g):
                rest = ["--k", str(3 * g - 1 if k == "3g-1" else 0)] if command == "value" else []
                return admitted(monkeypatch, [command, flag, str(g), *rest, *method_flag])
            low, high = 1, 2
            while fits(high):
                low, high = high, 2 * high
            while high - low > 1:
                mid = (low + high) // 2
                low, high = (mid, high) if fits(mid) else (low, mid)
            assert low == figure, (command, method, k)

    def test_flags_line_matches_the_parser(self):
        readme = README.read_text(encoding="utf-8")
        flags_line = readme.split("Flags:", 1)[1].split("\n\n", 1)[0]
        documented = set(re.findall(r"--[a-z][a-z-]*", flags_line))
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        offered = {
            flag
            for subparser in sub.choices.values()
            for action in subparser._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        assert documented == offered
