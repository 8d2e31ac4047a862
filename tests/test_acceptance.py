"""Acceptance gate: every criterion checked at its stated budget.

Each test prints exactly one ``criterion N (label): PASS|FAIL`` line on the
live terminal (pytest capture is suspended for just that line), so the gate
summary is always visible.  All value comparisons are exact rational
equality; the only tolerances are the wall-clock budgets, which are
asserted, not just reported.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from time import perf_counter

import pytest

import faults
from tau2.closedform import normalize
from tau2.combinatorics import _denominator
from tau2.verification import (
    check_bounds,
    check_residual_a,
    check_residual_b,
    check_residual_tau,
    check_symmetry,
    cross_validate,
)


@pytest.fixture
def gate(pytestconfig):
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def emit(line: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    @contextmanager
    def criterion(number: int, label: str, budget_s: float):
        start = perf_counter()
        try:
            yield
            elapsed = perf_counter() - start
            if elapsed >= budget_s:
                raise AssertionError(f"took {elapsed:.2f}s, budget {budget_s:g}s")
        except BaseException:
            emit(f"criterion {number} ({label}): FAIL")
            raise
        emit(f"criterion {number} ({label}): PASS ({elapsed:.2f}s, budget {budget_s:g}s)")

    return criterion


def test_criterion_1_exact_value_anchors(gate):
    with gate(1, "exact value anchors", 1.0):
        # <tau_0 tau_{3g-1}> = <tau_{3g-2}> = 1/(24^g g!), on both paths
        for path in ("closed", "recursive"):
            assert faults.values(path, 1, 0) == Fraction(1, 24)
            for g in range(1, 11):
                assert faults.values(path, g, 0) == Fraction(1, 24**g * factorial(g))
        unit, below = faults.rows("recursive", 1)
        lam, row = faults.step(2, below, unit)
        recursive = [faults.value(2, lam, s) for s in row]
        anchors = {
            (2, 0): Fraction(1, 1152),
            (2, 1): Fraction(1, 384),
            (2, 2): Fraction(29, 5760),
        }
        for (g, k), expected in anchors.items():
            assert faults.values("closed", g, k) == expected
            assert recursive[k] == expected
        assert faults.normalized("closed", 2, 2) == Fraction(29, 33)
        assert normalize(2, 2, Fraction(29, 5760)) == Fraction(29, 33)


def test_criterion_2_base_normalized_values(gate):
    with gate(2, "a(g,0) and a(g,1) to genus 100, both paths", 5.0):
        for g, (lam, row) in enumerate(faults.walk("recursive", 100), start=1):
            s0, s1 = (Fraction(s, _denominator(g, lam)) for s in row[:2])
            assert faults.normalized("closed", g, 0) == 1
            assert faults.normalized("closed", g, 1) == Fraction(6 * g - 3, 6 * g - 1)
            assert normalize(g, 0, s0) == 1
            assert normalize(g, 1, s1) == Fraction(6 * g - 3, 6 * g - 1)


def test_criterion_3_cross_path_equivalence(gate):
    with gate(3, "cross-path equivalence to genus 30", 30.0):
        report = cross_validate(30)
        assert report.passed, report.failures[:3]
        assert report.checked == sum(3 * g for g in range(1, 31)) == 1395


def test_criterion_4_residual_suites(gate):
    with gate(4, "recursion residuals vanish to genus 20", 60.0):
        for check in (check_residual_b, check_residual_a, check_residual_tau):
            report = check(20)
            assert report.passed, (report.check_name, report.failures[:3])
            assert report.checked > 0


def test_criterion_5_bounds_window(gate):
    with gate(5, "strict bounds window to genus 30", 10.0):
        report = check_bounds(30)
        assert report.passed, report.failures[:3]
        assert report.checked == sum(3 * g - 4 for g in range(2, 31))


def test_criterion_6_symmetry_and_positivity(gate):
    with gate(6, "symmetry and positivity to genus 30", 30.0):
        report = check_symmetry(30)
        assert report.passed, report.failures[:3]
        # every S(g, k) = N(g) <tau_k tau_{3g-1-k}> has the sign of its correlator
        for _, row in faults.walk("recursive", 30):
            assert all(s > 0 for s in row)


def test_criterion_8_closed_path_performance(gate):
    with gate(8, "closed path speed at genus 300", 60.0):
        start = perf_counter()
        correlators = list(faults.values("closed", 300))
        normalized = [normalize(300, k, v) for k, v in enumerate(correlators)]
        closed_300_s = perf_counter() - start
        assert closed_300_s < 60.0
        assert len(correlators) == len(normalized) == 900
        digits = max(
            len(str(abs(part)))
            for v in correlators + normalized
            for part in (v.numerator, v.denominator)
        )
        assert digits > 1000

        # per-value cost: a fresh closed row beats the recursive chain it needs
        g = 30
        start = perf_counter()
        closed_row = faults.values("closed", g)
        closed_s = perf_counter() - start
        start = perf_counter()
        recursive = faults.values("recursive", g)
        recursive_s = perf_counter() - start
        assert closed_row == recursive
        closed_per_value = closed_s / (3 * g)
        recursive_per_value = recursive_s / (3 * g)
        assert closed_per_value < recursive_per_value, (closed_s, recursive_s)
