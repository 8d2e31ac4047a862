"""Cross-checks: residual identities, cross-path equality, symmetry, bounds."""

import json
from fractions import Fraction

import pytest

from tau2.recursion import TwoPointTable, build_table
from tau2.verification import (
    CheckFailure,
    CheckReport,
    check_bounds,
    check_residual_a,
    check_residual_b,
    check_residual_tau,
    check_symmetry,
    cross_validate,
    residual_rec_a,
    residual_rec_b,
    residual_rec_tau,
)


class TestResidualTau:
    @pytest.mark.parametrize("g,k", [(2, 0), (2, 1), (3, 4)])
    def test_vanishes_on_closed_form(self, g, k):
        assert residual_rec_tau(g, k) == 0

    def test_full_domain_vanishes(self):
        for g in range(2, 9):
            for k in range(3 * g - 1):
                assert residual_rec_tau(g, k) == 0, (g, k)

    def test_vanishes_on_recursive_backend(self):
        table = build_table(6)
        for g in range(2, 7):
            for k in range(3 * g - 1):
                assert residual_rec_tau(g, k, table.value) == 0, (g, k)

    def test_detects_corrupt_backend(self):
        table = build_table(3)

        def corrupted(g, k):
            value = table.value(g, k)
            return value + Fraction(1, 7) if (g, k) == (3, 4) else value

        assert any(residual_rec_tau(3, k, corrupted) != 0 for k in range(8))

    def test_rejects_genus_one(self):
        with pytest.raises(ValueError):
            residual_rec_tau(1, 0)

    def test_rejects_step_out_of_range(self):
        with pytest.raises(ValueError, match=r"0\.\.4"):
            residual_rec_tau(2, 5)


class TestResidualA:
    @pytest.mark.parametrize("g,k", [(2, 0), (2, 2), (4, 5)])
    def test_vanishes(self, g, k):
        assert residual_rec_a(g, k) == 0

    def test_full_domain_vanishes(self):
        for g in range(2, 9):
            for k in range(3 * g - 1):
                assert residual_rec_a(g, k) == 0, (g, k)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            residual_rec_a(1, 0)
        with pytest.raises(ValueError):
            residual_rec_a(2, -1)
        with pytest.raises(ValueError):
            residual_rec_a(2, 5)


class TestResidualB:
    @pytest.mark.parametrize("g,k", [(2, 0), (3, 1), (3, 2)])
    def test_vanishes(self, g, k):
        assert residual_rec_b(g, k) == 0

    def test_full_domain_vanishes(self):
        from tau2.closedform import b_domain_max

        for g in range(2, 13):
            for k in range(b_domain_max(g)):
                assert residual_rec_b(g, k) == 0, (g, k)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            residual_rec_b(1, 0)
        with pytest.raises(ValueError):
            residual_rec_b(2, 1)
        with pytest.raises(ValueError):
            residual_rec_b(3, 3)


class TestCrossValidate:
    @pytest.mark.parametrize("g_max,total", [(1, 3), (2, 9), (3, 18)])
    def test_passes_and_counts_every_entry(self, g_max, total):
        report = cross_validate(g_max)
        assert report.passed
        assert report.checked == total
        assert report.failures == ()

    def test_accepts_prebuilt_table(self):
        table = build_table(5)
        assert cross_validate(5, table).passed

    def test_detects_single_corrupt_entry(self):
        rows = {g: list(build_table(3).row(g)) for g in range(1, 4)}
        rows[3][4] += Fraction(1, 7)
        report = cross_validate(3, TwoPointTable(rows))
        assert not report.passed
        assert [(f.g, f.k) for f in report.failures] == [(3, 4)]
        failure = report.failures[0]
        assert failure.expected == Fraction(607, 1451520) + Fraction(1, 7)
        assert failure.actual == Fraction(607, 1451520)

    def test_rejects_g_max_below_one(self):
        with pytest.raises(ValueError):
            cross_validate(0)


class TestCheckSymmetry:
    def test_passes(self):
        report = check_symmetry(6)
        assert report.passed
        assert report.check_name == "symmetry"

    def test_detects_asymmetric_corruption(self):
        rows = {g: list(build_table(2).row(g)) for g in range(1, 3)}
        rows[2][1] += Fraction(1, 7)
        report = check_symmetry(2, TwoPointTable(rows))
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


class TestCheckScans:
    def test_residual_scans_pass(self):
        assert check_residual_tau(8).passed
        assert check_residual_a(8).passed
        assert check_residual_b(8).passed

    def test_checked_counts(self):
        from tau2.closedform import b_domain_max

        g_max = 6
        assert check_residual_tau(g_max).checked == sum(3 * g - 1 for g in range(2, g_max + 1))
        assert check_residual_a(g_max).checked == sum(3 * g - 1 for g in range(2, g_max + 1))
        assert check_residual_b(g_max).checked == sum(
            b_domain_max(g) for g in range(2, g_max + 1)
        )


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
        json.dumps(obj)


class TestCorruptionSweep:
    def test_every_single_entry_corruption_is_detected(self):
        """Each single corrupted table entry fails cross-validation at its (g, k)."""
        clean = build_table(3)
        for g in range(1, 4):
            for k in range(3 * g):
                rows = {gg: list(clean.row(gg)) for gg in range(1, 4)}
                rows[g][k] += Fraction(1, 7)
                report = cross_validate(3, TwoPointTable(rows))
                assert not report.passed, (g, k)
                assert [(f.g, f.k) for f in report.failures] == [(g, k)]
