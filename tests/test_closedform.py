"""Closed-form path: difference values, normalized values, correlators."""

import re
import tracemalloc
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faults
import tau2.cli as cli
import tau2.closedform as closedform
from tau2.closedform import b_domain_max, b_value, normalize
from tau2.combinatorics import double_factorial_odd


def a(g, k):
    """a(g, k) = W(k) S(g, k) / L(g) from the closed path's integer entry."""
    return faults.normalized("closed", g, k)


def one_point(g):
    """<tau_{3g-2}> = 1/(24^g g!)."""
    return Fraction(1, 24**g * factorial(g))


class TestBDomain:
    @pytest.mark.parametrize("g,expected", [(1, 0), (2, 1), (3, 3), (4, 4), (5, 6), (10, 13)])
    def test_domain_max(self, g, expected):
        assert b_domain_max(g) == expected


class TestBValue:
    @pytest.mark.parametrize(
        "g,k,expected",
        [
            (1, 0, Fraction(-2, 5)),
            (2, 0, Fraction(-2, 11)),
            (2, 1, Fraction(2, 33)),
            (3, 0, Fraction(-2, 17)),
            (3, 1, Fraction(2, 85)),
            (3, 2, Fraction(1, 221)),
            (3, 3, Fraction(-28, 2431)),
        ],
    )
    def test_frozen_anchors(self, g, k, expected):
        assert b_value(g, k) == expected

    @pytest.mark.parametrize("g,k", [(1, 1), (2, 2), (3, 4), (2, -1)])
    def test_out_of_domain_rejected(self, g, k):
        with pytest.raises(ValueError, match="difference index"):
            b_value(g, k)

    def test_rejects_genus_below_one(self):
        with pytest.raises(ValueError):
            b_value(0, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=15), st.data())
    def test_telescopes_to_a_differences(self, g, data):
        k = data.draw(st.integers(min_value=0, max_value=b_domain_max(g)))
        assert b_value(g, k) == a(g, k + 1) - a(g, k)

    def test_self_paired_midpoint_is_one_past_domain(self):
        # the k with a(g,k+1) = a(g,k) mirrored onto itself sits just outside
        for g in (2, 4, 8):
            midpoint = (3 * g - 2) // 2
            assert midpoint == b_domain_max(g) + 1
            with pytest.raises(ValueError):
                b_value(g, midpoint)

    def test_signs_follow_residue_classes(self):
        for g in range(2, 10):
            for k in range(b_domain_max(g) + 1):
                v = b_value(g, k)
                r = k % 3
                if r == 0:
                    assert v < 0, (g, k)
                elif r == 1:
                    assert v > 0, (g, k)


class TestAClosed:
    """a(g, k) on the closed path, from its integer entries."""

    def test_base_value(self):
        for g in range(1, 21):
            assert a(g, 0) == 1

    def test_next_value(self):
        for g in range(1, 21):
            assert a(g, 1) == Fraction(6 * g - 3, 6 * g - 1)

    @pytest.mark.parametrize(
        "g,k,expected",
        [
            (1, 1, Fraction(3, 5)),
            (2, 1, Fraction(9, 11)),
            (2, 2, Fraction(29, 33)),
            (3, 1, Fraction(15, 17)),
            (3, 2, Fraction(77, 85)),
        ],
    )
    def test_frozen_anchors(self, g, k, expected):
        assert a(g, k) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=15), st.data())
    def test_symmetry(self, g, data):
        k = data.draw(st.integers(min_value=0, max_value=3 * g - 1))
        assert a(g, k) == a(g, 3 * g - 1 - k)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"k must be in 0\.\.5"):
            a(2, 6)
        with pytest.raises(ValueError):
            a(2, -1)
        with pytest.raises(ValueError):
            a(0, 0)


class TestNormalizeAndTwoPointClosed:
    def test_normalize_unscales_to_a(self):
        for g in range(1, 9):
            for k in range(3 * g):
                corr = faults.values("closed", g, k)
                assert normalize(g, k, corr) == a(g, k)

    def test_scale_shape(self):
        # a(g,k) = (2k+1)!!(6g-1-2k)!! 24^g g! / (6g-1)!! * correlator
        g, k = 3, 2
        scale = Fraction(
            double_factorial_odd(2 * k + 1)
            * double_factorial_odd(6 * g - 1 - 2 * k)
            * 24**g
            * factorial(g),
            double_factorial_odd(6 * g - 1),
        )
        assert normalize(g, k, Fraction(1)) == scale

    def test_string_endpoint(self):
        for g in range(1, 12):
            assert faults.values("closed", g, 0) == one_point(g)

    def test_dilaton_endpoint(self):
        for g in range(1, 12):
            assert faults.values("closed", g, 1) == (2 * g - 1) * one_point(g)

    @pytest.mark.parametrize(
        "g,k,expected",
        [
            (1, 1, Fraction(1, 24)),
            (2, 2, Fraction(29, 5760)),
            (3, 2, Fraction(77, 414720)),
            (3, 4, Fraction(607, 1451520)),
        ],
    )
    def test_frozen_anchors(self, g, k, expected):
        assert faults.values("closed", g, k) == expected

    def test_matches_recursive_path(self):
        for g in range(1, 11):
            row = faults.values("recursive", g)
            for k in range(3 * g):
                assert faults.values("closed", g, k) == row[k], (g, k)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"k must be in 0\.\.5"):
            faults.rows("closed", 2, 7)

    def test_positive_everywhere(self):
        for g in range(1, 12):
            for k in range(3 * g):
                assert faults.values("closed", g, k) > 0


class TestIntegerHalfRow:
    def test_half_row_is_the_recursions_integer_row(self):
        for g, (lam, row) in enumerate(faults.walk("recursive", 80), start=1):
            closed_lam, closed = faults.rows("closed", g)
            assert len(closed) == 3 * g
            half = closed[: (3 * g - 1) // 2 + 1]
            assert half == row[: len(half)], g
            assert closed == row, g
            assert closed_lam == lam, g

    def test_walk_is_each_row_to_genus_120(self):
        # the walk steps L(g) = lcm(L(g-1), 2g+1) where a lone row sieves it
        walked = list(faults.walk("closed", 120))
        assert walked == [faults.rows("closed", g) for g in range(1, 121)]

    def test_one_entry_equals_the_full_row(self):
        for g in range(1, 41):
            full_lam, full = faults.rows("closed", g)
            for k in range(3 * g):
                lam, s = faults.rows("closed", g, k)
                assert (lam, s) == (full_lam, full[k]), (g, k)

    @pytest.mark.parametrize("g,k", [(2, 6), (2, -1), (0, 0)])
    def test_streamed_out_of_range_rejected(self, g, k):
        with pytest.raises(ValueError, match="must be"):
            faults.rows("closed", g, k)

    def test_core_fault_is_caught_by_the_other_path(self, monkeypatch, capsys):
        # a fault of 13 s in s q(g, k) at every k keeps every division at g = 5
        # exact (a multiple of 13 is the smallest shift that does): the
        # recursion is what exposes it
        faults.plant_core(monkeypatch, 5, None, 13)
        _, row = faults.rows("recursive", 5)
        half = faults.rows("closed", 5)[1][: (3 * 5 - 1) // 2 + 1]
        assert half != row[: len(half)]
        assert cli.main(["value", "--g", "5", "--k", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mismatch at (5,7)" in captured.err

    @pytest.fixture
    def core_shifted_by_s(self, monkeypatch):
        # + s at every k is exact over (6g-1)!!, a multiple of 13, but not
        # over L(5) = lcm(1, 3, ..., 11), which lacks the 13
        faults.plant_core(monkeypatch, 5, None, 1)

    def test_core_fault_of_s_is_an_inexact_division(self, core_shifted_by_s):
        with pytest.raises(ArithmeticError, match=r"inexact division at \(5,6\)"):
            faults.rows("closed", 5)

    def test_core_fault_of_s_exits_4(self, core_shifted_by_s, capsys):
        code = cli.main(["value", "--g", "5", "--k", "7", "--method", "closed"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: ArithmeticError: inexact division at (5,6)"
        )

    @staticmethod
    def _break_unit(monkeypatch, g):
        # the loop is linear in L(g): at g = 5, S(5, 3) = L(5) * 1228/7 with
        # L(5) = lcm(1, 3, ..., 11), and L(5) + 2 is not a multiple of 7
        faults.break_unit(monkeypatch, g, 2)

    def test_inexact_division_raises(self, monkeypatch):
        self._break_unit(monkeypatch, 5)
        with pytest.raises(ArithmeticError, match=r"inexact division at \(5,3\): remainder 6"):
            faults.rows("closed", 5, 7)

    def test_inexact_division_exits_4(self, monkeypatch, capsys):
        self._break_unit(monkeypatch, 5)
        code = cli.main(["value", "--g", "5", "--k", "7", "--method", "closed"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("internal error: ArithmeticError: inexact division")
        # raised in combinatorics._exact, named by its bare file name
        assert re.search(r" \(at combinatorics\.py:\d+\)\n$", captured.err)


def oracle_odd(m):
    return prod(range(m, 0, -2))


def oracle_q(g, k):
    if k % 3 == 2:
        j = (k + 1) // 3
        q, r = divmod(comb(g, j) * (g - 2 * j), g)
        assert r == 0, (g, k)
        return q
    return (-2 if k % 3 == 0 else 2) * comb(g - 1, k // 3)


def oracle_core(g, k):
    """core(g, k) as the double-factorial formula stated before q replaced it."""
    if k % 3 == 2:
        j = (k + 1) // 3
        return oracle_odd(6 * j - 1) * comb(g, j) * (g - 2 * j) // g
    j = k // 3
    if k % 3 == 0:
        return -2 * oracle_odd(6 * j + 1) * comb(g - 1, j)
    return 2 * oracle_odd(6 * j + 3) * comb(g - 1, j)


class TestBinomialOracle:
    """q and b rebuilt from math.comb and products, sharing no code with closedform."""

    def test_running_binomials_are_the_three_branches(self):
        for g in range(1, 201):
            expected = [oracle_q(g, k) for k in range((3 * g - 1) // 2)]
            assert list(closedform._scaled_q(g, 1)) == expected, g

    def test_b_value_is_the_double_factorial_core(self):
        for g in range(1, 41):
            for k in range((3 * g - 1) // 2):
                numerator = oracle_core(g, k) * oracle_odd(6 * g - 3 - 2 * k)
                assert b_value(g, k) == Fraction(numerator, oracle_odd(6 * g - 1)), (g, k)


class TestSourceHoldsNoRow:
    """Given k, the closed source runs the whole half row and keeps one entry of it."""

    @pytest.mark.parametrize("g,k", [(1000, 1500), (1200, 1799)])
    def test_one_entry_peaks_far_below_a_row(self, g, k):
        # the half row at g = 1000 alone takes about 1 MB
        faults.rows("closed", 2, 1)
        tracemalloc.start()
        try:
            faults.rows("closed", g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
