"""Recursive path: the string endpoint, the genus 1 seed, row construction.

The oracle below is a third, self-contained evaluator of intersection
numbers (string equation, dilaton equation, and the double-factorial
topological recursion on the largest index).  It shares no code with the
package and anchors the recursive path independently of the closed form.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faults
from tau2.combinatorics import _denominator
from tau2.verification import check_symmetry, cross_validate


def _df(m: int) -> int:
    return prod(range(m, 0, -2)) if m > 0 else 1


@lru_cache(maxsize=None)
def oracle(g: int, ds: tuple[int, ...]) -> Fraction:
    """Independent <tau_{d_1} ... tau_{d_n}>_g evaluator."""
    ds = tuple(sorted(ds))
    n = len(ds)
    if any(d < 0 for d in ds) or 2 * g - 2 + n <= 0 or sum(ds) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and n == 3:
        return Fraction(1)
    if g == 1 and ds == (1,):
        return Fraction(1, 24)
    if ds[0] == 0:
        rest = ds[1:]
        return sum(
            (oracle(g, rest[:j] + (rest[j] - 1,) + rest[j + 1 :]) for j in range(n - 1)),
            Fraction(0),
        )
    if ds[0] == 1:
        return (2 * g - 3 + n) * oracle(g, ds[1:])
    k = ds[-1] - 1
    rest = ds[:-1]
    m = len(rest)
    total = Fraction(0)
    for j in range(m):
        others = rest[:j] + rest[j + 1 :]
        total += Fraction(_df(2 * k + 2 * rest[j] + 1), _df(2 * rest[j] - 1)) * oracle(
            g, others + (k + rest[j],)
        )
    half = Fraction(0)
    for a in range(k):
        b = k - 1 - a
        w = _df(2 * a + 1) * _df(2 * b + 1)
        half += w * oracle(g - 1, rest + (a, b))
        for g1 in range(g + 1):
            for bits in range(1 << m):
                left = tuple(rest[i] for i in range(m) if bits >> i & 1)
                right = tuple(rest[i] for i in range(m) if not bits >> i & 1)
                half += w * oracle(g1, left + (a,)) * oracle(g - g1, right + (b,))
    return (total + Fraction(1, 2) * half) / _df(2 * k + 3)


GENUS2_ROW = (
    Fraction(1, 1152),
    Fraction(1, 384),
    Fraction(29, 5760),
    Fraction(29, 5760),
    Fraction(1, 384),
    Fraction(1, 1152),
)

GENUS3_ROW = (
    Fraction(1, 82944),
    Fraction(5, 82944),
    Fraction(77, 414720),
    Fraction(503, 1451520),
    Fraction(607, 1451520),
    Fraction(503, 1451520),
    Fraction(77, 414720),
    Fraction(5, 82944),
    Fraction(1, 82944),
)


def one_point(g: int) -> Fraction:
    """<tau_{3g-2}> = 1/(24^g g!), which the string equation makes <tau_0 tau_{3g-1}>."""
    return Fraction(1, 24**g * factorial(g))


def stepped(g: int) -> tuple[Fraction, ...]:
    """Row g as correlators, by one recursion step from the recursion's row g-1; the seed at g = 1."""
    if g == 1:
        return faults.values("recursive", 1)
    unit, below = faults.rows("recursive", g - 1)
    lam, row = faults.step(g, below, unit)
    return tuple(faults.value(g, lam, s) for s in row)


class TestOnePoint:
    """Entry 0 of each recursive row is the one-point value <tau_{3g-2}>."""

    @pytest.mark.parametrize(
        "g,expected",
        [(1, Fraction(1, 24)), (2, Fraction(1, 1152)), (3, Fraction(1, 82944))],
    )
    def test_anchors(self, g, expected):
        assert faults.values("recursive", g, 0) == expected

    @pytest.mark.parametrize("g", [0, -1])
    def test_rejects_nonpositive_genus(self, g):
        with pytest.raises(ValueError):
            faults.rows("recursive", g)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_matches_oracle(self, g):
        assert faults.values("recursive", g, 0) == oracle(g, (3 * g - 2,))


class TestGenus1Seed:
    def test_seed_matches_oracle(self):
        assert oracle(1, (0, 2)) == Fraction(1, 24)
        assert oracle(1, (1, 1)) == Fraction(1, 24)

    def test_integer_seed_is_the_scaled_seed_row(self):
        # N(1) = 24 * 1! * lcm(1, 3) = 72 times the oracle's genus 1 row
        ((lam, seed),) = faults.walk("recursive", 1)
        assert lam == 3
        n = _denominator(1, lam)
        assert seed == tuple(n * oracle(1, (k, 2 - k)) for k in range(3)) == (3, 3, 3)


class TestGenusRow:
    """One recursion step, from the recursion's row below."""

    def test_genus1_row(self):
        assert stepped(1) == (Fraction(1, 24),) * 3

    def test_genus2_row(self):
        assert stepped(2) == GENUS2_ROW

    def test_inexact_division_is_loud(self):
        # (3, 4, 3) over L(1) = 3 is 1/18 = 4/N(1) at k = 1: integral but wrong,
        # so (2,3) divides 7 with remainder 5
        with pytest.raises(ArithmeticError, match=r"inexact division at \(2,3\): remainder 5"):
            faults.step(2, (3, 4, 3), 3)

    def test_requires_row_below(self):
        with pytest.raises(ValueError):
            faults.step(2, (), 3)

    def test_rejects_wrong_length_row(self):
        with pytest.raises(ValueError):
            faults.step(2, (3, 3, 3, 3), 3)

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError, match=r"no step to S\(0, 0\.\.-1\)"):
            faults.step(0, (), 1)

    def test_rejects_row_below_off_the_denominator(self):
        # 7 is no L(1) = 3: the row below would be read over N(1) = 24 * 7
        with pytest.raises(ValueError, match=r"from 3 entries of row 1 over 7$"):
            faults.step(2, (3, 3, 3), 7)


def _rows(g_max: int) -> list[tuple[Fraction, ...]]:
    """Rows 1..g_max of the recursion as correlators, from its integer rows."""
    return [
        tuple(Fraction(t, _denominator(g, lam)) for t in row)
        for g, (lam, row) in enumerate(faults.walk("recursive", g_max), start=1)
    ]


class TestRecursiveRow:
    def test_matches_closed_row_to_genus_80(self):
        for g in range(1, 81):
            assert faults.values("recursive", g) == faults.values("closed", g), g

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_agrees_with_table_and_single_values(self, g, data):
        row = faults.values("recursive", g)
        assert _rows(g)[-1] == row
        k = data.draw(st.integers(min_value=0, max_value=3 * g - 1))
        assert stepped(g)[k] == row[k]

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            faults.rows("recursive", 0)


class TestCone:
    """The recursion's walk to entry (g, k) computes only the entries that entry reads."""

    @pytest.mark.parametrize("g", range(1, 41))
    def test_every_entry_equals_the_full_row(self, g):
        lam, full = faults.rows("recursive", g)
        for k in range(3 * g):
            *_, last = faults.walk("recursive", g, k)
            assert last == (lam, full[: k + 1]), (g, k)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=150), st.data())
    def test_entry_equals_the_full_row_to_genus_150(self, g, data):
        k = data.draw(st.integers(min_value=0, max_value=3 * g - 1))
        assert faults.rows("recursive", g, k)[1] == faults.rows("recursive", g)[1][k]

    @pytest.mark.parametrize("g", range(1, 13))
    def test_rows_are_the_prefixes_of_the_cone(self, g):
        full = list(faults.walk("recursive", g))
        for k in range(3 * g):
            first = max(1, g - k)
            cone = list(faults.walk("recursive", g, k))
            assert len(cone) == g - first + 1, (g, k)
            for h, (lam, row) in enumerate(cone, start=first):
                assert lam == full[h - 1][0], (g, k, h)
                assert row == full[h - 1][1][: min(3 * h, h + k - g + 1)], (g, k, h)


class TestTwoPointRecursive:
    """Single values read off one recursion step or the recursive row."""

    @pytest.mark.parametrize("k,expected", [(0, "1/24"), (1, "1/24"), (2, "1/24")])
    def test_genus1_needs_no_table(self, k, expected):
        assert faults.values("recursive", 1)[k] == Fraction(expected)

    @pytest.mark.parametrize(
        "k,expected",
        [
            (0, Fraction(1, 1152)),
            (1, Fraction(1, 384)),
            (2, Fraction(29, 5760)),
            (3, Fraction(29, 5760)),
        ],
    )
    def test_genus2_steps(self, k, expected):
        assert stepped(2)[k] == expected

    def test_out_of_range_k(self):
        row = faults.values("recursive", 2)
        assert len(row) == 6
        with pytest.raises(IndexError):
            row[7]  # noqa: B018

    def test_missing_table(self):
        with pytest.raises(ValueError, match="from 0 entries of row 1 over 3"):
            faults.step(2, (), 3)

    def test_incomplete_table(self):
        # the genus 1 row stands where the 6-entry genus 2 row belongs, over L(2) = 15
        with pytest.raises(ValueError, match="from 3 entries of row 2 over 15"):
            faults.step(3, (3, 3, 3), 15)

    def test_uses_stored_row_when_available(self):
        assert stepped(3)[4] == faults.values("recursive", 3)[4]

    def test_advances_row_without_mutating(self):
        unit, below = faults.rows("recursive", 2)
        lam, row = faults.step(3, below, unit)
        assert faults.value(3, lam, row[5]) == GENUS3_ROW[5]
        assert tuple(faults.value(2, unit, s) for s in below) == GENUS2_ROW

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_agrees_with_built_table(self, g, data):
        k = data.draw(st.integers(min_value=0, max_value=3 * g - 1))
        assert stepped(g)[k] == _rows(g)[g - 1][k]


class TestBuildTable:
    """Whole chains of rows 1..g from the integer recursion."""

    def test_genus1_table(self):
        rows = _rows(1)
        assert len(rows) == 1
        assert list(rows[0]) == [Fraction(1, 24)] * 3

    def test_genus2_row_frozen(self):
        assert _rows(2)[1] == GENUS2_ROW

    def test_genus3_row_frozen(self):
        assert _rows(3)[2] == GENUS3_ROW

    @pytest.mark.parametrize("g", range(1, 5))
    def test_rows_match_oracle(self, g):
        row = _rows(g)[g - 1]
        for k in range(3 * g):
            assert row[k] == oracle(g, (k, 3 * g - 1 - k)), (g, k)

    def test_rejects_g_max_below_one(self):
        for g in (0, -1):
            with pytest.raises(ValueError):
                faults.rows("recursive", g)

    def test_deterministic_serialization(self):
        assert list(faults.walk("recursive", 5)) == list(faults.walk("recursive", 5))

    @pytest.mark.parametrize("g", range(1, 9))
    def test_validate_passes(self, g):
        """Every row keeps positivity, symmetry and both endpoint identities."""
        for gg, row in enumerate(_rows(g), start=1):
            assert row[0] == one_point(gg)
            assert row[1] == (2 * gg - 1) * one_point(gg)
            for k, v in enumerate(row):
                assert v > 0, (gg, k)
                assert v == row[3 * gg - 1 - k], (gg, k)

    def test_string_endpoint(self):
        for g, row in enumerate(_rows(8), start=1):
            assert row[0] == one_point(g)

    def test_dilaton_endpoint(self):
        for g, row in enumerate(_rows(8), start=1):
            assert row[1] == (2 * g - 1) * one_point(g)


class TestTwoPointTable:
    """A corrupted integer row of the two-point table, fed to the verification
    engine in place of the recursion's, fails at exactly its loci: the
    symmetry check, and cross-validation against the closed form."""

    @staticmethod
    def _corrupt(monkeypatch, g, entries):
        _, row = faults.rows("recursive", g)
        for k, value in entries.items():
            faults.plant(monkeypatch, "recursive", g, k, value(row[k]) - row[k])

    def test_validate_rejects_broken_symmetry(self, monkeypatch):
        self._corrupt(monkeypatch, 1, {2: lambda s: s + 1})
        report = check_symmetry(1)
        assert [(f.g, f.k) for f in report.failures] == [(1, 0)]

    def test_validate_rejects_nonpositive(self, monkeypatch):
        self._corrupt(monkeypatch, 2, {2: lambda s: -s, 3: lambda s: -s})
        report = cross_validate(2)
        assert [(f.g, f.k) for f in report.failures] == [(2, 2), (2, 3)]

    def test_validate_rejects_bad_string_endpoint(self, monkeypatch):
        self._corrupt(monkeypatch, 2, {0: lambda s: s + 1, 5: lambda s: s + 1})
        report = cross_validate(2)
        assert [(f.g, f.k) for f in report.failures] == [(2, 0), (2, 5)]

    def test_validate_rejects_bad_dilaton_endpoint(self, monkeypatch):
        self._corrupt(monkeypatch, 2, {1: lambda s: s + 1, 4: lambda s: s + 1})
        report = cross_validate(2)
        assert [(f.g, f.k) for f in report.failures] == [(2, 1), (2, 4)]
